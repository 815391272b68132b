// fmbench: runs one FM-Bench workload and prints its result.
//
//   fmbench --workload <pingpong|stream|serve_net|serve_shared_core>
//           --seed N --seconds S --trace 0|1
//           [--corrupt-every N] [--spans PATH] [--source-id ID]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the span file). The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// host fingerprint. fmbench/README.md documents every metric.
#include <sched.h>
#include <sys/mman.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace fmbench {
namespace {

unsigned long long ULL(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o->workload = v;
    else if (k == "--seed") o->seed = std::stoull(v);
    else if (k == "--seconds") o->seconds = std::stod(v);
    else if (k == "--trace") o->trace = v == "1";
    else if (k == "--corrupt-every") o->corrupt_every = std::stoull(v);
    else if (k == "--spans") o->spans_path = v;
    else if (k == "--source-id") o->source_id = v;
    else return false;
  }
  return argc % 2 == 1 && known_workload(o->workload) && o->seconds > 0;
}

/// Rank cores from the affinity mask: the highest-numbered allowed cores
/// for the ranks (away from core 0, which takes most device interrupts),
/// the next one for the harness thread.
Cores assign_cores(bool shared_core) {
  Cores c;
  cpu_set_t set;
  CPU_ZERO(&set);
  FM_CHECK(sched_getaffinity(0, sizeof set, &set) == 0);
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) c.allowed.push_back(i);
  const std::size_t n = c.allowed.size();
  auto at_end = [&](std::size_t k) {
    return c.allowed[n - 1 - std::min(k, n - 1)];
  };
  c.rank[0] = at_end(0);
  c.rank[1] = shared_core ? c.rank[0] : at_end(1);
  c.harness = at_end(shared_core ? 1 : 2);
  return c;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string fingerprint(const Options& o, const Cores& c) {
  utsname u{};
  uname(&u);
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"effective_cores\": %zu, \"rank_cores\": [%d, %d], "
      "\"harness_core\": %d, \"cpu_model\": \"%s\", \"kernel\": \"%s %s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"source\": \"%s\", "
      "\"legs\": %d, \"seconds\": %g, \"trace\": %d}}",
      o.workload.c_str(), ULL(o.seed),
      c.allowed.size(), c.rank[0], c.rank[1], c.harness,
      json_escape(cpu_model()).c_str(), u.sysname, u.release,
      FMBENCH_COMPILER, FMBENCH_BUILD_TYPE,
      json_escape(o.source_id).c_str(), kLegs, o.seconds, o.trace ? 1 : 0);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double leg_ops(const LegOut& l) { return static_cast<double>(l.total_ops()); }
double leg_mb(const LegOut& l) { return l.total_bytes() / 1e6; }

/// Per-leg rate of one mode: median over legs of f(leg) / window.
double leg_rate(const Shared& sh, int mode,
                const std::function<double(const LegOut&)>& f) {
  std::vector<double> v;
  for (int l = 0; l < kLegs; ++l) {
    const LegOut& lo = sh.legs[mode][l];
    if (lo.window_ns > 0)
      v.push_back(f(lo) * 1e9 / static_cast<double>(lo.window_ns));
  }
  return median(v);
}

/// `lat` holds the untraced legs' latencies of both ranks.
std::vector<Metric> end_to_end(const Shared& sh, const LogHist& lat) {
  std::vector<double> setup;
  for (int l = 0; l < kLegs; ++l) setup.push_back(sh.legs[0][l].setup_ns / 1e9);
  long rss = 0;
  for (const RankAcc& a : sh.acc[0]) rss = std::max(rss, a.max_rss_kb);
  return {
      {"setup_s", median(setup), "s"},
      {"ops_per_s", leg_rate(sh, 0, leg_ops), "1/s"},
      {"lat_p50_us", lat.quantile(0.50) / 1e3, "us"},
      {"peak_rss_mb", static_cast<double>(rss) / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer(const Shared& sh) {
  const RankAcc* a = sh.acc[1];
  auto span = [&](std::initializer_list<Span> names) {
    SpanStats s;
    for (int r = 0; r < kRanks; ++r)
      for (Span n : names) s.merge(a[r].spans[n]);
    return s;
  };
  auto cnt = [&](Counter k) { return a[0].counters[k] + a[1].counters[k]; };
  std::uint64_t ops = 0;
  for (int l = 0; l < kLegs; ++l) ops += sh.legs[1][l].total_ops();
  const double dops = static_cast<double>(ops);
  auto p50 = [](const LogHist& h) { return h.quantile(0.50); };
  auto frac = [](std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(a), static_cast<double>(b));
  };

  const SpanStats shm_send = span({kShmSend, kShmSend4});
  const SpanStats shm_ext = span({kShmExtract});
  const SpanStats net_send = span({kNetSend});
  const SpanStats net_ext = span({kNetExtract});
  const SpanStats call = span({kServeCall});
  const SpanStats cpoll = span({kServeClientPoll});
  const SpanStats spoll = span({kServeServerPoll});
  // Busiest rank's share of its window spent inside shm send calls.
  double send_busy = 0;
  for (int r = 0; r < kRanks; ++r)
    send_busy = std::max(send_busy, frac(a[r].spans[kShmSend].total_ns +
                                              a[r].spans[kShmSend4].total_ns,
                                          a[r].window_ns));
  LogHist req, rep;
  std::uint64_t calls = 0, refused = 0, cpu = 0, win = 0, vol = 0, invol = 0;
  for (int r = 0; r < kRanks; ++r) {
    req.merge(a[r].req_path);
    rep.merge(a[r].reply_path);
    calls += a[r].attempted;
    refused += a[r].refused;
    cpu += a[r].cpu_ns;
    win += a[r].window_ns;
    vol += a[r].vol_csw;
    invol += a[r].invol_csw;
  }
  const double untraced = leg_rate(sh, 0, leg_ops);
  const double traced = leg_rate(sh, 1, leg_ops);
  const double piggy = cnt(kAcksPiggybacked), standalone = cnt(kAcksStandalone);
  const double msgs = cnt(kMessagesSent), delivered = cnt(kMessagesDelivered);
  return {
      // shm
      {"shm.send.ns_p50", p50(shm_send.dur), "ns"},
      {"shm.send.calls_per_op", ratio(double(shm_send.calls), dops),
       "calls/op"},
      {"shm.send.busy_frac", send_busy, "frac"},
      {"shm.extract.self_ns_p50", p50(shm_ext.self), "ns"},
      {"shm.extract.msgs_per_call", frac(shm_ext.items, shm_ext.calls),
       "msgs/call"},
      {"shm.extract.empty_frac", frac(shm_ext.empty, shm_ext.calls), "frac"},
      // net
      {"net.send.ns_p50", p50(net_send.dur), "ns"},
      {"net.extract.self_ns_p50", p50(net_ext.self), "ns"},
      {"net.extract.msgs_per_call", frac(net_ext.items, net_ext.calls),
       "msgs/call"},
      {"net.extract.empty_frac", frac(net_ext.empty, net_ext.calls), "frac"},
      {"net.frames_per_syscall",
       ratio(cnt(kBatchTxFrames), cnt(kBatchSyscalls)), "frames/call"},
      {"net.kernel_drops", cnt(kKernelDrops), "count"},
      {"net.ewouldblock_stalls", cnt(kEwouldblockStalls), "count"},
      // fm
      {"fm.acks_piggybacked_frac", ratio(piggy, piggy + standalone), "frac"},
      {"fm.frames_per_msg", ratio(cnt(kFramesSent), msgs), "frames/msg"},
      {"fm.acks_standalone_per_msg", ratio(standalone, delivered), "acks/msg"},
      {"fm.rejects_per_msg", ratio(cnt(kRejectsReceived), msgs), "rejects/msg"},
      {"fm.retransmissions_per_msg", ratio(cnt(kRetransmissions), msgs),
       "retx/msg"},
      {"fm.duplicates_suppressed", cnt(kDuplicatesSuppressed), "count"},
      // serve
      {"serve.call.ns_p50", p50(call.dur), "ns"},
      {"serve.call.refused_frac", frac(refused, calls), "frac"},
      {"serve.client_poll.self_ns_p50", p50(cpoll.self), "ns"},
      {"serve.client_poll.empty_frac", frac(cpoll.empty, cpoll.calls), "frac"},
      {"serve.server_poll.self_ns_p50", p50(spoll.self), "ns"},
      {"serve.server_poll.empty_frac", frac(spoll.empty, spoll.calls), "frac"},
      {"serve.method.ns_p50", p50(span({kServeMethod}).dur), "ns"},
      {"serve.request_path_us_p50", p50(req) / 1e3, "us"},
      {"serve.reply_path_us_p50", p50(rep) / 1e3, "us"},
      {"serve.shed_remote", cnt(kCallsShedRemote), "count"},
      {"serve.deadline_misses", cnt(kCallsDeadline), "count"},
      {"serve.ooo_parked", cnt(kOooParked), "count"},
      // sched
      {"sched.invol_csw_per_op", ratio(double(invol), dops), "csw/op"},
      {"sched.vol_csw_per_op", ratio(double(vol), dops), "csw/op"},
      {"sched.cpu_frac", frac(cpu, win), "frac"},
      // bench
      {"bench.trace_overhead_pct",
       untraced > 0 ? (1 - traced / untraced) * 100 : 0, "%"},
  };
}

/// Chrome trace JSON of the raw spans (load in Perfetto). Serve calls are
/// stitched across the two ranks with flow events keyed by the op id the
/// payload carries: serve.call -> serve.method -> bench.completion.
bool write_spans(const std::string& path, const Shared& sh) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~0ull;
  for (int r = 0; r < kRanks; ++r)
    for (std::uint32_t i = 0; i < sh.acc[1][r].raw_len; ++i)
      t0 = std::min(t0, sh.raw[r][i].start);
  auto us = [&](std::uint64_t t) { return static_cast<double>(t - t0) / 1e3; };
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  const char* sep = "";
  for (int r = 0; r < kRanks; ++r) {
    for (std::uint32_t i = 0; i < sh.acc[1][r].raw_len; ++i) {
      const RawSpan& s = sh.raw[r][i];
      if (s.end < s.start) continue;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"op\": %llu, \"parent\": %d}}",
                   sep, kSpanName[s.name], r, r, us(s.start),
                   static_cast<double>(s.end - s.start) / 1e3, ULL(s.op),
                   s.parent);
      sep = ",\n";
      const char* ph = s.name == kServeCall         ? "s"
                       : s.name == kServeMethod     ? "t"
                       : s.name == kBenchCompletion ? "f"
                                                    : nullptr;
      if (ph != nullptr && s.op != 0)
        std::fprintf(f,
                     ",\n{\"name\": \"serve.op\", \"cat\": \"op\", "
                     "\"ph\": \"%s\", \"bp\": \"e\", \"id\": %llu, "
                     "\"pid\": %d, \"tid\": %d, \"ts\": %.3f}",
                     ph, ULL(s.op), r, r, us(s.start));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", ULL(attempted), ULL(failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(),
                std::isfinite(ms[i].value) ? ms[i].value : 0.0, ms[i].unit);
  std::printf("}}\n");
}

int run(const Options& o) {
  const Cores cores = assign_cores(o.workload == "serve_shared_core");
  pin_to(cores.harness);
  // The mapping starts zero-filled, which is the arena's initial state.
  // Nothing writes it up front, so only pages a run touches count toward
  // its resident set.
  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  FM_CHECK_MSG(mem != MAP_FAILED, "cannot map the results arena");
  Shared& sh = *static_cast<Shared*>(mem);

  bool clean = true;
  for (int leg = 0; leg < kLegs; ++leg) {
    clean = run_leg(o, cores, sh, false, leg) && clean;
    if (o.trace) clean = run_leg(o, cores, sh, true, leg) && clean;
  }

  // Checks: op-level failures from the ranks, plus the conservation
  // invariant sent == delivered + abandoned over both ranks after drain.
  std::uint64_t attempted = 0, failed = 0, refused = 0;
  std::uint64_t failed_status[kNumStatus] = {};
  for (int mode = 0; mode < 2; ++mode) {
    double imbalance = 0;
    for (const RankAcc& a : sh.acc[mode]) {
      attempted += a.attempted;
      failed += a.failed;
      for (int s = 0; s < kNumStatus; ++s)
        failed_status[s] += a.failed_status[s];
      refused += a.refused;
      imbalance += a.totals[kMessagesSent] - a.totals[kMessagesDelivered] -
                   a.totals[kMessagesAbandoned];
    }
    failed += static_cast<std::uint64_t>(std::fabs(imbalance));
  }
  const bool correct = clean && failed == 0;

  LogHist lat;
  for (const RankAcc& a : sh.acc[0]) lat.merge(a.lat);
  std::vector<Metric> out = end_to_end(sh, lat);
  if (o.trace) {
    out = per_layer(sh);
    if (!o.spans_path.empty() && !write_spans(o.spans_path, sh)) {
      std::fprintf(stderr, "fmbench: cannot write %s\n", o.spans_path.c_str());
      return 1;
    }
  }

  char by_status[512] = " none";
  for (int s = 1, len = 0; s < kNumStatus; ++s)
    if (failed_status[s] != 0) {
      const std::string_view name = fm::to_string(static_cast<fm::Status>(s));
      len += std::snprintf(by_status + len, sizeof by_status - len,
                           " %.*s=%llu", static_cast<int>(name.size()),
                           name.data(), ULL(failed_status[s]));
    }
  std::printf(
      "# fmbench %s seed=%llu legs=%d trace=%d: attempted=%llu failed=%llu "
      "(non-kOk status:%s) refused=%llu latency_samples=%llu clean=%d\n",
      o.workload.c_str(), ULL(o.seed), kLegs, o.trace ? 1 : 0,
      ULL(attempted), ULL(failed), by_status, ULL(refused), ULL(lat.count()),
      clean ? 1 : 0);
  std::printf(
      "#   latency us: p50 %.3f  p90 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n",
      lat.quantile(0.5) / 1e3, lat.quantile(0.9) / 1e3,
      lat.quantile(0.99) / 1e3, lat.quantile(0.999) / 1e3,
      lat.quantile(1.0) / 1e3);
  // Reported, not gated: on the gated workloads it is 32 B x ops_per_s.
  std::printf("#   payload MB/s: %.4f\n", leg_rate(sh, 0, leg_mb));
  for (int mode = 0; mode < (o.trace ? 2 : 1); ++mode)
    for (int l = 0; l < kLegs; ++l) {
      const LegOut& lo = sh.legs[mode][l];
      std::printf("#   leg %d%s: setup %.6f s, %llu ops in %.3f s\n", l,
                  mode ? " traced" : "", lo.setup_ns / 1e9,
                  ULL(lo.total_ops()), lo.window_ns / 1e9);
    }
  for (const Metric& m : out)
    std::printf("#   %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("%s\n", fingerprint(o, cores).c_str());
  print_result(correct, attempted, failed, out);
  munmap(mem, sizeof(Shared));
  return 0;
}

}  // namespace
}  // namespace fmbench

int main(int argc, char** argv) {
  fmbench::Options o;
  bool ok = false;
  try {
    ok = fmbench::parse(argc, argv, &o);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: fmbench --workload <pingpong|stream|serve_net|"
                 "serve_shared_core> --seed N --seconds S --trace 0|1 "
                 "[--corrupt-every N] [--spans PATH] "
                 "[--source-id ID]\n");
    return 2;
  }
  return fmbench::run(o);
}
