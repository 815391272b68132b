// The four FM-Bench workloads. Every one is a closed loop between two
// pinned ranks: the driver rank waits for a reply (pingpong, serve_*) or
// for send-window credit (stream) before it issues more.
//
//   pingpong           shm send4 -> post_send4 echo, one message in flight
//   stream             one-way shm send of a seeded size mix, window full
//   serve_net          serve echo calls over the net (UDP) backend, 32 in
//                      flight, client and shard on two cores
//   serve_shared_core  the same calls over shm, client and shard pinned to
//                      one core, both spinning on poll()
//
// Each leg: build the cluster and engines (set-up), warm up for a tenth of
// the leg, measure for the rest, stop issuing, let every outstanding op
// complete, drain, and check the counters. The driver rank moves the leg
// through its phases in the shared arena; the other rank follows them.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "fm/cluster_runner.h"
#include "net/cluster.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shm/cluster.h"

namespace fmbench {

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  FM_CHECK_MSG(sched_setaffinity(0, sizeof set, &set) == 0,
               "sched_setaffinity failed");
}

bool known_workload(const std::string& w) {
  return w == "pingpong" || w == "stream" || w == "serve_net" ||
         w == "serve_shared_core";
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The seeded check word every payload carries next to its op id.
std::uint32_t check_word(std::uint64_t seed, std::uint64_t op) {
  return static_cast<std::uint32_t>(mix64(seed ^ (op << 20)));
}

/// xorshift64*: the seeded input stream (sizes, sessions).
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(mix64(seed) | 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 2685821657736338717ull;
  }
};

/// The 16-byte head of every stream message and serve request/echo.
struct Msg {
  std::uint32_t op = 0;
  std::uint32_t check = 0;
  std::uint64_t stamp = 0;  ///< Issue time (steady clock, ns).
};
static_assert(sizeof(Msg) == 16);

struct Usage {
  std::uint64_t cpu_ns = 0, vol = 0, invol = 0;
};

Usage thread_usage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return {ns(ru.ru_utime) + ns(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_nvcsw),
          static_cast<std::uint64_t>(ru.ru_nivcsw)};
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss would
/// carry over the peak of whatever process exec()ed the benchmark.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

using Regs = std::initializer_list<fm::obs::Registry*>;

void read_counters(Regs regs, double out[kNumCounters]) {
  for (int i = 0; i < kNumCounters; ++i) out[i] = 0;
  for (fm::obs::Registry* r : regs) {
    r->assert_owner();
    for (const fm::obs::Sample& s : r->snapshot()) {
      const std::size_t dot = s.name.rfind('.');
      const char* leaf =
          s.name.c_str() + (dot == std::string::npos ? 0 : dot + 1);
      for (int i = 0; i < kNumCounters; ++i)
        if (std::strcmp(leaf, kCounterName[i]) == 0) out[i] += s.value;
    }
  }
}

/// One rank's view of a leg: its accumulators, recorder and window edges.
class RankCtx {
 public:
  RankCtx(const Options& o, Shared& sh, int rank, bool traced, int leg,
          std::uint64_t leg_ns, bool record_raw)
      : o(o),
        sh(sh),
        acc(sh.acc[traced][rank]),
        out(sh.legs[traced][leg]),
        rec(acc.spans, sh.raw[rank], record_raw ? kRawCap : 0, &acc.raw_len),
        rank(rank),
        traced(traced),
        leg(leg),
        warm_ns_(leg_ns / 10),
        measure_ns_(leg_ns - leg_ns / 10) {}

  const Options& o;
  Shared& sh;
  RankAcc& acc;
  LegOut& out;
  Recorder rec;
  const int rank;
  const bool traced;
  const int leg;
  // Completions this rank counted inside the window.
  std::uint64_t ops = 0, bytes = 0;

  bool in_window(std::uint64_t t) const {
    const std::uint64_t ws = sh.window_start.load(std::memory_order_relaxed);
    return ws != 0 && t >= ws &&
           t < sh.window_end.load(std::memory_order_relaxed);
  }

  /// Completes set-up: both ranks have built their engines. The driver
  /// stamps the set-up time and opens the warm-up phase.
  template <class C>
  void ready(C& cluster, bool driver) {
    cluster.barrier();
    if (!driver) return;
    const std::uint64_t t = now_ns();
    out.setup_ns = t - sh.setup_start.load();
    warm_end_ = t + warm_ns_;
    sh.phase.store(kWarm, std::memory_order_release);
  }

  /// Driver: advances the phases at time `t`. False once the measured
  /// window has closed.
  bool drive(std::uint64_t t, Regs regs) {
    if (!started_) {
      if (t < warm_end_) return true;
      begin(regs);
      end_ = t + measure_ns_;
      sh.window_start.store(t, std::memory_order_relaxed);
      sh.phase.store(kMeasure, std::memory_order_release);
      return true;
    }
    if (t < end_) return true;
    sh.window_end.store(t, std::memory_order_relaxed);
    out.window_ns = t - sh.window_start.load(std::memory_order_relaxed);
    finish_window(regs);
    sh.phase.store(kStop, std::memory_order_release);
    return false;
  }

  /// Driver: every outstanding op has completed.
  void done() { sh.phase.store(kDone, std::memory_order_release); }

  /// Follower: mirrors the driver's window edges. False once the driver
  /// declared the leg done.
  bool follow(Regs regs) {
    const int ph = sh.phase.load(std::memory_order_acquire);
    if (ph >= kMeasure && !started_) begin(regs);
    if (ph >= kStop && !stopped_) finish_window(regs);
    return ph != kDone;
  }

  /// Quiesces the leg: servicing barrier, drain, cumulative counters, and
  /// a second servicing barrier so no rank leaves while a peer still
  /// needs its acks.
  template <class C, class E>
  void finish(C& cluster, E& raw, Regs regs) {
    fm::barrier_serviced(cluster, raw);
    raw.drain();
    double tot[kNumCounters];
    read_counters(regs, tot);
    for (int i = 0; i < kNumCounters; ++i) acc.totals[i] += tot[i];
    acc.max_rss_kb = std::max(acc.max_rss_kb, peak_rss_kb());
    out.ops[rank] = ops;
    out.bytes[rank] = bytes;
    fm::barrier_serviced(cluster, raw);
  }

 private:
  void begin(Regs regs) {
    started_ = true;
    read_counters(regs, c0_);
    u0_ = thread_usage();
    t0_ = now_ns();
    rec.set_on(traced);
  }

  void finish_window(Regs regs) {
    stopped_ = true;
    rec.set_on(false);
    double c1[kNumCounters];
    read_counters(regs, c1);
    for (int i = 0; i < kNumCounters; ++i) acc.counters[i] += c1[i] - c0_[i];
    const Usage u1 = thread_usage();
    acc.cpu_ns += u1.cpu_ns - u0_.cpu_ns;
    acc.vol_csw += u1.vol - u0_.vol;
    acc.invol_csw += u1.invol - u0_.invol;
    acc.window_ns += now_ns() - t0_;
  }

  const std::uint64_t warm_ns_, measure_ns_;
  std::uint64_t warm_end_ = 0, end_ = 0, t0_ = 0;
  bool started_ = false, stopped_ = false;
  double c0_[kNumCounters] = {};
  Usage u0_;
};

/// Hands `body` the rank's endpoint: the raw one in untraced legs, the
/// span-recording wrapper in traced ones.
template <bool kT, class E, class Body>
void with_ep(E& raw, Recorder& rec, Body&& body) {
  if constexpr (kT) {
    TracedEp<E> ep(raw, rec);
    body(ep);
  } else {
    body(raw);
  }
}

/// The polling wait the shm endpoint's own extract_until() uses: extract,
/// and yield the core when there was nothing to do.
template <class Ep>
void extract_or_yield(Ep& ep) {
  if (ep.extract() == 0) std::this_thread::yield();
}

/// Upper bound on waiting for a reply or for the last ops of a leg; an op
/// still outstanding then is counted as failed.
constexpr std::uint64_t kQuiesceNs = 5'000'000'000ull;

// ---------------------------------------------------------------------------
// pingpong: t0 of a 16-byte send4 answered by a post_send4 echo.

template <bool kT>
void pingpong_rank(fm::shm::Cluster& cl, fm::shm::Endpoint& raw, RankCtx& c) {
  const std::uint64_t seed = c.o.seed;
  Regs regs = {&raw.registry()};
  with_ep<kT>(raw, c.rec, [&](auto& ep) {
    std::uint64_t pongs = 0;
    std::uint32_t expect[4] = {};
    auto words_ok = [&](const void* d, std::size_t n, std::uint32_t* w) {
      if (n != 16) return false;
      std::memcpy(w, d, 16);
      return w[1] == check_word(seed, w[0]) &&
             w[2] == check_word(seed, w[0] ^ 0x5555u) &&
             w[3] == check_word(seed + 1, w[0]);
    };
    const fm::HandlerId hpong = ep.register_handler(
        [&](auto&, fm::NodeId, const void* d, std::size_t n) {
          std::uint32_t w[4];
          if (!words_ok(d, n, w) || std::memcmp(w, expect, 16) != 0)
            ++c.acc.failed;
          ++pongs;
        });
    const fm::HandlerId hping = ep.register_handler(
        [&](auto& e, fm::NodeId src, const void* d, std::size_t n) {
          std::uint32_t w[4] = {};
          if (!words_ok(d, n, w)) ++c.acc.failed;
          if (c.o.corrupt_every != 0 && w[0] % c.o.corrupt_every == 0)
            w[3] ^= 1;
          e.post_send4(src, hpong, w[0], w[1], w[2], w[3]);
        });
    const bool driver = raw.id() == 0;
    c.ready(cl, driver);
    if (!driver) {
      while (c.follow(regs)) extract_or_yield(ep);
      c.finish(cl, raw, regs);
      return;
    }
    std::uint32_t op = 0;
    for (;;) {
      ++op;
      expect[0] = op;
      expect[1] = check_word(seed, op);
      expect[2] = check_word(seed, op ^ 0x5555u);
      expect[3] = check_word(seed + 1, op);
      const std::uint64_t target = pongs + 1;
      const std::uint64_t t0 = now_ns();
      ++c.acc.attempted;
      bool ok = ep.send4(1, hping, expect[0], expect[1], expect[2],
                         expect[3]) == fm::Status::kOk;
      const std::uint64_t give_up = t0 + kQuiesceNs;
      while (ok && pongs < target) {
        extract_or_yield(ep);
        ok = pongs >= target || now_ns() < give_up;
      }
      if (!ok) ++c.acc.failed;
      const std::uint64_t t1 = now_ns();
      if (ok && c.in_window(t1)) {
        ++c.ops;
        c.bytes += 32;
        c.acc.lat.add(t1 - t0);
      }
      if (!c.drive(t1, regs)) break;
    }
    c.done();
    c.finish(cl, raw, regs);
  });
}

// ---------------------------------------------------------------------------
// stream: one-way sends of a seeded {16, 256, 1024, 4096} B mix, window full.

constexpr std::size_t kSizes[4] = {16, 256, 1024, 4096};
constexpr std::size_t kPatternBytes = 8192;

/// Exactly-once tracker over a sliding window of sequence numbers.
class Once {
 public:
  static constexpr std::uint64_t kWin = 1u << 16;
  Once() : bits_(kWin / 64, 0) {}
  /// False for a duplicate or a sequence number far outside the window.
  bool see(std::uint64_t s) {
    if (s < next_ || s >= next_ + kWin) return false;
    std::uint64_t& w = bits_[(s & (kWin - 1)) >> 6];
    const std::uint64_t b = 1ull << (s & 63);
    if (w & b) return false;
    w |= b;
    for (;;) {
      std::uint64_t& nw = bits_[(next_ & (kWin - 1)) >> 6];
      const std::uint64_t nb = 1ull << (next_ & 63);
      if (!(nw & nb)) break;
      nw &= ~nb;
      ++next_;
    }
    return true;
  }
  /// Every sequence number below this was seen exactly once.
  std::uint64_t complete() const { return next_; }

 private:
  std::vector<std::uint64_t> bits_;
  std::uint64_t next_ = 1;
};

std::size_t pattern_offset(std::uint64_t op) { return (op * 67) & 4095; }

template <bool kT>
void stream_rank(fm::shm::Cluster& cl, fm::shm::Endpoint& raw, RankCtx& c) {
  std::atomic<std::uint64_t>& sent_total = c.sh.sent_total;
  std::atomic<std::uint64_t>& delivered = c.sh.delivered;
  const std::uint64_t seed = c.o.seed;
  Regs regs = {&raw.registry()};
  std::vector<std::uint8_t> pattern(kPatternBytes);
  Rng prng(seed ^ 0x7a77);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(prng.next() >> 56);
  Once once;
  with_ep<kT>(raw, c.rec, [&](auto& ep) {
    const fm::HandlerId h = ep.register_handler(
        [&](auto&, fm::NodeId, const void* d, std::size_t n) {
          const std::uint64_t t = now_ns();
          Msg m;
          bool ok = n >= sizeof m;
          if (ok) {
            std::memcpy(&m, d, sizeof m);
            ok = once.see(m.op) && m.check == check_word(seed, m.op) &&
                 std::memcmp(static_cast<const std::uint8_t*>(d) + sizeof m,
                             pattern.data() + pattern_offset(m.op),
                             n - sizeof m) == 0;
          }
          delivered.store(once.complete() - 1, std::memory_order_release);
          if (!ok) {
            ++c.acc.failed;
          } else if (c.in_window(t)) {
            ++c.ops;
            c.bytes += n;
            // Latency of the 4 KB messages only: the mix of size classes
            // makes the whole distribution multimodal, and its percentiles
            // would jump between the classes' clusters from run to run.
            if (n == kSizes[3]) c.acc.lat.add(t - m.stamp);
          }
        });
    const bool driver = raw.id() == 0;
    c.ready(cl, driver);
    if (!driver) {
      while (c.follow(regs)) extract_or_yield(ep);
      c.finish(cl, raw, regs);
      return;
    }
    Rng rng(seed * 31 + static_cast<std::uint64_t>(c.leg));
    std::vector<std::uint8_t> buf(kSizes[3]);
    std::uint32_t op = 0;
    for (;;) {
      const std::size_t len = kSizes[rng.next() >> 62];
      Msg m;
      m.op = ++op;
      m.check = check_word(seed, op);
      if (c.o.corrupt_every != 0 && op % c.o.corrupt_every == 0) m.check ^= 1;
      std::memcpy(buf.data() + sizeof m, pattern.data() + pattern_offset(op),
                  len - sizeof m);
      m.stamp = now_ns();
      std::memcpy(buf.data(), &m, sizeof m);
      ++c.acc.attempted;
      if (ep.send(1, h, buf.data(), len) != fm::Status::kOk) ++c.acc.failed;
      if (!c.drive(now_ns(), regs)) break;
    }
    // Everything sent is delivered before the leg is declared done, so the
    // counters read in finish() are final. A lost message would stall this
    // wait; the bound turns it into a failed op counted below instead.
    sent_total.store(op);
    const std::uint64_t give_up = now_ns() + kQuiesceNs;
    while (delivered.load(std::memory_order_acquire) < op && now_ns() < give_up)
      extract_or_yield(ep);
    c.done();
    c.finish(cl, raw, regs);
  });
  // Exactly-once at drain: every message sent was delivered once.
  if (raw.id() == 1) {
    const std::uint64_t sent = sent_total.load();
    const std::uint64_t got = once.complete() - 1;
    if (got != sent) c.acc.failed += got > sent ? got - sent : sent - got;
  }
}

// ---------------------------------------------------------------------------
// serve_*: 16-byte echo calls, 32 in flight over 256 seeded sessions.

constexpr std::size_t kInflight = 32;
constexpr std::size_t kSessions = 256;

/// serve's default 50 ms call deadline fails every in-flight call when the
/// ranks' core stalls that long (a 60-80 ms SIGSTOP of the process fails
/// ~30 calls per stop on serve_shared_core, whose calls already wait 8 ms).
/// The workloads measure steady-state cost, so calls get 1 s; the deadline
/// sweep still runs, and an expired call still counts as a failed op.
fm::serve::ServeConfig serve_config() {
  fm::serve::ServeConfig cfg;
  cfg.default_deadline_ns = 1'000'000'000;
  return cfg;
}

template <bool kT, class C>
void serve_rank(C& cl, typename C::EndpointType& raw, RankCtx& c) {
  const std::uint64_t seed = c.o.seed;
  Shared& sh = c.sh;
  const fm::serve::ServeConfig scfg = serve_config();
  with_ep<kT>(raw, c.rec, [&](auto& ep) {
    using EpT = std::remove_reference_t<decltype(ep)>;
    if constexpr (kT) ep.set_handler_span(kServeDispatch);
    if (raw.id() == 0) {
      // ---- shard (rank 0): the follower ----
      fm::serve::Server<EpT> srv(ep, scfg);
      (void)srv.register_method([&](fm::NodeId, std::uint64_t, const void* d,
                                    std::size_t n, auto& w) {
        Msg m;
        if (n == sizeof m) std::memcpy(&m, d, sizeof m);
        Scope<kT> s(c.rec, kServeMethod, m.op);
        if constexpr (kT) {
          const std::uint64_t t = now_ns();
          if (c.in_window(m.stamp)) c.acc.req_path.add(t - m.stamp);
        }
        if (n != sizeof m || m.check != check_word(seed, m.op)) ++c.acc.failed;
        if (c.o.corrupt_every != 0 && m.op % c.o.corrupt_every == 0)
          m.check ^= 1;
        w.reply(&m, sizeof m);
        if constexpr (kT)
          sh.method_done[m.op % kOpSlots].store(now_ns(),
                                                std::memory_order_release);
      });
      Regs regs = {&raw.registry(), &srv.registry()};
      c.ready(cl, false);
      while (c.follow(regs)) {
        Scope<kT> s(c.rec, kServeServerPoll, 0, true);
        s.items(srv.poll());
      }
      c.finish(cl, raw, regs);
      return;
    }
    // ---- client (rank 1): the driver ----
    fm::serve::Client<EpT> cli(ep, 1, scfg);
    Regs regs = {&raw.registry(), &cli.registry()};
    struct Fifo {
      std::uint32_t op[64];
      std::uint32_t head = 0, tail = 0;
    };
    std::vector<Fifo> fifo(kSessions);
    std::vector<std::uint64_t> stamp(kOpSlots, 0);
    const std::uint64_t session_base = (mix64(seed) & 0xffffffffull) << 8;
    cli.set_completion([&](const fm::serve::CallResult& r) {
      Scope<kT> s(c.rec, kBenchCompletion, r.cookie);
      const std::uint64_t t = now_ns();
      Fifo& q = fifo[r.session & 0xff];
      // Per-session completion order: the oldest issued op comes back first.
      bool ok = q.head != q.tail && q.op[q.head % 64] == r.cookie;
      if (q.head != q.tail) ++q.head;
      const std::uint32_t op = static_cast<std::uint32_t>(r.cookie);
      const std::uint64_t t_issue = stamp[op % kOpSlots];
      if (ok && r.status == fm::Status::kOk && r.len == sizeof(Msg)) {
        Msg m;
        std::memcpy(&m, r.data, sizeof m);
        ok = m.op == op && m.check == check_word(seed, op) &&
             m.stamp == t_issue;
      } else {
        ok = false;
      }
      if (!ok) {
        ++c.acc.failed;
        if (r.status != fm::Status::kOk)
          ++c.acc.failed_status[static_cast<int>(r.status)];
        return;
      }
      if (c.in_window(t)) {
        ++c.ops;
        c.bytes += 2 * sizeof(Msg);
        c.acc.lat.add(t - t_issue);
        if constexpr (kT)
          c.acc.reply_path.add(t - sh.method_done[op % kOpSlots].load(
                                       std::memory_order_acquire));
      }
    });
    c.ready(cl, true);
    Rng rng(seed * 131 + static_cast<std::uint64_t>(c.leg));
    std::uint32_t next_op = 1;
    auto issue = [&]() {
      const std::uint64_t local = rng.next() % kSessions;
      Msg m;
      m.op = next_op;
      m.check = check_word(seed, m.op);
      m.stamp = now_ns();
      fm::Status st;
      {
        Scope<kT> s(c.rec, kServeCall, m.op);
        st = cli.call(session_base | local, 0, &m, sizeof m, m.op);
      }
      ++c.acc.attempted;
      if (st != fm::Status::kOk) {
        // The client's admission control refused the call before sending
        // anything; the loop retries another session. Reported as
        // serve.call.refused_frac, not as a failed op.
        ++c.acc.refused;
        return false;
      }
      stamp[m.op % kOpSlots] = m.stamp;
      Fifo& q = fifo[local];
      q.op[q.tail++ % 64] = m.op;
      ++next_op;
      return true;
    };
    auto poll = [&]() {
      Scope<kT> s(c.rec, kServeClientPoll, 0, true);
      s.items(cli.poll());
    };
    for (;;) {
      while (cli.inflight() < kInflight)
        if (!issue()) break;
      poll();
      if (!c.drive(now_ns(), regs)) break;
    }
    // Every issued call completes: kOk, or a failure status once its
    // deadline passes.
    while (!cli.quiesced()) poll();
    c.done();
    c.finish(cl, raw, regs);
  });
}

/// Builds a two-rank cluster of backend C, pins its ranks and runs `fn`
/// on each; returns whether every rank ended cleanly.
template <class C, class Fn>
bool run_cluster(const Cores& cores, C& cluster, Fn&& fn) {
  const fm::RunReport rep =
      cluster.run([&](typename C::EndpointType& raw) {
        pin_to(cores.rank[raw.id()]);
        fn(raw);
      });
  return rep.all_clean();
}

}  // namespace

bool run_leg(const Options& o, const Cores& cores, Shared& sh, bool traced,
             int leg) {
  sh.phase.store(kSetup);
  sh.window_start.store(0);
  sh.window_end.store(~0ull);
  sh.sent_total.store(0);
  sh.delivered.store(0);
  // Raw spans for the span file come from the first traced leg only.
  const bool record_raw = traced && leg == 0;
  const std::uint64_t leg_ns = static_cast<std::uint64_t>(
      o.seconds * 1e9 / (o.trace ? 2 * kLegs : kLegs));
  auto ctx = [&](int rank) {
    return RankCtx(o, sh, rank, traced, leg, leg_ns, record_raw);
  };
  sh.setup_start.store(now_ns());

  if (o.workload == "pingpong" || o.workload == "stream") {
    fm::shm::Cluster cl(2);
    return run_cluster(cores, cl,
                       [&](fm::shm::Endpoint& raw) {
      RankCtx c = ctx(raw.id());
      if (o.workload == "pingpong") {
        if (traced) pingpong_rank<true>(cl, raw, c);
        else pingpong_rank<false>(cl, raw, c);
      } else {
        if (traced) stream_rank<true>(cl, raw, c);
        else stream_rank<false>(cl, raw, c);
      }
    });
  }
  if (o.workload == "serve_shared_core") {
    fm::shm::Cluster cl(2);
    return run_cluster(cores, cl,
                       [&](fm::shm::Endpoint& raw) {
      RankCtx c = ctx(raw.id());
      if (traced) serve_rank<true>(cl, raw, c);
      else serve_rank<false>(cl, raw, c);
    });
  }
  // serve_net: the net backend requires FM-R. Transport knobs are fixed
  // here so FM_NET_* environment variables cannot change the workload.
  fm::FmConfig cfg;
  cfg.reliability = true;
  fm::net::NetConfig net;
  net.tx_batch = 1;
  net.gso = 0;
  net.busy_poll_spin_us = 0;
  fm::net::Cluster cl(2, cfg, net);
  return run_cluster(cores, cl,
                     [&](fm::net::Endpoint& raw) {
    RankCtx c = ctx(raw.id());
    if (traced) serve_rank<true>(cl, raw, c);
    else serve_rank<false>(cl, raw, c);
  });
}

}  // namespace fmbench
