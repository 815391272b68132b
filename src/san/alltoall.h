// FM-San round-scheduled all-to-all soak driver.
//
// Runs the RoundSchedule (san/schedule.h) over any fm::ClusterBackend: in
// each round every rank sends `msgs_per_round` timestamped requests to its
// scheduled destination and echoes every request it receives; the sender
// computes a request/echo RTT per link and the matrix feeds the per-link
// attribution in san/link_stats.h. Rounds are self-paced — a rank advances
// when its own echoes are home — so no per-round barrier exists to mask a
// slow rank, and a chaos schedule (san/chaos.h) can kill or stall a rank
// at any round boundary while the others are mid-collective.
//
// The driver never asserts; it counts (san.node<i> registry scope,
// published into the RunReport) and reports per-link metrics. Tests assert
// on the returned SoakOutcome: exactly-once via counters, conservation via
// RunReport::conservation(), attribution via the LinkAnalysis.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "fm/cluster_runner.h"
#include "fm/protocol.h"
#include "hw/fault.h"
#include "obs/registry.h"
#include "san/chaos.h"
#include "san/link_stats.h"
#include "san/schedule.h"
#include "san/seed.h"

namespace fm::san {

/// Soak shape + chaos schedule for one run_all_to_all() call.
template <class C>
struct SoakParams {
  std::size_t rounds = 8;
  std::size_t msgs_per_round = 2;   ///< Requests per rank per round.
  std::size_t payload_bytes = 64;   ///< >= kRequestHeaderBytes.
  std::size_t incast_every = 0;     ///< See RoundSchedule.
  std::uint64_t seed = 0x5eedf00d;  ///< effective_seed() fallback.
  bool end_barrier = true;   ///< barrier_serviced at the end. Turn OFF for
                             ///< shm kill scenarios: the thread barrier
                             ///< waits for ALL ranks, dead ones included.
  double slow_factor = 4.0;  ///< Slow-link threshold (x median RTT).
  ChaosScenario chaos;       ///< Empty events: plain soak.
  hw::FaultParams base_faults;  ///< Rates to restore when a storm ends.
  /// How a kill directive dies (process backends: raise(SIGKILL); default:
  /// the rank returns silently, which is the only death a thread backend
  /// can stage without taking the process with it).
  std::function<void(typename C::EndpointType&)> on_kill;
};

/// Everything a test asserts on after a soak.
struct SoakOutcome {
  RunReport report;
  std::vector<LinkSample> links;  ///< Rebuilt from the report metrics.
  LinkAnalysis analysis;
  std::uint64_t seed = 0;  ///< The effective (possibly env-injected) seed.
};

namespace detail {

// Request/echo wire format: [u32 kind][u32 round][u32 seq][u64 t_send_ns]
// then deterministic fill to payload_bytes.
constexpr std::size_t kRequestHeaderBytes = 20;
constexpr std::uint32_t kKindRequest = 0;
constexpr std::uint32_t kKindEcho = 1;

inline std::uint64_t san_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finalizer: the deterministic payload-fill pattern generator
/// (both ends recompute it from (seed, src, dst, round, seq) alone).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t fill_pattern(std::uint64_t seed, NodeId src, NodeId dst,
                                  std::uint32_t round, std::uint32_t seq) {
  return mix64(seed ^ mix64((static_cast<std::uint64_t>(src) << 48) ^
                            (static_cast<std::uint64_t>(dst) << 32) ^
                            (static_cast<std::uint64_t>(round) << 16) ^
                            seq));
}

inline std::uint8_t fill_byte(std::uint64_t pattern, std::size_t j) {
  return static_cast<std::uint8_t>(pattern >> ((j % 8) * 8)) ^
         static_cast<std::uint8_t>(j);
}

struct LinkAccum {
  std::uint64_t echoes = 0;
  std::uint64_t lost = 0;
  double rtt_sum_us = 0;
  double rtt_max_us = 0;
};

/// The per-rank FM-San counter block (registered under "san.node<id>").
struct SanCounters {
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t echoes_received = 0;
  std::uint64_t rounds_completed = 0;
  std::uint64_t links_skipped_dead = 0;
  std::uint64_t payload_mismatches = 0;
  std::uint64_t chaos_stall_rounds = 0;
  std::uint64_t chaos_fault_swaps = 0;
  std::uint64_t chaos_kills = 0;
  std::uint64_t done_markers_received = 0;
};

struct RankCtx {
  SanCounters c;
  std::vector<std::uint64_t> echoes_by_round;
  std::vector<LinkAccum> links;        // indexed by peer id
  std::vector<std::uint8_t> scratch;   // echo reply buffer
  std::vector<bool> death_seen;        // peer -> death already accounted
  std::vector<double> death_detect_us;
  std::uint64_t stall_us = 0;
  std::uint32_t next_seq = 0;
  std::vector<bool> done_from;          // peer -> its done marker arrived
};

}  // namespace detail

/// Runs the schedule on every rank of `cluster` and returns the merged
/// outcome. Registers its own handlers — call before any run() and do not
/// mix with other handler registrations on the same cluster.
template <class C>
  requires ClusterBackend<C>
SoakOutcome run_all_to_all(C& cluster, SoakParams<C> p) {
  using Endpoint = typename C::EndpointType;
  using detail::RankCtx;
  const std::size_t n = cluster.size();
  FM_CHECK_MSG(p.payload_bytes >= detail::kRequestHeaderBytes,
               "payload too small for the request header");
  FM_CHECK_MSG(p.rounds >= 1, "empty schedule");
  p.seed = effective_seed(p.seed);
  const RoundSchedule sched(n, p.rounds, p.incast_every);

  // One context per rank. shm: each thread touches only its own entry.
  // net: the vector is duplicated by fork() and each child uses its copy.
  auto ctxs = std::make_shared<std::vector<RankCtx>>(n);
  for (RankCtx& ctx : *ctxs) {
    ctx.echoes_by_round.resize(p.rounds, 0);
    ctx.links.resize(n);
    ctx.scratch.resize(p.payload_bytes);
    ctx.death_seen.resize(n, false);
    ctx.death_detect_us.resize(n, 0);
    ctx.done_from.resize(n, false);
  }

  // Echo service: flip the kind word, send the payload straight back.
  // post_send is the only legal send from handler context. The echo
  // handler id is late-bound (registered below) through a shared cell.
  auto echo_id = std::make_shared<HandlerId>(0);
  HandlerId h_req = cluster.register_handler(
      [ctxs, echo_id](Endpoint& ep, NodeId src, const void* data,
                      std::size_t len) {
        RankCtx& ctx = (*ctxs)[ep.id()];
        FM_CHECK(len <= ctx.scratch.size());
        std::memcpy(ctx.scratch.data(), data, len);
        const std::uint32_t kind_echo = detail::kKindEcho;
        std::memcpy(ctx.scratch.data(), &kind_echo, 4);
        ++ctx.c.requests_served;
        if (!ep.peer_dead(src))
          ep.post_send(src, *echo_id, ctx.scratch.data(), len);
      });
  // The requester side of the echo: account RTT + integrity per link.
  HandlerId h_echo = cluster.register_handler(
      [ctxs, p](Endpoint& ep, NodeId src, const void* data,
                std::size_t len) {
        RankCtx& ctx = (*ctxs)[ep.id()];
        std::uint32_t round = 0, seq = 0;
        std::uint64_t t_send = 0;
        std::memcpy(&round, static_cast<const std::uint8_t*>(data) + 4, 4);
        std::memcpy(&seq, static_cast<const std::uint8_t*>(data) + 8, 4);
        std::memcpy(&t_send, static_cast<const std::uint8_t*>(data) + 12, 8);
        const std::uint64_t pattern =
            detail::fill_pattern(p.seed, ep.id(), src, round, seq);
        const auto* bytes = static_cast<const std::uint8_t*>(data);
        for (std::size_t j = detail::kRequestHeaderBytes; j < len; ++j) {
          if (bytes[j] != detail::fill_byte(pattern, j)) {
            ++ctx.c.payload_mismatches;
            break;
          }
        }
        const double rtt_us =
            static_cast<double>(detail::san_now_ns() - t_send) / 1000.0;
        detail::LinkAccum& link = ctx.links[src];
        ++link.echoes;
        link.rtt_sum_us += rtt_us;
        if (rtt_us > link.rtt_max_us) link.rtt_max_us = rtt_us;
        ++ctx.c.echoes_received;
        if (round < ctx.echoes_by_round.size()) ++ctx.echoes_by_round[round];
      });
  *echo_id = h_echo;
  HandlerId h_done = cluster.register_handler(
      [ctxs](Endpoint& ep, NodeId src, const void*, std::size_t) {
        (*ctxs)[ep.id()].done_from[src] = true;
        ++(*ctxs)[ep.id()].c.done_markers_received;
      });
  // Liveness probe for the completion wait: delivery (and its ack) is the
  // whole point, so the handler does nothing.
  HandlerId h_probe = cluster.register_handler(
      [](Endpoint&, NodeId, const void*, std::size_t) {});

  SoakOutcome out;
  out.seed = p.seed;
  out.report = cluster.run([&cluster, ctxs, &p, &sched, h_req, h_done,
                            h_probe, n](Endpoint& ep) {
    const NodeId me = ep.id();
    RankCtx& ctx = (*ctxs)[me];
    obs::Registry reg("san.node" + std::to_string(me));
    reg.assert_owner();
    reg.counter("requests_sent", &ctx.c.requests_sent);
    reg.counter("requests_served", &ctx.c.requests_served);
    reg.counter("echoes_received", &ctx.c.echoes_received);
    reg.counter("rounds_completed", &ctx.c.rounds_completed);
    reg.counter("links_skipped_dead", &ctx.c.links_skipped_dead);
    reg.counter("payload_mismatches", &ctx.c.payload_mismatches);
    reg.counter("chaos_stall_rounds", &ctx.c.chaos_stall_rounds);
    reg.counter("chaos_fault_swaps", &ctx.c.chaos_fault_swaps);
    reg.counter("chaos_kills", &ctx.c.chaos_kills);
    reg.counter("done_markers_received", &ctx.c.done_markers_received);

    std::vector<std::uint8_t> buf(p.payload_bytes);
    bool stormed = false;
    hw::FaultParams storm_rates;  // rates currently applied while stormed
    for (std::size_t r = 0; r < p.rounds; ++r) {
      cluster.note_phase(me, "round " + std::to_string(r));
      const ChaosDirective d = directive_for(p.chaos, me, r);
      if (d.kill_self) {
        ++ctx.c.chaos_kills;
        if (p.on_kill) p.on_kill(ep);
        return;  // thread backends: die silently, mid-collective
      }
      ctx.stall_us = d.stall_us;
      if (d.stall_us > 0) ++ctx.c.chaos_stall_rounds;
      // Swap rates on storm start/end AND between ramp steps (a ramp is
      // consecutive storm windows whose rates escalate).
      if (d.storm_active != stormed ||
          (d.storm_active && !(d.faults == storm_rates))) {
        if (hw::FaultInjector* inj = ep.mutable_faults()) {
          inj->set_params(d.storm_active ? d.faults : p.base_faults);
          ++ctx.c.chaos_fault_swaps;
        }
        stormed = d.storm_active;
        storm_rates = d.faults;
      }

      const NodeId dst = sched.dest_of(r, me);
      std::size_t sent_ok = 0;
      const std::uint64_t t_round = detail::san_now_ns();
      if (dst != kInvalidNode && ep.peer_dead(dst)) {
        ++ctx.c.links_skipped_dead;
      } else if (dst != kInvalidNode) {
        for (std::size_t k = 0; k < p.msgs_per_round; ++k) {
          const std::uint32_t seq = ctx.next_seq++;
          const std::uint32_t round32 = static_cast<std::uint32_t>(r);
          const std::uint64_t pattern =
              detail::fill_pattern(p.seed, me, dst, round32, seq);
          const std::uint32_t kind_req = detail::kKindRequest;
          std::memcpy(buf.data(), &kind_req, 4);
          std::memcpy(buf.data() + 4, &round32, 4);
          std::memcpy(buf.data() + 8, &seq, 4);
          const std::uint64_t t_send = detail::san_now_ns();
          std::memcpy(buf.data() + 12, &t_send, 8);
          for (std::size_t j = detail::kRequestHeaderBytes;
               j < p.payload_bytes; ++j)
            buf[j] = detail::fill_byte(pattern, j);
          const Status st = ep.send(dst, h_req, buf.data(), p.payload_bytes);
          if (st == Status::kPeerDead) break;
          FM_CHECK_MSG(ok(st), "all-to-all request send failed");
          ++sent_ok;
          ++ctx.c.requests_sent;
        }
      }
      // Self-paced round completion: our echoes are home, or the peer died
      // under us (a kill scenario) and FM-R abandoned what was in flight.
      // The drain inside the poll keeps us a good citizen: acks we owe are
      // flushed, so peers' drains never stall on us.
      ep.extract_until([&] {
        if (ctx.stall_us > 0)
          std::this_thread::sleep_for(std::chrono::microseconds(ctx.stall_us));
        ep.drain();
        if (ctx.echoes_by_round[r] >= sent_ok) return true;
        return dst != kInvalidNode && ep.peer_dead(dst);
      });
      if (dst != kInvalidNode && ep.peer_dead(dst) && !ctx.death_seen[dst]) {
        ctx.death_seen[dst] = true;
        ctx.death_detect_us[dst] =
            static_cast<double>(detail::san_now_ns() - t_round) / 1000.0;
        ctx.links[dst].lost += sent_ok - ctx.echoes_by_round[r];
      }
      ++ctx.c.rounds_completed;
    }

    // Completion: done markers over FM to every live peer, then stay
    // responsive until every live peer's marker arrived (peers that die
    // late are discounted inside the predicate, not hung on). A peer can
    // ack our marker and die before sending its own (a survivor that ran
    // its rounds ahead of a lagging victim); with nothing in flight to it,
    // FM-R would never notice. So while a marker is missing, one probe per
    // retransmit timeout goes to its sender: a dead one is declared within
    // the detection horizon, a live one just acks it.
    cluster.note_phase(me, "done-markers");
    ep.drain();
    for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
      if (peer == me || ep.peer_dead(peer)) continue;
      const Status st = ep.send4(peer, h_done, 0, 0, 0, 0);
      FM_CHECK_MSG(st == Status::kPeerDead || ok(st),
                   "done marker send failed");
    }
    const std::uint64_t t_wait = detail::san_now_ns();
    std::uint64_t t_probe = t_wait;
    ep.extract_until([&] {
      ep.drain();
      const std::uint64_t now = detail::san_now_ns();
      const bool probe = ep.config().reliability &&
                         now - t_probe >= ep.config().retransmit_timeout_ns;
      if (probe) t_probe = now;
      bool waiting = false;
      for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
        if (peer == me || ctx.done_from[peer]) continue;
        if (ep.peer_dead(peer)) {
          if (!ctx.death_seen[peer]) {
            ctx.death_seen[peer] = true;
            ctx.death_detect_us[peer] =
                static_cast<double>(now - t_wait) / 1000.0;
          }
          continue;
        }
        waiting = true;
        if (probe) {
          const Status st = ep.send4(peer, h_probe, 0, 0, 0, 0);
          FM_CHECK_MSG(st == Status::kPeerDead || ok(st),
                       "liveness probe send failed");
        }
      }
      return !waiting;
    });
    ep.drain();

    // Per-link attribution, over the report() channel so it survives the
    // process boundary on the net backend.
    for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
      if (peer == me) continue;
      const detail::LinkAccum& link = ctx.links[peer];
      if (link.echoes == 0 && link.lost == 0) continue;
      cluster.report(link_metric_key(me, peer, "echoes"),
                     static_cast<double>(link.echoes));
      cluster.report(link_metric_key(me, peer, "lost"),
                     static_cast<double>(link.lost));
      if (link.echoes > 0) {
        cluster.report(link_metric_key(me, peer, "rtt_mean_us"),
                       link.rtt_sum_us / static_cast<double>(link.echoes));
        cluster.report(link_metric_key(me, peer, "rtt_max_us"),
                       link.rtt_max_us);
      }
      if (ctx.death_seen[peer])
        cluster.report(link_metric_key(me, peer, "death_detect_us"),
                       ctx.death_detect_us[peer]);
    }
    cluster.publish(reg);
    cluster.note_phase(me, "done");
    if (p.end_barrier) barrier_serviced(cluster, ep);
  });

  out.links = links_from_metrics(out.report.metrics);
  out.analysis = analyze_links(out.links, p.slow_factor);
  return out;
}

/// The bounded dead-peer detection horizon for `cfg` (one silent peer,
/// full retry budget with capped exponential backoff). Chaos tests assert
/// observed detection times stay within a small multiple of this.
inline std::uint64_t dead_peer_bound_ns(std::uint64_t retransmit_timeout_ns,
                                        std::size_t max_retries) {
  return RetransmitTimer::detection_horizon_ns(retransmit_timeout_ns,
                                               max_retries);
}

}  // namespace fm::san
