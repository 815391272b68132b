// FM-San chaos suite: the named scenarios (tests/support/scenarios.h) run
// over both real backends and the invariants must hold mid-failure —
// exactly-once delivery, sent == delivered + abandoned conservation,
// bounded dead-peer detection, and per-link isolation of the injected
// misbehaver. Every schedule derives from the effective seed (FM_SAN_SEED
// overrides; failures print it), so a red run replays bit-for-bit.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>

#include "net/cluster.h"
#include "support/backends.h"
#include "support/scenarios.h"

namespace fm {
namespace {

namespace scn = testing::scenarios;

/// The link matrix as "src>dst=mean_us" entries, for failure messages.
std::string describe_links(const std::vector<san::LinkSample>& links) {
  std::string out;
  for (const san::LinkSample& l : links)
    out += " " + std::to_string(l.src) + ">" + std::to_string(l.dst) + "=" +
           std::to_string(static_cast<long>(l.rtt_mean_us));
  return out;
}

template <class B>
class SanChaos : public ::testing::Test {};

TYPED_TEST_SUITE(SanChaos, testing::BothBackends, testing::BackendNames);

TYPED_TEST(SanChaos, KillMidCollectiveIsDetectedBoundedAndConserved) {
  const auto spec = scn::kill_rank<TypeParam>();
  ASSERT_EQ(spec.soak.chaos.events.size(), 1u);
  const NodeId victim = spec.soak.chaos.events[0].victim;
  SCOPED_TRACE(san::describe(spec.soak.chaos));

  const san::SoakOutcome out = scn::run_scenario(spec);
  EXPECT_EQ(out.seed, spec.soak.seed);
  EXPECT_FALSE(out.report.timed_out)
      << "survivors hung instead of detecting the death";

  // The victim died the backend's death; every survivor finished cleanly.
  for (const RankStatus& rs : out.report.ranks) {
    if (rs.id == victim && TypeParam::kProcessRanks) {
      EXPECT_FALSE(rs.exited) << "victim was not killed";
      EXPECT_EQ(rs.term_signal, SIGKILL);
    } else {
      EXPECT_TRUE(rs.clean()) << "rank " << rs.id;
    }
  }

  // Conservation under death: nothing materializes from nowhere, every
  // survivor independently declared exactly the victim dead, and the
  // in-flight messages were abandoned (not silently lost).
  const obs::Conservation c = out.report.conservation();
  EXPECT_TRUE(c.no_spontaneous_messages())
      << "delivered " << c.delivered << " + abandoned " << c.abandoned
      << " > sent " << c.sent;
  EXPECT_EQ(c.peers_dead, spec.nodes - 1);
  EXPECT_GT(out.report.sum_counter("messages_abandoned"), 0.0);
  EXPECT_EQ(out.report.sum_counter("payload_mismatches"), 0.0);

  // Bounded detection: each survivor's observed detection latency stays
  // within a scheduling-noise multiple of the backoff horizon.
  const double bound_us =
      static_cast<double>(san::dead_peer_bound_ns(
          spec.cfg.retransmit_timeout_ns, spec.cfg.max_retries)) /
      1000.0;
  std::size_t detections = 0;
  for (const auto& [key, value] : out.report.metrics) {
    if (key.find(".death_detect_us") == std::string::npos) continue;
    ++detections;
    EXPECT_LT(value, 20.0 * bound_us) << key;
  }
  EXPECT_EQ(detections, spec.nodes - 1)
      << "some survivor never observed the death";

  // Replay guarantee: rebuilding the spec materializes the same chaos.
  const auto replay = scn::kill_rank<TypeParam>();
  EXPECT_EQ(replay.soak.chaos, spec.soak.chaos);
}

// The victim lags through every round and dies at the start of the last
// one. Survivors, whose requests it answers at each wake-up, finish their
// rounds long before that and are waiting for its done marker after it
// acked theirs: nothing of theirs is in flight to it when it dies, so only
// the completion wait's liveness probe lets FM-R declare it dead.
TYPED_TEST(SanChaos, VictimDyingAfterPeersFinishedIsDetected) {
  auto spec = scn::kill_rank<TypeParam>();
  ASSERT_EQ(spec.soak.chaos.events.size(), 1u);
  san::ChaosEvent& kill = spec.soak.chaos.events[0];
  kill.round = spec.soak.rounds - 1;
  san::ChaosEvent lag;
  lag.kind = san::ChaosKind::kSlowReceiver;
  lag.victim = kill.victim;
  lag.duration = kill.round;
  lag.stall_us = 5000;
  spec.soak.chaos.events.push_back(lag);
  SCOPED_TRACE(san::describe(spec.soak.chaos));

  const san::SoakOutcome out = scn::run_scenario(spec);
  EXPECT_FALSE(out.report.timed_out)
      << "survivors hung waiting for a dead peer's done marker";
  for (const RankStatus& rs : out.report.ranks) {
    if (rs.id == kill.victim) continue;
    EXPECT_TRUE(rs.clean()) << "rank " << rs.id;
  }
  const obs::Conservation c = out.report.conservation();
  EXPECT_TRUE(c.no_spontaneous_messages());
  EXPECT_EQ(c.peers_dead, spec.nodes - 1);
  EXPECT_EQ(out.report.sum_counter("payload_mismatches"), 0.0);

  const double bound_us =
      static_cast<double>(san::dead_peer_bound_ns(
          spec.cfg.retransmit_timeout_ns, spec.cfg.max_retries)) /
      1000.0;
  std::size_t detections = 0;
  for (const auto& [key, value] : out.report.metrics) {
    if (key.find(".death_detect_us") == std::string::npos) continue;
    ++detections;
    EXPECT_LT(value, 20.0 * bound_us) << key;
  }
  EXPECT_EQ(detections, spec.nodes - 1)
      << "some survivor never observed the death";
}

TYPED_TEST(SanChaos, SlowReceiverIsIsolatedByPerLinkAttribution) {
  const auto spec = scn::slow_receiver<TypeParam>();
  ASSERT_EQ(spec.soak.chaos.events.size(), 1u);
  const NodeId victim = spec.soak.chaos.events[0].victim;
  SCOPED_TRACE(san::describe(spec.soak.chaos));

  const san::SoakOutcome out = scn::run_scenario(spec);
  ASSERT_TRUE(out.report.all_clean());

  // A stall is not a failure: everything still lands exactly once.
  const double sent = out.report.sum_counter("requests_sent");
  EXPECT_GT(sent, 0.0);
  EXPECT_EQ(out.report.sum_counter("echoes_received"), sent);
  EXPECT_EQ(out.report.sum_counter("payload_mismatches"), 0.0);
  const obs::Conservation c = out.report.conservation();
  EXPECT_TRUE(c.balanced()) << "imbalance " << c.imbalance();
  EXPECT_EQ(c.peers_dead, 0u) << "a stalled rank was declared dead";

  // The point of the exercise: the link matrix singles out the victim.
  EXPECT_GT(out.report.sum_counter("chaos_stall_rounds"), 0.0);
  EXPECT_TRUE(out.analysis.rank_is_slow(victim))
      << "victim " << victim << " not isolated; median rtt "
      << out.analysis.median_rtt_us << " us, " << out.analysis.slow_links.size()
      << " slow link(s); mean rtt us:" << describe_links(out.links);
}

TYPED_TEST(SanChaos, PacketStormRecoversToExactlyOnce) {
  const auto spec = scn::packet_storm<TypeParam>();
  SCOPED_TRACE(san::describe(spec.soak.chaos));

  const san::SoakOutcome out = scn::run_scenario(spec);
  ASSERT_TRUE(out.report.all_clean());

  const double sent = out.report.sum_counter("requests_sent");
  EXPECT_GT(sent, 0.0);
  EXPECT_EQ(out.report.sum_counter("echoes_received"), sent);
  EXPECT_EQ(out.report.sum_counter("payload_mismatches"), 0.0);
  const obs::Conservation c = out.report.conservation();
  EXPECT_TRUE(c.balanced()) << "imbalance " << c.imbalance();
  EXPECT_EQ(c.peers_dead, 0u) << "storm loss read as a dead peer";

  // The storm actually bit (FM-R had work to do) and every rank swapped
  // rates up at the window start and back down at its end.
  EXPECT_GT(out.report.sum_counter("retransmit_timeouts"), 0.0);
  EXPECT_EQ(out.report.sum_counter("chaos_fault_swaps"),
            2.0 * static_cast<double>(spec.nodes));
}

TYPED_TEST(SanChaos, FaultRampEscalatesAndRecovers) {
  const auto spec = scn::fault_ramp<TypeParam>();
  SCOPED_TRACE(san::describe(spec.soak.chaos));
  const std::size_t steps = spec.soak.chaos.events.size();
  ASSERT_GE(steps, 2u);

  const san::SoakOutcome out = scn::run_scenario(spec);
  ASSERT_TRUE(out.report.all_clean());

  const double sent = out.report.sum_counter("requests_sent");
  EXPECT_GT(sent, 0.0);
  EXPECT_EQ(out.report.sum_counter("echoes_received"), sent);
  EXPECT_EQ(out.report.sum_counter("payload_mismatches"), 0.0);
  const obs::Conservation c = out.report.conservation();
  EXPECT_TRUE(c.balanced()) << "imbalance " << c.imbalance();
  EXPECT_EQ(c.peers_dead, 0u);

  // One swap per staircase boundary per rank: on, each escalation, off.
  EXPECT_EQ(out.report.sum_counter("chaos_fault_swaps"),
            static_cast<double>((steps + 1) * spec.nodes));
}

TEST(SanChaosReplay, EnvSeedRebuildsTheExactScenario) {
  ASSERT_EQ(setenv("FM_SAN_SEED", "424242", 1), 0);
  const auto a = scn::kill_rank<testing::ShmBackend>();
  const auto b = scn::kill_rank<testing::ShmBackend>();
  ASSERT_EQ(unsetenv("FM_SAN_SEED"), 0);
  EXPECT_EQ(a.soak.seed, 424242u);
  EXPECT_EQ(a.soak.chaos.seed, 424242u);
  EXPECT_EQ(a.soak.chaos, b.soak.chaos)
      << "same seed, different schedule: replay is broken";
}

TEST(NetWatchdog, EnvDeadlineFiresAndReportsWhereRanksWereStuck) {
  // The run deadline is env-tunable without a rebuild, and when it fires
  // the report says which phase (and which barrier) every rank was last
  // seen in — the difference between "CI timed out" and a diagnosis.
  ASSERT_EQ(setenv("FM_NET_WATCHDOG_MS", "500", 1), 0);
  net::NetConfig nc;  // default deadline is minutes: the env must win
  FmConfig fc;
  fc.reliability = true;  // the net backend requires FM-R
  net::Cluster cluster(3, fc, nc, hw::FaultParams());
  ASSERT_EQ(unsetenv("FM_NET_WATCHDOG_MS"), 0);

  const auto t0 = std::chrono::steady_clock::now();
  RunReport r = cluster.run([&cluster](net::Endpoint& ep) {
    cluster.note_phase(ep.id(), "wedged-on-purpose");
    if (ep.id() != 0) {
      cluster.barrier();  // parks forever: rank 0 never arrives
    } else {
      std::this_thread::sleep_for(std::chrono::seconds(30));
    }
  });
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.all_clean());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20)
      << "FM_NET_WATCHDOG_MS did not shorten the default deadline";
  ASSERT_EQ(r.ranks.size(), 3u);
  for (const RankStatus& rs : r.ranks) {
    EXPECT_EQ(rs.last_phase, "wedged-on-purpose") << "rank " << rs.id;
    EXPECT_EQ(rs.barriers_seen, rs.id == 0 ? 0u : 1u) << "rank " << rs.id;
  }
}

}  // namespace
}  // namespace fm
