// FM-R liveness guard, on every real-transport backend: a retry budget
// exhausted against a peer we are still hearing from is congestion, not
// death.
//
// Two ranks stream to each other while rank 0's outbound frames (data and
// acks alike) drop at 90 %. With a small max_retries almost every one of
// rank 0's frames, and many of rank 1's (whose acks travel the lossy way),
// strikes out its retry budget. Both peers are plainly alive — each keeps
// receiving the other's frames — so neither may declare the other dead,
// and every message must still arrive exactly once. Without the guard the
// first exhausted budget kills the peer, abandons its traffic, and breaks
// this test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "support/backends.h"

namespace fm {
namespace {

template <class B>
class LivenessGuard : public ::testing::Test {};

TYPED_TEST_SUITE(LivenessGuard, testing::BothBackends, testing::BackendNames);

TYPED_TEST(LivenessGuard, OneWayLossIsCongestionNotDeath) {
  using Endpoint = typename TypeParam::Endpoint;
  constexpr std::uint32_t kMsgs = 200;
  FmConfig cfg;
  cfg.reliability = true;
  cfg.crc_frames = true;
  cfg.retransmit_timeout_ns = 2'000'000;  // 2 ms of wall time
  cfg.max_retries = 3;                    // 0.9^4: most budgets run out
  hw::FaultParams lossy;
  lossy.drop_rate = 0.9;
  auto cluster = TypeParam::make(2, cfg, lossy);
  // Indexed by rank so the shm threads never share a row; each net rank
  // touches only its own copy-on-write copy.
  std::array<std::array<int, kMsgs>, 2> delivered{};
  HandlerId h = cluster->register_handler(
      [&](Endpoint& ep, NodeId, const void* data, std::size_t len) {
        ASSERT_EQ(len, sizeof(std::uint32_t));
        std::uint32_t tag;
        std::memcpy(&tag, data, sizeof tag);
        ASSERT_LT(tag, kMsgs);
        ++delivered[ep.id()][tag];
      });
  RunReport r = TypeParam::run(*cluster, [&](Endpoint& ep) {
    const NodeId peer = 1 - ep.id();
    // Faults were enabled cluster-wide; only rank 0's direction stays lossy.
    if (ep.id() == 1) ep.mutable_faults()->set_params(hw::FaultParams{});
    // Bounded waits: a false death must fail the test, not hang it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    auto settled = [&] {
      const auto& mine = delivered[ep.id()];
      return ep.peer_dead(peer) ||
             std::chrono::steady_clock::now() > deadline ||
             std::all_of(mine.begin(), mine.end(),
                         [](int n) { return n > 0; });
    };
    for (std::uint32_t m = 0; m < kMsgs && !ep.peer_dead(peer); ++m) {
      const Status s = ep.send(peer, h, &m, sizeof m);
      EXPECT_TRUE(ok(s)) << "send " << m << " to " << peer;
      ep.extract();
    }
    ep.extract_until(settled);
    EXPECT_FALSE(ep.peer_dead(peer)) << "rank " << ep.id();
    // Every message arrived: lift the loss so the final acks settle and
    // conservation can be checked on a quiescent cluster.
    if (ep.id() == 0) ep.mutable_faults()->set_params(hw::FaultParams{});
    ep.drain();
    barrier_serviced(*cluster, ep);
    EXPECT_FALSE(ep.peer_dead(peer)) << "rank " << ep.id();
    for (std::uint32_t m = 0; m < kMsgs; ++m)
      EXPECT_EQ(delivered[ep.id()][m], 1)
          << "message " << m << " at rank " << ep.id();
  });
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced()) << "sent=" << k.sent << " delivered="
                            << k.delivered << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("messages_delivered"), 2.0 * kMsgs);
  // The loss really did exhaust budgets: timeouts fired on both sides.
  EXPECT_GT(r.sum_counter("retransmit_timeouts"), 0.0);
}

}  // namespace
}  // namespace fm
