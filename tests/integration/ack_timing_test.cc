// When acknowledgements leave, over every real-transport backend.
//
// A receiver owes one ack per accepted frame. Up to piggyback_acks of them
// ride on each data frame it sends back; once a peer is owed the batch
// threshold (min(ack_batch, max(1, limit / 2))), the next extract() pass
// sends the rest as a standalone ack at its entry flush, after the replies
// and calls made since had their chance to carry them. drain() still
// flushes everything owed. These tests pin that timing: a pipelined echo
// piggybacks every ack, a pure receiver keeps its senders moving without a
// single retransmission timeout, and acks flagged in a rank's last pass
// still leave with its drain().
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "support/backends.h"

namespace fm {
namespace {

template <class B>
class AckTiming : public ::testing::Test {};

TYPED_TEST_SUITE(AckTiming, testing::BothBackends, testing::BackendNames);

// The value of this endpoint's FM-Scope gauge `name` (e.g. "acks.due").
template <class Endpoint>
double gauge(Endpoint& ep, const std::string& name) {
  obs::Registry& reg = ep.registry();
  reg.assert_owner();
  for (const obs::Sample& s : reg.snapshot())
    if (s.name == reg.scope() + "." + name) return s.value;
  ADD_FAILURE() << "no gauge " << name;
  return -1;
}

TYPED_TEST(AckTiming, PipelinedEchoPiggybacksEveryAck) {
  using Endpoint = typename TypeParam::Endpoint;
  constexpr std::uint32_t kCalls = 4000;
  constexpr std::uint32_t kInflight = 32;
  FmConfig cfg;
  cfg.reliability = true;
  // No timeout may fire on a loaded host: a retransmission's duplicate is
  // re-acked standalone, by design.
  cfg.retransmit_timeout_ns = 100'000'000;
  auto cluster = TypeParam::make(2, cfg);
  std::array<std::uint32_t, 2> got{};  // indexed by rank
  HandlerId reply = cluster->register_handler(
      [&](Endpoint& ep, NodeId, const void*, std::size_t) { ++got[ep.id()]; });
  HandlerId echo = cluster->register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, sizeof w);
        ++got[ep.id()];
        ep.post_send4(src, reply, w[0], w[1], w[2], w[3]);
      });
  RunReport r = TypeParam::run(*cluster, [&](Endpoint& ep) {
    if (ep.id() == 1) {
      // The client keeps kInflight calls outstanding; every call it issues
      // carries the acks for the replies that freed its slot.
      std::uint32_t issued = 0;
      for (;;) {
        while (issued < kCalls && issued - got[1] < kInflight) {
          ASSERT_TRUE(ok(ep.send4(0, echo, issued, 0, 0, 0)));
          ++issued;
        }
        if (issued == kCalls) break;
        ep.extract();
      }
    } else {
      // The shard replies to every call it delivers, in the same pass.
      ep.extract_until([&] { return got[0] >= kCalls; });
    }
    // Steady state over (the client's tail replies are still to come): no
    // standalone ack went out, and every ack owed so far either rode on a
    // data frame or is still owed.
    const auto& s = ep.stats();
    EXPECT_EQ(s.acks_standalone, 0u) << "rank " << ep.id();
    EXPECT_EQ(s.duplicates_suppressed, 0u) << "rank " << ep.id();
    EXPECT_EQ(static_cast<double>(s.acks_piggybacked) + gauge(ep, "acks.due"),
              static_cast<double>(s.messages_delivered))
        << "rank " << ep.id();
    EXPECT_GT(s.acks_piggybacked, 0u) << "rank " << ep.id();
    if (ep.id() == 0) {
      EXPECT_EQ(s.acks_piggybacked, s.messages_delivered);
    }
    ep.extract_until([&] { return ep.id() == 0 || got[1] >= kCalls; });
    ep.drain();
    barrier_serviced(*cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced()) << "sent=" << k.sent << " delivered=" << k.delivered
                            << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("messages_delivered"), 2.0 * kCalls);
}

// A sender streams 8 windows of messages into a rank that sends nothing
// back, so every ack it gets is a standalone one.
template <class B>
void stream_into_pure_receiver(bool window_mode) {
  using Endpoint = typename B::Endpoint;
  FmConfig cfg;
  cfg.reliability = true;
  cfg.window_mode = window_mode;
  // Generous against scheduling noise, yet far shorter than the run: a
  // receiver that left its senders waiting on owed acks would show here.
  cfg.retransmit_timeout_ns = 20'000'000;
  const std::uint32_t msgs =
      static_cast<std::uint32_t>(8 * cfg.pending_window);
  auto cluster = B::make(2, cfg);
  std::vector<int> seen(msgs, 0);
  std::uint32_t got = 0;
  HandlerId h = cluster->register_handler(
      [&](Endpoint&, NodeId, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, sizeof w);
        ASSERT_LT(w[0], msgs);
        EXPECT_EQ(w[1], ~w[0]);
        ++seen[w[0]];
        ++got;
      });
  RunReport r = B::run(*cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (std::uint32_t m = 0; m < msgs; ++m)
        ASSERT_TRUE(ok(ep.send4(1, h, m, ~m, 0, 0)));
    } else {
      ep.extract_until([&] { return got >= msgs; });
      for (std::uint32_t m = 0; m < msgs; ++m)
        EXPECT_EQ(seen[m], 1) << "message " << m;
      EXPECT_GT(ep.stats().acks_standalone, 0u);
    }
    ep.drain();
    EXPECT_EQ(ep.unacked(), 0u);
    barrier_serviced(*cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced()) << "sent=" << k.sent << " delivered=" << k.delivered
                            << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("messages_delivered"), static_cast<double>(msgs));
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
  // The net backend may lose datagrams in the kernel; shm never does, so
  // there every ack arrived before any timer could fire.
  if (!B::kProcessRanks) {
    EXPECT_EQ(r.sum_counter("retransmit_timeouts"), 0.0);
  }
}

TYPED_TEST(AckTiming, PureReceiverKeepsTheSenderMoving) {
  stream_into_pure_receiver<TypeParam>(/*window_mode=*/false);
}

TYPED_TEST(AckTiming, PureReceiverKeepsAWindowModeSenderMoving) {
  stream_into_pure_receiver<TypeParam>(/*window_mode=*/true);
}

TYPED_TEST(AckTiming, DrainFlushesAcksOwedFromTheLastPass) {
  using Endpoint = typename TypeParam::Endpoint;
  FmConfig cfg;
  cfg.reliability = true;
  // A short detection horizon: if the receiver's drain() left the flagged
  // acks owed, the sender's drain ends in a dead-peer verdict, not a hang.
  cfg.retransmit_timeout_ns = 200'000'000;
  cfg.max_retries = 3;
  // Exactly the batch threshold: the pass that delivers the last message
  // flags the acks for the next pass, which never comes before drain().
  const std::uint32_t burst = static_cast<std::uint32_t>(
      std::min(cfg.ack_batch, cfg.pending_window / 2));
  auto cluster = TypeParam::make(2, cfg);
  std::uint32_t got = 0;
  HandlerId h = cluster->register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++got; });
  RunReport r = TypeParam::run(*cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (std::uint32_t m = 0; m < burst; ++m)
        ASSERT_TRUE(ok(ep.send4(1, h, m, 0, 0, 0)));
      ep.drain();
      EXPECT_EQ(ep.unacked(), 0u);
      EXPECT_EQ(ep.stats().retransmit_timeouts, 0u);
      EXPECT_EQ(ep.stats().peers_dead, 0u);
    } else {
      ep.extract_until([&] { return got >= burst; });
      // The acks are owed and flagged, but no pass has flushed them yet.
      EXPECT_EQ(ep.stats().acks_standalone, 0u);
      EXPECT_EQ(gauge(ep, "acks.due"), static_cast<double>(burst));
      ep.drain();
      EXPECT_EQ(gauge(ep, "acks.due"), 0.0);
      EXPECT_GT(ep.stats().acks_standalone, 0u);
    }
    // A parking barrier: the receiver extracts nothing more, so only its
    // drain() can have released the sender's window.
    cluster->barrier();
  });
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.sum_counter("messages_delivered"), static_cast<double>(burst));
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
}

}  // namespace
}  // namespace fm
