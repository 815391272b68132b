// FM-Burst coverage: the batched socket paths (sendmmsg/recvmmsg), their
// partial-outcome contract under backpressure, the GSO capability probe's
// graceful fallback, the shared SO_RXQ_OVFL delta accounting, and the
// batched endpoint keeping FM's exactly-once semantics when the kernel
// takes only part of a burst.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fm/frame.h"
#include "net/cluster.h"
#include "net/socket.h"
#include "support/backends.h"

namespace fm::net {
namespace {

// ---------------------------------------------------------------------------
// RxqDropMeter: the one place cumulative SO_RXQ_OVFL readings become a
// monotone total (recv_one and recv_batch both feed it).
// ---------------------------------------------------------------------------

TEST(RxqDropMeter, FirstReadingIsTheAbsoluteCount) {
  // The kernel counter starts at zero with the socket, so the first
  // observation IS the total so far — no "baseline" special case.
  RxqDropMeter m;
  EXPECT_EQ(m.total(), 0u);
  m.feed(7);
  EXPECT_EQ(m.total(), 7u);
}

TEST(RxqDropMeter, RepeatedAndGrowingReadingsAccumulateDeltas) {
  RxqDropMeter m;
  m.feed(3);
  m.feed(3);  // no new drops attached to this datagram
  EXPECT_EQ(m.total(), 3u);
  m.feed(10);
  EXPECT_EQ(m.total(), 10u);
  m.feed(11);
  EXPECT_EQ(m.total(), 11u);
}

TEST(RxqDropMeter, SurvivesU32Wraparound) {
  RxqDropMeter m;
  m.feed(0xFFFFFFF0u);
  EXPECT_EQ(m.total(), 0xFFFFFFF0ull);
  // The kernel's u32 wrapped: 0xFFFFFFF0 -> 5 is 21 more drops, not a
  // negative delta.
  m.feed(5);
  EXPECT_EQ(m.total(), 0xFFFFFFF0ull + 21u);
}

// ---------------------------------------------------------------------------
// Socket-level batch paths (two raw sockets, no cluster, one process).
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> pattern_frame(std::uint8_t tag, std::size_t len) {
  std::vector<std::uint8_t> f(len);
  f[0] = tag;
  for (std::size_t i = 1; i < len; ++i)
    f[i] = static_cast<std::uint8_t>(tag * 31 + i);
  return f;
}

/// Drains `rx` until `want` datagrams arrived (or a timeout), returning
/// tag -> payload for each (GRO trains split by gro_seg_len).
std::map<std::uint8_t, std::vector<std::uint8_t>> drain_frames(
    UdpSocket& rx, std::size_t want) {
  std::map<std::uint8_t, std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> slab(UdpSocket::kMaxBatch * 65536);
  UdpSocket::RxMsg msgs[UdpSocket::kMaxBatch];
  std::size_t frames = 0;
  for (int spins = 0; frames < want && spins < 200; ++spins) {
    const std::size_t m = rx.recv_batch(slab.data(), 65536,
                                        UdpSocket::kMaxBatch, msgs);
    if (m == 0) {
      (void)rx.wait_readable(50);
      continue;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint8_t* base = slab.data() + i * 65536;
      const std::size_t seg = msgs[i].gro_seg_len ? msgs[i].gro_seg_len
                                                  : msgs[i].len;
      for (std::size_t off = 0; off < msgs[i].len; off += seg) {
        const std::size_t flen = std::min<std::size_t>(seg, msgs[i].len - off);
        got[base[off]] = std::vector<std::uint8_t>(base + off,
                                                   base + off + flen);
        ++frames;
      }
    }
  }
  return got;
}

TEST(UdpSocketBatch, SendBatchRecvBatchRoundtrip) {
  UdpSocket tx_sock, rx_sock;
  const sockaddr_in dst = UdpSocket::loopback_addr(rx_sock.port());
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<UdpSocket::TxFrame> tx;
  for (std::uint8_t i = 0; i < 10; ++i) {
    frames.push_back(pattern_frame(i, 32 + i * 7u));
    tx.push_back({frames.back().data(),
                  static_cast<std::uint32_t>(frames.back().size()), &dst});
  }
  const UdpSocket::BatchResult r = tx_sock.send_batch(tx.data(), tx.size());
  EXPECT_EQ(r.consumed, 10u);
  EXPECT_EQ(r.sent, 10u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_FALSE(r.would_block);
#ifdef __linux__
  EXPECT_EQ(r.syscalls, 1u) << "10 frames should cost one sendmmsg";
#endif
  const auto got = drain_frames(rx_sock, 10);
  ASSERT_EQ(got.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(got.at(i), frames[i]);
}

TEST(UdpSocketBatch, ShortCountMidBurstLosesNothingSendsNothingTwice) {
  UdpSocket tx_sock, rx_sock;
  // Every 4th send attempt reports transient backpressure once — forcing
  // sendmmsg short counts mid-burst, the exact partial outcome the
  // BatchResult ownership contract is about.
  tx_sock.set_debug_wouldblock_every(4);
  const sockaddr_in dst = UdpSocket::loopback_addr(rx_sock.port());
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<UdpSocket::TxFrame> tx;
  for (std::uint8_t i = 0; i < 10; ++i) {
    frames.push_back(pattern_frame(i, 48));
    tx.push_back({frames.back().data(),
                  static_cast<std::uint32_t>(frames.back().size()), &dst});
  }
  // Caller-side retry loop: frames [consumed, n) stayed ours; resend
  // exactly those, never the consumed prefix.
  std::size_t offset = 0;
  std::size_t blocks = 0;
  for (int rounds = 0; offset < tx.size() && rounds < 100; ++rounds) {
    const UdpSocket::BatchResult r =
        tx_sock.send_batch(tx.data() + offset, tx.size() - offset);
    EXPECT_EQ(r.consumed, r.sent);  // no hard errors on loopback
    offset += r.consumed;
    if (r.would_block) {
      ++blocks;
      EXPECT_LT(offset, tx.size());
    }
  }
  EXPECT_EQ(offset, tx.size());
  EXPECT_GT(blocks, 0u) << "the hook should have forced short counts";
  // Exactly one copy of every frame arrives: nothing lost to the short
  // counts, nothing double-sent by the retries.
  const auto got = drain_frames(rx_sock, 10);
  ASSERT_EQ(got.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(got.at(i), frames[i]);
  EXPECT_FALSE(rx_sock.wait_readable(50)) << "a duplicate datagram arrived";
}

TEST(UdpSocketBatch, HardErrorIsTheLastDatagramConsumed) {
  // A datagram to port 0 is refused synchronously (EINVAL): a real hard
  // per-datagram error. send_batch must end the call at it, so the
  // datagrams a call sent are exactly a prefix of what it consumed, and
  // the caller's next call carries the rest. The endpoint's batch_tx_frames
  // sums per-slot frame counts over that prefix.
  UdpSocket tx_sock, rx_sock;
  const sockaddr_in live = UdpSocket::loopback_addr(rx_sock.port());
  const sockaddr_in refused = UdpSocket::loopback_addr(0);
  const bool kRefused[] = {true, false, false, true, false, false};
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<UdpSocket::TxFrame> tx;
  for (std::uint8_t i = 0; i < 6; ++i) frames.push_back(pattern_frame(i, 40));
  for (std::uint8_t i = 0; i < 6; ++i)
    tx.push_back({frames[i].data(), static_cast<std::uint32_t>(40),
                  kRefused[i] ? &refused : &live});
  // A refused head is consumed alone.
  const UdpSocket::BatchResult first = tx_sock.send_batch(tx.data(), 6);
  EXPECT_EQ(first.consumed, 1u);
  EXPECT_EQ(first.sent, 0u);
  EXPECT_EQ(first.errors, 1u);
  EXPECT_FALSE(first.would_block);
  std::size_t offset = first.consumed, sent = 0, errors = first.errors;
  for (int rounds = 0; offset < tx.size() && rounds < 20; ++rounds) {
    const UdpSocket::BatchResult r =
        tx_sock.send_batch(tx.data() + offset, tx.size() - offset);
    EXPECT_EQ(r.consumed, r.sent + r.errors);
    EXPECT_LE(r.errors, 1u);
    for (std::size_t i = 0; i < r.sent; ++i)
      EXPECT_FALSE(kRefused[offset + i]) << "a refused datagram counted sent";
    if (r.errors == 1) EXPECT_TRUE(kRefused[offset + r.consumed - 1]);
    offset += r.consumed;
    sent += r.sent;
    errors += r.errors;
  }
  EXPECT_EQ(offset, tx.size());
  EXPECT_EQ(sent, 4u);
  EXPECT_EQ(errors, 2u);
  // Every live datagram arrives exactly once.
  const auto got = drain_frames(rx_sock, 4);
  ASSERT_EQ(got.size(), 4u);
  for (std::uint8_t i : {1, 2, 4, 5}) EXPECT_EQ(got.at(i), frames[i]);
  EXPECT_FALSE(rx_sock.wait_readable(50)) << "a duplicate datagram arrived";

  // A refused datagram behind live ones: sendmmsg sends the live prefix
  // and returns a short count with the error dropped. The retried tail
  // surfaces it as a hard error in the same call. It must not read as
  // backpressure: flush_tx_batch counts an ewouldblock_stall exactly when
  // would_block is set, and stops flushing.
  // live, live, refused
  const UdpSocket::TxFrame tail[] = {tx[1], tx[2], tx[3]};
  const UdpSocket::BatchResult r = tx_sock.send_batch(tail, 3);
  EXPECT_EQ(r.consumed, 3u);
  EXPECT_EQ(r.sent, 2u);
  EXPECT_EQ(r.errors, 1u);
  EXPECT_FALSE(r.would_block);
#ifdef __linux__
  EXPECT_EQ(r.syscalls, 2u) << "the short count should be retried once";
#endif
  const auto again = drain_frames(rx_sock, 2);
  ASSERT_EQ(again.size(), 2u);
  for (std::uint8_t i : {1, 2}) EXPECT_EQ(again.at(i), frames[i]);
}

TEST(UdpSocketBatch, ForcedGsoUnsupportedDisablesProbeAndGro) {
  // The capability-probe test for the graceful fallback path: a socket
  // that "failed" the UDP_SEGMENT probe must refuse GRO too, and the
  // endpoint layer (covered below) must fall back to plain sendmmsg.
  UdpSocket s;
  s.force_gso_unsupported();
  EXPECT_FALSE(s.gso_supported());
  EXPECT_FALSE(s.enable_gro());
}

TEST(UdpSocketBatch, GsoTrainArrivesIntactWhereSupported) {
  UdpSocket tx_sock, rx_sock;
  if (!tx_sock.gso_supported())
    GTEST_SKIP() << "kernel lacks UDP_SEGMENT; fallback path covered above";
  ASSERT_TRUE(rx_sock.enable_gro());
  const sockaddr_in dst = UdpSocket::loopback_addr(rx_sock.port());
  // 6 equal-size frames as ONE datagram train (the frames are separate
  // buffers; the kernel linearizes the iovec and segments every 96 bytes).
  std::vector<std::vector<std::uint8_t>> frames;
  iovec iov[6];
  for (std::uint8_t i = 0; i < 6; ++i) {
    frames.push_back(pattern_frame(i, 96));
    iov[i] = {frames.back().data(), frames.back().size()};
  }
  ASSERT_EQ(tx_sock.send_gso(dst, iov, 6, 96), UdpSocket::SendResult::kOk);
  // The receiver sees either one GRO-coalesced buffer (gro_seg_len 96) or
  // six plain datagrams, depending on how the kernel routed the loopback
  // train — drain_frames handles both shapes, and content must match
  // either way.
  const auto got = drain_frames(rx_sock, 6);
  ASSERT_EQ(got.size(), 6u);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(got.at(i), frames[i]);
}

TEST(UdpSocketBatch, GsoFailAfterHookFailsLaterTrainsOnly) {
  UdpSocket tx_sock, rx_sock;
  if (!tx_sock.gso_supported())
    GTEST_SKIP() << "kernel lacks UDP_SEGMENT; fallback path covered above";
  tx_sock.set_debug_gso_fail_after(1);
  const sockaddr_in dst = UdpSocket::loopback_addr(rx_sock.port());
  std::vector<std::vector<std::uint8_t>> frames;
  iovec iov[2];
  for (std::uint8_t i = 0; i < 2; ++i) {
    frames.push_back(pattern_frame(i, 96));
    iov[i] = {frames.back().data(), frames.back().size()};
  }
  // The probe passed and the first live train goes through...
  EXPECT_EQ(tx_sock.send_gso(dst, iov, 2, 96), UdpSocket::SendResult::kOk);
  // ...then the "kernel" starts refusing trains for good, not transiently.
  EXPECT_EQ(tx_sock.send_gso(dst, iov, 2, 96), UdpSocket::SendResult::kError);
  EXPECT_EQ(tx_sock.send_gso(dst, iov, 2, 96), UdpSocket::SendResult::kError);
}

// ---------------------------------------------------------------------------
// Endpoint-level: the batched steady state under forced partial bursts.
// ---------------------------------------------------------------------------

TEST(NetBatch, ForcedBackpressureKeepsExactlyOnceOverBatchedPath) {
  constexpr int kMsgs = 300;
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  NetConfig nc;
  nc.tx_batch = 1;
  // Every 5th datagram send attempt blocks once: every flush tears
  // mid-burst, exercising the staged-tail retry path continuously.
  nc.debug_wouldblock_every = 5;
  Cluster cluster(2, cfg, nc);
  std::vector<int> seen(kMsgs, 0);
  int got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, 16);
        ASSERT_LT(w[0], static_cast<std::uint32_t>(kMsgs));
        EXPECT_EQ(w[1], w[0] ^ 0xA5A5A5A5u);
        ++seen[w[0]];
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    EXPECT_TRUE(ep.batching());
    if (ep.id() == 0) {
      for (int m = 0; m < kMsgs; ++m) {
        const auto u = static_cast<std::uint32_t>(m);
        ASSERT_TRUE(ok(ep.send4(1, h, u, u ^ 0xA5A5A5A5u, 0, 0)));
        if ((m & 7) == 7) ep.extract();
      }
    } else {
      ep.extract_until([&] { return got >= kMsgs; });
      for (int m = 0; m < kMsgs; ++m) EXPECT_EQ(seen[m], 1) << "tag " << m;
    }
    ep.drain();
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced())
      << "sent=" << k.sent << " delivered=" << k.delivered
      << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
  // The run really exercised the partial-burst machinery.
  EXPECT_GT(r.sum_counter("batch_tx_frames"), 0.0);
  EXPECT_GT(r.sum_counter("ewouldblock_stalls"), 0.0);
}

TEST(NetBatch, ModeMatrixDeliversAndCountsCoherently) {
  // One shape of traffic through the four transport modes; each mode must
  // deliver identically and light up exactly its own counters.
  struct Mode {
    const char* name;
    int tx_batch;
    int gso;
    long busy_poll_us;
    bool force_no_gso;
  };
  const Mode kModes[] = {
      {"baseline", 0, 0, 0, false},
      {"batch", 1, 0, 0, false},
      {"batch_gso", 1, 1, 0, false},
      {"batch_gso_fallback", 1, 1, 0, true},
      {"batch_busypoll", 1, 0, 200, false},
  };
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    constexpr int kMsgs = 200;
    FmConfig cfg = testing::NetBackend::adapt(FmConfig());
    NetConfig nc;
    nc.tx_batch = mode.tx_batch;
    nc.gso = mode.gso;
    nc.busy_poll_spin_us = mode.busy_poll_us;
    nc.debug_force_no_gso = mode.force_no_gso;
    Cluster cluster(2, cfg, nc);
    int got = 0;
    HandlerId h = cluster.register_handler(
        [&](Endpoint&, NodeId, const void*, std::size_t len) {
          EXPECT_EQ(len, 64u);
          ++got;
        });
    RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
      EXPECT_EQ(ep.batching(), mode.tx_batch != 0);
      if (mode.force_no_gso) EXPECT_FALSE(ep.gso_active());
      cluster.report("rank" + std::to_string(ep.id()) + ".gso_active",
                     ep.gso_active() ? 1.0 : 0.0);
      std::uint8_t buf[64] = {1, 2, 3};
      if (ep.id() == 0) {
        for (int m = 0; m < kMsgs; ++m) {
          ASSERT_TRUE(ok(ep.send(1, h, buf, sizeof buf)));
          if ((m & 15) == 15) ep.extract();
        }
      } else {
        ep.extract_until([&] { return got >= kMsgs; });
      }
      ep.drain();
      if (::testing::Test::HasFailure()) cluster.mark_child_failed();
      fm::barrier_serviced(cluster, ep);
    });
    EXPECT_FALSE(r.timed_out);
    for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
    EXPECT_TRUE(r.conservation().balanced());
    EXPECT_EQ(r.sum_counter("messages_delivered"),
              static_cast<double>(kMsgs));
    if (mode.tx_batch == 0) {
      EXPECT_EQ(r.sum_counter("batch_tx_frames"), 0.0);
      EXPECT_EQ(r.sum_counter("batch_syscalls"), 0.0);
    } else {
      EXPECT_GT(r.sum_counter("batch_tx_frames"), 0.0);
      EXPECT_GT(r.sum_counter("batch_syscalls"), 0.0);
    }
    if (mode.force_no_gso || mode.gso == 0)
      EXPECT_EQ(r.sum_counter("gso_segments"), 0.0);
    // Batched without GSO (asked off, refused by the probe, or forced
    // off), frames for one peer pack into shared datagrams. Single-shot
    // and GSO trains keep one frame per datagram.
    const bool gso = r.metrics["rank0.gso_active"] != 0.0;
    const double frames_tx = r.sum_counter("frames_sent");
    const double frames_rx = r.sum_counter("frames_received");
    EXPECT_EQ(r.sum_counter("stray_datagrams"), 0.0);
    if (mode.tx_batch != 0 && !gso) {
      EXPECT_LT(r.sum_counter("datagrams_tx"), frames_tx)
          << "no datagram carried more than one frame";
      EXPECT_LT(r.sum_counter("datagrams_rx"), frames_rx);
      // Counting datagrams, batch_tx_frames could never exceed
      // datagrams_tx; counting the frames packed in them, it does.
      EXPECT_GT(r.sum_counter("batch_tx_frames"),
                r.sum_counter("datagrams_tx"));
    } else {
      EXPECT_EQ(r.sum_counter("datagrams_rx"), frames_rx);
    }
  }
}

TEST(NetBatch, GsoMidRunFailureFallsBackWithoutLosingATrain) {
  // A kernel that accepts the UDP_SEGMENT probe but EIO/EINVALs a live
  // train mid-run: the endpoint must keep the refused train staged, drop
  // to single-shot for the rest of the run, and deliver every message
  // exactly once WITHOUT burning a send error (the old code discarded the
  // whole train and made FM-R re-earn up to kMaxBatch frames).
  {
    UdpSocket probe;
    if (!probe.gso_supported())
      GTEST_SKIP() << "kernel lacks UDP_SEGMENT; probe-fallback covered above";
  }
  constexpr int kMsgs = 300;
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  NetConfig nc;
  nc.tx_batch = 1;
  nc.gso = 1;
  // One train is allowed out (proving GSO really engaged), then every
  // later train fails hard.
  nc.debug_gso_fail_after = 1;
  Cluster cluster(2, cfg, nc);
  std::vector<int> seen(kMsgs, 0);
  int got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, 16);
        ASSERT_LT(w[0], static_cast<std::uint32_t>(kMsgs));
        ++seen[w[0]];
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      EXPECT_TRUE(ep.gso_active()) << "probe passed; GSO should start on";
      for (int m = 0; m < kMsgs; ++m) {
        const auto u = static_cast<std::uint32_t>(m);
        ASSERT_TRUE(ok(ep.send4(1, h, u, u, 0, 0)));
        if ((m & 7) == 7) ep.extract();
      }
      ep.drain();
      EXPECT_FALSE(ep.gso_active())
          << "the forced mid-run failure should have disabled GSO";
      EXPECT_GT(ep.gso_fallbacks(), 0u);
    } else {
      ep.extract_until([&] { return got >= kMsgs; });
      for (int m = 0; m < kMsgs; ++m) EXPECT_EQ(seen[m], 1) << "tag " << m;
      ep.drain();
    }
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
  EXPECT_TRUE(r.conservation().balanced());
  EXPECT_EQ(r.sum_counter("messages_delivered"), static_cast<double>(kMsgs));
  // The heart of the fix: the refused train was resent from staging, not
  // discarded — so nothing was "lost on the wire" and no retransmission
  // was needed to repair a local decision.
  EXPECT_EQ(r.sum_counter("send_errors"), 0.0);
  EXPECT_GT(r.sum_counter("gso_fallbacks"), 0.0);
  EXPECT_GT(r.sum_counter("gso_segments"), 0.0)
      << "exactly one train should have gone out before the failure";
}

TEST(NetBatch, InterleavedDestinationsNeverShareADatagram) {
  // Rank 0 interleaves sends to ranks 1 and 2 in runs of 1, 2, 3 and 5
  // frames, so packing must both join each run into shared datagrams and
  // close a datagram at every change of destination. Each message names
  // the rank it is for: a datagram that mixed destinations would deliver
  // the other rank's frames here.
  constexpr std::uint32_t kPerPeer = 300;
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  NetConfig nc;
  nc.tx_batch = 1;
  nc.gso = 0;
  Cluster cluster(3, cfg, nc);
  std::vector<int> seen(kPerPeer, 0);
  std::uint32_t got = 0, expect_next = 0, misrouted = 0, out_of_order = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        EXPECT_EQ(src, 0u);
        std::uint32_t w[4];
        std::memcpy(w, data, 16);
        if (w[0] != ep.id()) {
          ++misrouted;
          return;
        }
        ASSERT_LT(w[1], kPerPeer);
        EXPECT_EQ(w[2], w[1] * 5 + w[0]);
        if (w[1] != expect_next) ++out_of_order;
        expect_next = w[1] + 1;
        ++seen[w[1]];
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    EXPECT_FALSE(ep.gso_active());
    if (ep.id() == 0) {
      constexpr std::uint32_t kRuns[] = {1, 2, 3, 5};
      std::uint32_t next[3] = {0, 0, 0};
      NodeId dest = 1;
      for (std::size_t run = 0; next[1] < kPerPeer || next[2] < kPerPeer;
           ++run, dest = 3 - dest) {
        for (std::uint32_t i = 0; i < kRuns[run % 4] && next[dest] < kPerPeer;
             ++i) {
          const std::uint32_t m = next[dest]++;
          ASSERT_TRUE(ok(ep.send4(dest, h, dest, m, m * 5 + dest, 0)));
        }
        if ((run & 3) == 3) ep.extract();
      }
    } else {
      ep.extract_until([&] { return got >= kPerPeer; });
      for (std::uint32_t m = 0; m < kPerPeer; ++m)
        EXPECT_EQ(seen[m], 1) << "rank " << ep.id() << " tag " << m;
      EXPECT_EQ(misrouted, 0u) << "rank " << ep.id();
      cluster.report("rank" + std::to_string(ep.id()) + ".out_of_order",
                     out_of_order);
    }
    ep.drain();
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
  EXPECT_TRUE(r.conservation().balanced());
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
  EXPECT_EQ(r.sum_counter("messages_delivered"), 2.0 * kPerPeer);
  EXPECT_EQ(r.sum_counter("stray_datagrams"), 0.0);
  EXPECT_EQ(r.sum_counter("malformed_frames"), 0.0);
  // The runs really were packed.
  EXPECT_LT(r.sum_counter("node0.datagrams_tx"),
            r.sum_counter("node0.frames_sent"));
  // FM promises no ordering once a frame is retransmitted or bounced
  // (docs/PROTOCOL.md §4). Without either, loopback UDP keeps each socket
  // pair in order, and packing must keep a datagram's frames in send
  // order too.
  if (r.sum_counter("retransmissions") == 0 &&
      r.sum_counter("rejects_issued") == 0) {
    EXPECT_EQ(r.metrics["rank1.out_of_order"], 0.0);
    EXPECT_EQ(r.metrics["rank2.out_of_order"], 0.0);
  }
}

/// The descriptor of the inherited socket bound to `addr`'s port: lets a
/// rank write raw datagrams from its own address, which the receiver maps
/// to that rank. -1 when there is none.
int socket_fd_bound_to(const sockaddr_in& addr) {
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_in sa{};
    socklen_t n = sizeof sa;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &n) == 0 &&
        sa.sin_family == AF_INET && sa.sin_port == addr.sin_port)
      return fd;
  }
  return -1;
}

/// A CRC data frame for `handler`, with `len` payload bytes and `acks`
/// acks, whose bytes from frame offset `at` on are overwritten with
/// `plant` before the CRC is computed.
std::vector<std::uint8_t> carrier_frame(HandlerId handler, std::uint32_t seq,
                                        std::uint16_t len, std::uint8_t acks,
                                        std::size_t at,
                                        const std::vector<std::uint8_t>& plant) {
  FrameHeader h;
  h.handler = handler;
  h.seq = seq;
  h.payload_len = len;
  h.ack_count = acks;
  h.flags = FrameHeader::kFlagCrc;
  std::vector<std::uint8_t> body(len + 4u * acks, 0xEE);
  std::copy(plant.begin(), plant.end(),
            body.begin() + (at - FrameHeader::kBaseBytes));
  std::vector<std::uint32_t> ack(acks);
  if (acks) std::memcpy(ack.data(), body.data() + len, 4u * acks);
  return encode_frame(h, body.data(), ack.data());
}

TEST(NetBatch, CorruptLengthNeverDeliversTheBytesAfterIt) {
  // Rank 0 writes three crafted datagrams from its own socket. In each, a
  // one-bit flip in a CRC frame's length field (payload_len, ack_count, or
  // the CRC flag) moves the next frame boundary onto a planted, valid,
  // CRC-less data frame for a trap handler. The receiver must drop the
  // corrupt frame and the rest of the datagram: nothing reaches the trap.
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  ASSERT_TRUE(cfg.crc_frames);
  Cluster cluster(2, cfg);
  int trapped = 0;
  HandlerId trap = cluster.register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++trapped; });
  FrameHeader ph;
  ph.handler = trap;
  ph.seq = 0x7777;
  ph.payload_len = 4;
  const std::uint8_t boom[4] = {'b', 'o', 'o', 'm'};
  const std::vector<std::uint8_t> plant = encode_frame(ph, boom, nullptr);
  std::vector<std::vector<std::uint8_t>> datagrams;
  // payload_len 96 -> 32: the boundary moves to 16 + 32 + 4, in the payload.
  datagrams.push_back(carrier_frame(trap, 0x40000001, 96, 0, 52, plant));
  datagrams.back()[12] = 32;
  // ack_count 14 -> 6: the boundary moves to 16 + 16 + 24 + 4, in the acks.
  datagrams.push_back(carrier_frame(trap, 0x40000002, 16, 14, 60, plant));
  datagrams.back()[1] = 6;
  // CRC flag cleared: the frame would pass unchecked, 4 bytes short.
  datagrams.push_back(carrier_frame(trap, 0x40000003, 16, 0, 16, {}));
  datagrams.back()[14] &= static_cast<std::uint8_t>(~FrameHeader::kFlagCrc);
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      const int fd = socket_fd_bound_to(cluster.addr(0));
      ASSERT_GE(fd, 0);
      for (const auto& d : datagrams)
        ASSERT_EQ(::sendto(fd, d.data(), d.size(), 0,
                           reinterpret_cast<const sockaddr*>(&cluster.addr(1)),
                           sizeof(sockaddr_in)),
                  static_cast<ssize_t>(d.size()));
    } else {
      // Two frames per datagram: the corrupt one and the remainder.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ep.stats().frames_received < 6 &&
             std::chrono::steady_clock::now() < deadline)
        if (ep.extract() == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_EQ(ep.stats().frames_received, 6u);
      EXPECT_EQ(ep.stats().crc_drops, 2u);
      EXPECT_EQ(ep.stats().malformed_frames, 4u);
      EXPECT_EQ(ep.stats().messages_delivered, 0u);
      EXPECT_EQ(trapped, 0);
    }
    ep.drain();
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
  EXPECT_EQ(r.sum_counter("stray_datagrams"), 0.0);
}

TEST(NetBatch, PackedBurstsSurviveBackpressureAndKernelDrops) {
  // Packed datagrams through both failure shapes at once: the forced
  // every-5th EWOULDBLOCK tears each flush mid-burst, and two senders
  // pouring segmented messages into one 2 KB receive buffer make the
  // kernel drop datagrams. A drop now loses every frame packed in the
  // datagram; FM-R must still recover each one exactly once.
  constexpr std::uint32_t kMsgs = 200;  // per sender
  constexpr std::size_t kNodes = 3;
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  cfg.retransmit_timeout_ns = 2'000'000;  // 2 ms
  cfg.max_retries = 30;  // heavy loss must never read as a dead peer
  // Above the backed-off retransmission horizon (see NetSoak).
  cfg.reassembly_ttl_ns = 20'000'000'000ull;
  NetConfig nc;
  nc.tx_batch = 1;
  nc.gso = 0;
  nc.debug_wouldblock_every = 5;
  nc.so_rcvbuf = 2048;  // the kernel clamps to its floor — still tiny
  nc.run_timeout_ns = 90'000'000'000ull;
  Cluster cluster(kNodes, cfg, nc);
  // Message m is 1 to 4 frames long, filled from its sender and tag.
  auto msg_len = [](std::uint32_t m) -> std::size_t {
    return 8 + (m % 4) * 130;
  };
  auto fill = [](NodeId src, std::uint32_t m, std::size_t i) {
    return static_cast<std::uint8_t>(src * 77 + m * 13 + i);
  };
  std::map<std::pair<NodeId, std::uint32_t>, int> seen;
  std::uint32_t got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId src, const void* data, std::size_t len) {
        ASSERT_GE(len, 8u);
        std::uint32_t m;
        std::memcpy(&m, data, 4);
        ASSERT_LT(m, kMsgs);
        ASSERT_EQ(len, msg_len(m));
        const auto* p = static_cast<const std::uint8_t*>(data);
        for (std::size_t i = 4; i < len; ++i)
          ASSERT_EQ(p[i], fill(src, m, i)) << "byte " << i;
        ++seen[{src, m}];
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() != 0) {
      std::vector<std::uint8_t> buf(msg_len(3));
      for (std::uint32_t m = 0; m < kMsgs; ++m) {
        std::memcpy(buf.data(), &m, 4);
        for (std::size_t i = 4; i < msg_len(m); ++i)
          buf[i] = fill(ep.id(), m, i);
        ASSERT_TRUE(ok(ep.send(0, h, buf.data(), msg_len(m))));
        if ((m & 7) == 7) ep.extract();
      }
    } else {
      ep.extract_until([&] { return got >= 2 * kMsgs; });
      for (const auto& [key, count] : seen)
        EXPECT_EQ(count, 1) << "src " << key.first << " tag " << key.second;
      EXPECT_EQ(seen.size(), 2u * kMsgs);
    }
    ep.drain();
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced())
      << "sent=" << k.sent << " delivered=" << k.delivered
      << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
  EXPECT_EQ(r.sum_counter("messages_delivered"), 2.0 * kMsgs);
  EXPECT_EQ(r.sum_counter("malformed_frames"), 0.0);
  // Both failure paths really ran, on packed datagrams: counting one
  // frame per datagram, batch_tx_frames could not exceed datagrams_tx.
  EXPECT_GT(r.sum_counter("node1.batch_tx_frames") +
                r.sum_counter("node2.batch_tx_frames"),
            r.sum_counter("node1.datagrams_tx") +
                r.sum_counter("node2.datagrams_tx"));
  EXPECT_GT(r.sum_counter("ewouldblock_stalls"), 0.0);
  EXPECT_GT(r.sum_counter("retransmit_timeouts"), 0.0);
#ifdef SO_RXQ_OVFL
  EXPECT_GT(r.sum_counter("kernel_drops"), 0.0)
      << "the tiny receive buffer should have forced real kernel drops";
#endif
}

TEST(NetBatch, PureReceiverPacksItsRejectsAndAcks) {
  // An incast: two senders pour eight-frame messages into rank 0, whose
  // reassembly pool holds only a few, through a tiny receive buffer. Rank 0
  // sends nothing of its own, so every frame it sends is a reject or a
  // standalone ack — frames outside the send window. They stage and pack
  // like data, several to a datagram, instead of one datagram each.
  constexpr std::uint32_t kMsgs = 100;  // per sender
  constexpr std::size_t kLen = 8 * kFmFramePayload - 24;  // eight frames
  constexpr std::size_t kNodes = 3;
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  cfg.reassembly_slots = 4;
  cfg.retransmit_timeout_ns = 2'000'000;  // 2 ms
  cfg.max_retries = 30;  // heavy loss must never read as a dead peer
  // Above the backed-off retransmission horizon (see NetSoak).
  cfg.reassembly_ttl_ns = 20'000'000'000ull;
  NetConfig nc;
  nc.tx_batch = 1;
  nc.gso = 0;
  nc.so_rcvbuf = 2048;  // the kernel clamps to its floor — still tiny
  nc.run_timeout_ns = 90'000'000'000ull;
  Cluster cluster(kNodes, cfg, nc);
  std::map<std::pair<NodeId, std::uint32_t>, int> seen;
  std::uint32_t got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId src, const void* data, std::size_t len) {
        ASSERT_EQ(len, kLen);
        std::uint32_t m;
        std::memcpy(&m, data, 4);
        ASSERT_LT(m, kMsgs);
        const auto* p = static_cast<const std::uint8_t*>(data);
        for (std::size_t i = 4; i < len; ++i)
          ASSERT_EQ(p[i], static_cast<std::uint8_t>(src + m + i));
        ++seen[{src, m}];
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() != 0) {
      std::vector<std::uint8_t> buf(kLen);
      for (std::uint32_t m = 0; m < kMsgs; ++m) {
        std::memcpy(buf.data(), &m, 4);
        for (std::size_t i = 4; i < kLen; ++i)
          buf[i] = static_cast<std::uint8_t>(ep.id() + m + i);
        ASSERT_TRUE(ok(ep.send(0, h, buf.data(), kLen)));
      }
    } else {
      ep.extract_until([&] { return got >= 2 * kMsgs; });
      for (const auto& [key, count] : seen)
        EXPECT_EQ(count, 1) << "src " << key.first << " tag " << key.second;
      EXPECT_EQ(seen.size(), 2u * kMsgs);
    }
    ep.drain();
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  for (const auto& rank : r.ranks) EXPECT_TRUE(rank.clean());
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced())
      << "sent=" << k.sent << " delivered=" << k.delivered
      << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("peers_dead"), 0.0);
  EXPECT_EQ(r.sum_counter("messages_delivered"), 2.0 * kMsgs);
  EXPECT_EQ(r.sum_counter("node0.messages_sent"), 0.0);
  const double rejects = r.sum_counter("node0.rejects_issued");
  const double acks = r.sum_counter("node0.acks_standalone");
  EXPECT_GT(rejects, 0.0) << "the small reassembly pool should reject";
  EXPECT_LT(r.sum_counter("node0.datagrams_tx"), rejects + acks);
}

TEST(NetBatch, BusyPollSpinCatchesALateArrival) {
  // Deterministic busy-poll coverage: the receiver goes idle BEFORE the
  // sender fires, with a spin budget (10ms) far larger than the message's
  // flight time — the arrival must land inside the spin, not in poll().
  FmConfig cfg = testing::NetBackend::adapt(FmConfig());
  NetConfig nc;
  nc.tx_batch = 1;
  nc.busy_poll_spin_us = 10'000;
  Cluster cluster(2, cfg, nc);
  int got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++got; });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ASSERT_TRUE(ok(ep.send4(1, h, 1, 2, 3, 4)));
    } else {
      ep.extract_until([&] { return got >= 1; });
    }
    ep.drain();
    if (::testing::Test::HasFailure()) cluster.mark_child_failed();
    fm::barrier_serviced(cluster, ep);
  });
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.conservation().balanced());
  EXPECT_GT(r.sum_counter("busy_poll_hits"), 0.0)
      << "the idle receiver should have caught the datagram mid-spin";
}

}  // namespace
}  // namespace fm::net
