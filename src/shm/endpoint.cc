#include "shm/endpoint.h"

#include <algorithm>
#include <string>
#include <thread>

#include "shm/cluster.h"

template class fm::ProtocolEngine<fm::shm::Endpoint>;

namespace fm::shm {

Endpoint::Endpoint(Cluster& cluster, NodeId id, std::size_t nodes,
                   const FmConfig& cfg, const hw::FaultParams& faults)
    : ProtocolEngine("shm.node" + std::to_string(id), id, nodes, cfg, faults),
      cluster_(cluster),
      registry_(trace_.scope()) {
  // Construction happens on the cluster's setup thread before any node
  // thread exists, so this context owns the registry.
  registry_.assert_owner();
  register_metrics(registry_);
  // Occupancy of the SPSC rings that stand in for the wire. The gauges use
  // size_approx(), whose racy-snapshot contract (clamped, possibly stale)
  // is exactly right for monitoring; protocol decisions never read it.
  registry_.gauge("q.tx_rings_depth", [this, id] {
    double n = 0;
    for (NodeId dst = 0; dst < cluster_size(); ++dst)
      if (dst != id)
        n += static_cast<double>(cluster_.ring(id, dst).size_approx());
    return n;
  });
  registry_.gauge("q.rx_rings_depth", [this, id] {
    double n = 0;
    for (NodeId src = 0; src < cluster_size(); ++src)
      if (src != id)
        n += static_cast<double>(cluster_.ring(src, id).size_approx());
    return n;
  });
}

void Endpoint::idle_pause() { std::this_thread::yield(); }

void Endpoint::push(NodeId dest, const std::uint8_t* frame, std::size_t len,
                    std::uint32_t window_seq, bool nonblocking) {
  SpscRing& ring = cluster_.ring(id(), dest);
  // This endpoint is, by cluster construction, the only writer of its
  // outgoing rings: claim the producer side for the ownership analysis.
  ring.assert_producer();
  // A full ring is backpressure: keep servicing our own receive side while
  // waiting so two nodes blasting each other cannot deadlock.
  while (!ring.try_push(frame, len)) {
    // Nonblocking pushes drop on backpressure instead: the caller holds a
    // retained copy (FM-R) and must not spin here — notably the tick's
    // retransmissions, where the nested extract below cannot escalate the
    // very timers whose expiry is the only way out of a dead peer's
    // permanently full ring.
    if (nonblocking) return;
    if (extract() == 0) idle_pause();
    if (push_moot(dest, window_seq, frame)) return;
  }
}

std::size_t Endpoint::poll_rx() {
  std::size_t count = 0;
  // Round-robin over every incoming ring, draining bursts. Frames are
  // processed *in place* in their ring slots, up to kExtractBatch per
  // cross-core head publish — the paper's receive aggregation, plus the
  // copy into a local scratch buffer eliminated. Sound only because
  // process_frame() never re-enters extract(); the transmissions it
  // provokes are injected between batches, when the consumed slots are
  // published and the ring is consistent again.
  for (NodeId src = 0; src < cluster_size(); ++src) {
    if (src == id()) continue;
    SpscRing& ring = cluster_.ring(src, id());
    // Mirror of push(): we are the only consumer of our incoming rings.
    ring.assert_consumer();
    // Bounded drain: a producer refilling as fast as we consume must not
    // trap this loop and starve the post-RX retransmission/ack work.
    std::size_t budget = ring.capacity();
    while (budget > 0) {
      const std::size_t got = ring.try_consume_batch(
          std::min(budget, kExtractBatch),
          [&](const std::uint8_t* frame, std::size_t len) {
            process_frame(src, frame, len);
          });
      if (got == 0) break;
      count += got;
      budget -= got;
      flush_deferred_tx();
    }
  }
  return count;
}

}  // namespace fm::shm
