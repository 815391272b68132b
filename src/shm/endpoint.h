// shm::Endpoint — the FM API over shared memory, for real.
//
// The simulated endpoint reproduces the paper's *numbers*; this endpoint
// runs the same protocol (fm::ProtocolEngine, fm/engine.h) between OS
// threads over lock-free SPSC rings, moving real bytes. It is what a
// downstream user of this library links against to get FM semantics on a
// modern shared-memory machine — the closest commodity stand-in for the
// paper's Myrinet testbed available here (see DESIGN.md's substitution
// table).
//
// This class is only the transport: pushing a frame into the destination's
// ring (spinning on a full one while servicing our own receive side), and
// draining the incoming rings in place. The rings are lossless, so a
// malformed frame is a protocol bug unless fault injection is on.
#pragma once

#include <cstdint>

#include "common/annotate.h"
#include "common/types.h"
#include "fm/config.h"
#include "fm/engine.h"
#include "hw/fault.h"
#include "obs/registry.h"
#include "shm/spsc_ring.h"

namespace fm::shm {

class Cluster;

/// One node of the shared-memory FM cluster.
class Endpoint final : public ProtocolEngine<Endpoint> {
 private:
  friend class Cluster;
  friend class ProtocolEngine<Endpoint>;
  Endpoint(Cluster& cluster, NodeId id, std::size_t nodes, const FmConfig& cfg,
           const hw::FaultParams& faults);

  // Frames consumed from a ring per head publish: the shm analogue of the
  // paper's receive aggregation (one cross-core index update amortized over
  // a burst), kept modest so a blocked producer sees freed slots promptly.
  static constexpr std::size_t kExtractBatch = 32;
  static constexpr bool kLossless = true;

  // Transport hooks (see fm/engine.h). `nonblocking` turns a full
  // destination ring into a silent drop instead of a backpressure spin.
  FM_HOT_PATH void push(NodeId dest, const std::uint8_t* frame,
                        std::size_t len, std::uint32_t window_seq,
                        bool nonblocking);
  FM_HOT_PATH std::size_t poll_rx();
  FM_HOT_PATH void flush_tx() {}
  FM_HOT_PATH bool tx_idle() const { return true; }
  // The explicit idle primitive: yielding is the one "blocking" act the
  // steady state is allowed, and only when there was no work at all.
  FM_COLD_PATH void idle_pause();

  Cluster& cluster_;
  // Declared last on purpose: the registry's gauges reference the members
  // above (and the engine's), so it must be destroyed first.
  obs::Registry registry_;
};

}  // namespace fm::shm

extern template class fm::ProtocolEngine<fm::shm::Endpoint>;
