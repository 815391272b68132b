// Helpers shared by the FM-Serve test binaries: stopping shard loops over
// FM, the end-of-test shutdown ritual, and the echo payload pattern. They
// work on every backend in support/backends.h.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "fm/cluster_runner.h"
#include "obs/registry.h"

namespace fm::testing {

/// Per-rank halt flags: the client bumps a shard's slot over FM when the
/// test traffic is done, so shard loops terminate without any shared-memory
/// assumption (each net rank sees only its own forked copy — which is
/// exactly the slot its own handler bumps).
struct HaltFlags {
  std::array<std::atomic<std::uint32_t>, 8> n{};
};

template <class E>
void send_halt(E& ep, HandlerId halt_id, NodeId dest) {
  while (ep.send4(dest, halt_id, 0, 0, 0, 0) == Status::kAgain) ep.extract();
}

/// The common shutdown ritual (mirrors bench/serve_loadgen): a serviced
/// barrier so every rank is done issuing, a drain to flush tail acks, the
/// engine registry published into the RunReport, and a final barrier so no
/// rank destroys its engine while a peer still needs its acks.
template <class C, class E>
void shutdown_ritual(C& c, E& ep, const obs::Registry& reg) {
  barrier_serviced(c, ep);
  ep.drain();
  c.publish(reg);
  barrier_serviced(c, ep);
}

inline std::uint8_t pat(std::uint64_t cookie, std::size_t j) {
  return static_cast<std::uint8_t>(cookie * 31 + j * 7 + 1);
}

}  // namespace fm::testing
