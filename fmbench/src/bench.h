// FM-Bench shared definitions: options, core assignment, the results arena
// and the workload entry points.
//
// One benchmark process runs one workload as a series of legs; each leg
// builds a fresh two-rank cluster, so set-up is measured once per leg.
// Ranks are threads (shm) or forked processes (net); both write their
// results into one MAP_SHARED arena mapped before the cluster exists, which
// is how a forked rank's histograms and spans reach the parent without
// touching the library's control plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "hist.h"
#include "trace.h"

namespace fmbench {

inline constexpr int kRanks = 2;
inline constexpr int kLegs = 20;  // legs per mode (untraced, traced)
inline constexpr std::uint32_t kRawCap = 1u << 15;  // raw spans kept per rank
inline constexpr std::size_t kOpSlots = 4096;  // > any in-flight op count
inline constexpr int kNumStatus = static_cast<int>(fm::Status::kCancelled) + 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t corrupt_every = 0;  // self-test: corrupt every Nth echo
  std::string spans_path;
  std::string source_id = "unknown";
};

/// Cores from sched_getaffinity: one per rank, plus one for the harness
/// thread (the shm main thread / the net control-plane parent).
struct Cores {
  std::vector<int> allowed;
  int rank[kRanks] = {0, 0};
  int harness = 0;
};

/// Registry counters read at the edges of the timed window and after the
/// final drain. Matched by name suffix across the endpoint registry
/// ("shm.node<i>." / "net.node<i>.") and serve's ("serve.node<i>.").
enum Counter : int {
  kFramesSent,
  kMessagesSent,
  kMessagesDelivered,
  kMessagesAbandoned,
  kAcksPiggybacked,
  kAcksStandalone,
  kRejectsReceived,
  kRetransmissions,
  kDuplicatesSuppressed,
  kKernelDrops,
  kEwouldblockStalls,
  kBatchTxFrames,
  kBatchSyscalls,
  kCallsShedRemote,
  kCallsDeadline,
  kOooParked,
  kNumCounters
};

inline constexpr const char* kCounterName[kNumCounters] = {
    "frames_sent",      "messages_sent",     "messages_delivered",
    "messages_abandoned", "acks_piggybacked", "acks_standalone",
    "rejects_received", "retransmissions",   "duplicates_suppressed",
    "kernel_drops",     "ewouldblock_stalls", "batch_tx_frames",
    "batch_syscalls",   "calls_shed_remote", "calls_deadline",
    "ooo_parked"};

/// What one rank accumulates over all legs of one mode (traced or not).
/// Cache-line aligned: the two ranks write their blocks concurrently.
struct alignas(64) RankAcc {
  // Ops and checks (whole run, every phase).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t failed_status[kNumStatus] = {};  // of those: serve
                                                // completions, by status
  std::uint64_t refused = 0;  // serve: call() refused locally
  // Timed window.
  std::uint64_t window_ns = 0;
  double counters[kNumCounters] = {};   // registry deltas over the window
  double totals[kNumCounters] = {};     // cumulative after the final drain
  std::uint64_t cpu_ns = 0;             // getrusage user+sys over the window
  std::uint64_t vol_csw = 0;
  std::uint64_t invol_csw = 0;
  long max_rss_kb = 0;
  LogHist lat;         // end-to-end latency of in-window ops
  LogHist req_path;    // serve: issue -> method start
  LogHist reply_path;  // serve: method end -> completion
  SpanStats spans[kNumSpans];
  std::uint32_t raw_len = 0;
};

/// Per-leg figures. The driver writes set-up and window; each rank writes
/// the completions it counted into its own slot.
struct LegOut {
  std::uint64_t setup_ns = 0;
  std::uint64_t window_ns = 0;
  std::uint64_t ops[kRanks] = {};
  std::uint64_t bytes[kRanks] = {};

  std::uint64_t total_ops() const { return ops[0] + ops[1]; }
  std::uint64_t total_bytes() const { return bytes[0] + bytes[1]; }
};

enum Phase : int { kSetup, kWarm, kMeasure, kStop, kDone };

/// The MAP_SHARED results arena. Fields written during a leg by one rank
/// and read by the other sit on cache lines of their own, so the benchmark's
/// bookkeeping never shares a line with the hot path it measures.
struct Shared {
  // Leg control, reset by the harness before each leg; written only at
  // phase changes, read on every op.
  alignas(64) std::atomic<int> phase{kSetup};
  std::atomic<std::uint64_t> window_start{0};
  std::atomic<std::uint64_t> window_end{0};
  std::atomic<std::uint64_t> setup_start{0};
  // stream: messages the sender sent / the receiver saw exactly once.
  alignas(64) std::atomic<std::uint64_t> sent_total{0};
  alignas(64) std::atomic<std::uint64_t> delivered{0};
  alignas(64) std::atomic<std::uint64_t> method_done[kOpSlots];  // traced serve
  // Results, indexed [mode][...] with mode 1 = traced.
  RankAcc acc[2][kRanks];
  LegOut legs[2][kLegs];
  RawSpan raw[kRanks][kRawCap];
};

/// Runs one leg of `o.workload`. Returns false when a rank did not exit
/// cleanly.
bool run_leg(const Options& o, const Cores& cores, Shared& sh, bool traced,
             int leg);

bool known_workload(const std::string& w);

/// Pins the calling thread to `cpu`.
void pin_to(int cpu);

}  // namespace fmbench
