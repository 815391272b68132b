// fm::ProtocolEngine — the FM protocol, written once, over any transport.
//
// FM is one thin protocol layer: frames, return-to-sender, piggybacked
// acks, segmentation, and (opt-in) FM-R reliability. The paper runs that
// one layer over whatever moves the bytes; so do we. This engine owns the
// whole public FM surface and every piece of protocol state (send window,
// ack tracker, reassembler, reject queue, retransmit timer, dedup filter,
// dead-peer set, credits, posted-send queue, scratch buffers, statistics,
// the shared FM-Scope gauges and trace categories). A transport is the
// narrow channel beneath it — MPICH2's CH3-over-channel split (Liu et al.,
// PAPERS.md); its contract is documented on the class below.
//
// Threading: each endpoint belongs to exactly one thread (FM was
// single-threaded per node too). Handlers run inside extract() on the
// owning thread; a handler that wants to communicate uses post_send*().
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/annotate.h"
#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "fm/cluster_runner.h"
#include "fm/config.h"
#include "fm/frame.h"
#include "fm/handler_registry.h"
#include "fm/protocol.h"
#include "hw/fault.h"
#include "obs/counters.h"
#include "obs/registry.h"
#include "obs/trace_ring.h"

namespace fm {

/// The FM endpoint surface over `Transport`, which derives from it (CRTP)
/// and supplies only:
///
///   push(dest, frame, len, window_seq, nonblocking)
///       Moves one wire frame toward `dest`. A blocking push services the
///       receive side (extract()) while it waits and gives up once
///       push_moot() says the frame no longer needs sending; a nonblocking
///       push drops on backpressure instead (only FM-R retains a copy).
///   poll_rx()
///       Drains a bounded burst of received frames, handing each to
///       process_frame() (a datagram of packed frames to process_packed()),
///       and calls flush_deferred_tx() once the frames it
///       processed in place are consumed (its pushes can nest extract(),
///       which reuses the receive buffers); returns how many frames came
///       from known peers.
///   flush_tx() / tx_idle()
///       Sends anything the transport staged / says nothing is staged.
///   idle_pause()
///       The transport's one blocking act, taken only when a pass found no
///       work at all.
///   kLossless
///       True when the substrate never garbles a frame by itself: a
///       malformed frame is then a protocol bug (FM_CHECK) unless fault
///       injection is on. Otherwise it is weather and only counted.
///   registry_
///       The FM-Scope registry ("<backend>.node<id>"), declared last in the
///       transport so it is destroyed before anything its gauges read; the
///       transport calls register_metrics() on it, then adds its own
///       counters and gauges.
///
/// The binding is static: handlers receive the transport's Endpoint& and no
/// per-frame call goes through a virtual function. Each transport declares
/// `extern template` for its instantiation and defines it in its own .cc,
/// so the protocol code is compiled once per backend.
template <typename Transport>
class ProtocolEngine {
 public:
  using Handler = typename HandlerRegistry<Transport>::Fn;

  /// Layer statistics: the FM-Scope shared counter block — one definition
  /// for every backend (fm::SimEndpoint uses the same alias), registered by
  /// name into the endpoint's registry().
  using Stats = obs::EndpointCounters;

  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  /// Registers a handler (identically on every node, before Cluster::run).
  HandlerId register_handler(Handler fn) {
    return handlers_.add(std::move(fn));
  }

  /// FM_send_4.
  FM_HOT_PATH Status send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                           std::uint32_t w1, std::uint32_t w2,
                           std::uint32_t w3) {
    std::uint32_t words[4] = {w0, w1, w2, w3};
    return send(dest, handler, words, sizeof words);
  }
  /// FM_send (segments beyond one frame).
  FM_HOT_PATH Status send(NodeId dest, HandlerId handler, const void* buf,
                          std::size_t len);
  /// FM_extract: processes currently deliverable frames; returns count.
  FM_HOT_PATH std::size_t extract();
  /// Extracts until `pred()` holds, taking the transport's idle pause
  /// whenever a pass found nothing (on net that parks on the socket).
  template <typename Pred>
  void extract_until(Pred&& pred) {
    while (!pred()) {
      if (extract() == 0) self().idle_pause();
    }
  }
  /// Extracts until all outstanding frames are acknowledged and the reject
  /// queue is empty; flushes owed acks so peers can drain too.
  void drain();

  /// Posted sends (the only legal way to send from handler context).
  FM_HOT_PATH void post_send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                              std::uint32_t w1, std::uint32_t w2,
                              std::uint32_t w3) {
    std::uint32_t words[4] = {w0, w1, w2, w3};
    post_send(dest, handler, words, sizeof words);
  }
  FM_HOT_PATH void post_send(NodeId dest, HandlerId handler, const void* buf,
                             std::size_t len) {
    post_send2(dest, handler, buf, len, nullptr, 0);
  }
  /// Two-part posted send (header + body gathered into one message): spares
  /// layered protocols the intermediate buffer that stitching the parts
  /// together before posting would need — the body is copied once, from its
  /// source straight into the posted payload.
  FM_HOT_PATH void post_send2(NodeId dest, HandlerId handler, const void* hdr,
                              std::size_t hdr_len, const void* body,
                              std::size_t body_len);

  /// Registers (or, with an empty fn, clears) the receive-side deposit sink
  /// for fragmented messages bound for `hid` — see DepositSinkFn
  /// (fm/protocol.h). One sink per endpoint; the layered protocol that owns
  /// `hid` must clear it before it is destroyed.
  void set_deposit_sink(HandlerId hid, DepositSinkFn fn) {
    deposit_hid_ = fn ? hid : kInvalidHandler;
    deposit_sink_ = std::move(fn);
  }

  /// Context-aware send for layered protocols whose code runs both from
  /// application context and from handler context: sends immediately when
  /// legal, otherwise posts (injected when the running extract() finishes).
  Status send_or_post(NodeId dest, HandlerId handler, const void* buf,
                      std::size_t len) {
    if (!in_handler_) return send(dest, handler, buf, len);
    if (dest >= cluster_size() || !handlers_.valid(handler))
      return Status::kBadArgument;
    post_send(dest, handler, buf, len);
    return Status::kOk;
  }

  /// This node's id / cluster size.
  NodeId id() const { return id_; }
  std::size_t cluster_size() const { return nodes_; }

  /// Outstanding unacknowledged frames.
  FM_HOT_PATH std::size_t unacked() const { return window_.in_flight(); }
  /// Frames parked for retransmission.
  std::size_t reject_queue_depth() const { return rejq_.size(); }
  /// True when FM-R declared `peer` dead (sends to it fail immediately).
  bool peer_dead(NodeId peer) const { return dead_peers_.count(peer) > 0; }
  const Stats& stats() const { return stats_; }
  const FmConfig& config() const { return cfg_; }
  /// This endpoint's sender-side fault source (null when faults are off).
  const hw::FaultInjector* faults() const { return faults_.get(); }
  /// Mutable fault source for mid-run rate changes (FM-San chaos storms /
  /// ramps). Only the endpoint's owning thread (or forked rank) may call
  /// set_params() on it.
  hw::FaultInjector* mutable_faults() { return faults_.get(); }
  /// FM-Scope registry ("<backend>.node<id>"): every Stats field as a
  /// named counter plus queue occupancy gauges and the transport's own.
  /// Sample from the owning thread, or after the cluster run returned.
  obs::Registry& registry() { return self().registry_; }
  const obs::Registry& registry() const { return self().registry_; }
  /// FM-Scope trace ring. Disabled by default (one branch per hot-path
  /// event site); trace_ring().enable(n) starts the flight recorder —
  /// still allocation-free on the hot path (the alloc tests enforce it).
  obs::TraceRing& trace_ring() { return trace_; }
  const obs::TraceRing& trace_ring() const { return trace_; }

 protected:
  // `scope` names this node's FM-Scope objects ("shm.node3"); `nodes` is
  // the cluster size (the cluster's endpoint list is still filling while
  // endpoints construct, so it is passed explicitly).
  ProtocolEngine(std::string scope, NodeId id, std::size_t nodes,
                 const FmConfig& cfg, const hw::FaultParams& faults);
  ~ProtocolEngine() = default;

  /// Registers every Stats field and the protocol-state gauges into the
  /// transport's registry (called from the transport's constructor).
  void register_metrics(obs::Registry& reg);

  /// One received frame, from the transport's poll_rx(). Processed in
  /// place: it never re-enters extract() — every transmission it provokes
  /// is deferred (defer_reject) or queued (rejq_, posted_) and injected by
  /// flush_deferred_tx() / the rest of the extract() pass. Returns false
  /// when the frame failed its integrity checks: it did not decode, or in
  /// CRC mode its trailer was missing or wrong.
  FM_HOT_PATH bool process_frame(NodeId from, const std::uint8_t* data,
                                 std::size_t len);
  /// One received datagram that carries 1..k whole frames back to back,
  /// from a transport that packs them (walk_frames, fm/frame.h). A frame
  /// that fails its integrity checks ends the walk: its length came from
  /// the bytes that failed, so the rest of the datagram has no boundary
  /// worth trusting and counts as one malformed frame. Returns the frames
  /// counted.
  FM_HOT_PATH std::size_t process_packed(NodeId from,
                                         const std::uint8_t* data,
                                         std::size_t len);
  FM_HOT_PATH void flush_deferred_tx();

  /// True when a push blocked on backpressure should give up: a nested
  /// extract() dropped or delivered the frame it carries. When `frame`
  /// points into the window slab (`window_seq` != 0, never a valid seq
  /// otherwise) the nested extract can recycle the slot: a dead-peer
  /// declaration drops it, and a retransmission of this very frame can be
  /// acked mid-spin, releasing it — either way the LIFO free list may hand
  /// it to another send, clobbering the bytes under the push. If the slot
  /// no longer holds this frame it was dropped or has already been
  /// delivered via the retransmission, so nothing is lost.
  FM_HOT_PATH bool push_moot(NodeId dest, std::uint32_t window_seq,
                             const std::uint8_t* frame) const {
    if (window_seq != 0 && window_.find(dest, window_seq).data != frame)
      return true;
    return dead_peers_.count(dest) > 0;
  }

  FM_HOT_PATH static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // FM-Scope trace ring; category ids are interned at construction so the
  // hot path stores 16-bit ids, never strings. Transports intern their own
  // categories after the engine's.
  obs::TraceRing trace_;

 private:
  // Wire-format bound on acks per frame (ack_count is a u8).
  static constexpr std::size_t kMaxAcksPerFrame = 255;

  struct Posted {
    NodeId dest = 0;
    HandlerId handler = 0;
    std::vector<std::uint8_t> payload;
  };

  struct DeferredTx {
    NodeId dest = 0;
    std::vector<std::uint8_t> bytes;
  };

  FM_HOT_PATH Transport& self() { return static_cast<Transport&>(*this); }
  FM_HOT_PATH const Transport& self() const {
    return static_cast<const Transport&>(*this);
  }

  FM_HOT_PATH Status send_data_frame(NodeId dest, HandlerId handler,
                                     const std::uint8_t* payload,
                                     std::size_t len, bool fragmented,
                                     std::uint32_t msg_id,
                                     std::uint16_t frag_index,
                                     std::uint16_t frag_count);
  // `window_seq` and `nonblocking` are forwarded to the transport's push().
  FM_HOT_PATH void inject(NodeId dest, const std::uint8_t* frame,
                          std::size_t len, std::uint32_t window_seq = 0,
                          bool nonblocking = false);
  // The fault-model detour: copies the frame to stable storage, then
  // drops/corrupts/duplicates/reorders. Test-configuration-only, so it is
  // an explicit cold boundary off the allocation-free steady state.
  FM_COLD_PATH void inject_faulty(NodeId dest, const std::uint8_t* frame,
                                  std::size_t len, bool nonblocking);
  FM_HOT_PATH void send_standalone_ack(NodeId peer);
  // Sends a standalone ack to every peer owed ack_threshold_ or more.
  FM_HOT_PATH void flush_threshold_acks();
  // Reject handling (both directions) only runs once a receive pool
  // overflowed — the §4.5 recovery path, kept off the hot closure.
  FM_COLD_PATH void park_reject(NodeId from, const FrameHeader& h,
                                const std::uint8_t* data,
                                std::uint32_t bounces);
  FM_COLD_PATH void defer_reject(NodeId from, const FrameHeader& h,
                                 const std::uint8_t* data);
  FM_HOT_PATH void drain_posted();
  FM_HOT_PATH void reliability_tick(std::uint64_t now);
  FM_COLD_PATH void mark_peer_dead(NodeId peer);

  NodeId id_;
  std::size_t nodes_;
  FmConfig cfg_;
  HandlerRegistry<Transport> handlers_;
  SendWindow window_;
  AckTracker acks_;
  Reassembler reasm_;
  HandlerId deposit_hid_ = kInvalidHandler;
  DepositSinkFn deposit_sink_;
  RejectQueue rejq_;
  RetransmitTimer timer_;
  DedupFilter dedup_;
  std::unordered_set<NodeId> dead_peers_;
  // Liveness ledger: when each peer's frames were last seen (0: never),
  // stamped with the clock read each extract() pass takes. A retry budget
  // exhausted against a peer heard within alive_grace_ns_ is congestion,
  // not death — the frame re-arms with a fresh budget instead of killing
  // the peer (see reliability_tick).
  std::vector<std::uint64_t> last_heard_ns_;
  std::uint64_t alive_grace_ns_ = 0;
  std::uint64_t rx_now_ns_ = 0;  // the running extract() pass's clock read
  // Owed acks that trigger a standalone ack. It must stay below half a
  // peer's in-flight allotment (its pending window, or its credit allotment
  // in window mode) or senders stall with their window full while we sit on
  // their acks. Configurations are symmetric (SPMD), so our own config
  // tells us the peers' limits.
  std::size_t ack_threshold_;
  // Set when a peer's owed acks reach ack_threshold_; the next extract()
  // pass flushes them at entry (see extract()).
  bool ack_flush_due_ = false;
  Stats stats_;
  std::vector<Posted> posted_;
  std::vector<Posted> posted_pool_;  // recycled entries, warm payload buffers
  std::size_t posted_head_ = 0;      // consumed prefix of posted_
  std::unordered_map<NodeId, std::size_t> credits_;  // window mode only
  // Sender-side fault injection (one injector per endpoint, so the
  // transport stays single-writer), layered on whatever the substrate
  // itself loses.
  std::unique_ptr<hw::FaultInjector> faults_;
  std::unordered_map<NodeId, std::vector<std::uint8_t>> reorder_held_;
  // Reusable buffers that keep the steady-state hot path off the heap.
  // tx_scratch_ holds in-flight frame bytes for sends without a window slab
  // slot; it is depth-indexed because a posted send drained from a nested
  // extract() can overlap one app-context send (and only one — drain_posted
  // is re-entrancy-guarded).
  std::array<std::vector<std::uint8_t>, 2> tx_scratch_;
  std::size_t tx_depth_ = 0;
  std::vector<std::uint8_t> retx_scratch_;   // staged retransmission bytes
  std::vector<std::uint8_t> reasm_out_;      // completed reassembled message
  std::vector<NodeId> ack_peers_scratch_;    // extract()'s ack-flush worklist
  std::vector<std::uint8_t> dup_ack_due_;    // peers that resent this pass
  std::vector<NodeId> drain_peers_scratch_;  // drain()'s ack worklist
  std::vector<RetransmitTimer::Due> due_scratch_;  // reliability_tick()'s
  // Rejects owed for frames processed in place: injecting mid-burst could
  // re-enter extract() while unpublished frames are live, so they are
  // encoded at processing time and injected after the frame.
  std::vector<DeferredTx> deferred_tx_;
  std::vector<DeferredTx> deferred_flush_scratch_;
  std::uint32_t next_msg_id_ = 1;
  bool in_handler_ = false;
  bool draining_posted_ = false;
  bool flushing_deferred_ = false;
  bool in_ack_flush_ = false;
  bool in_reliability_tick_ = false;
  // Set while send_data_frame() spins on a full window so the reject-queue
  // tick inside extract() leaves one slot free for the blocked frame
  // (otherwise bounce-release + retry-re-track inside one extract() call
  // starves the sender forever at reject_retry_delay 1).
  bool send_blocked_spin_ = false;
  std::uint16_t cat_send_ = 0;
  std::uint16_t cat_extract_ = 0;
  std::uint16_t cat_deliver_ = 0;
  std::uint16_t cat_retransmit_ = 0;
  std::uint16_t cat_reject_ = 0;
  std::uint16_t cat_crc_drop_ = 0;
  std::uint16_t cat_dup_ = 0;
  std::uint16_t cat_dead_peer_ = 0;
  std::uint16_t cat_depth_ = 0;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

template <typename Transport>
ProtocolEngine<Transport>::ProtocolEngine(std::string scope, NodeId id,
                                          std::size_t nodes,
                                          const FmConfig& cfg,
                                          const hw::FaultParams& faults)
    : trace_(std::move(scope)),
      id_(id),
      nodes_(nodes),
      cfg_(cfg),
      window_(cfg.pending_window, max_wire_bytes(cfg.frame_payload)),
      acks_(cfg.pending_window),
      reasm_(cfg.reassembly_slots),
      timer_(cfg.retransmit_timeout_ns, cfg.max_retries),
      last_heard_ns_(nodes, 0),
      alive_grace_ns_(RetransmitTimer::detection_horizon_ns(
          cfg.retransmit_timeout_ns, cfg.max_retries)),
      ack_threshold_(std::min(
          cfg.ack_batch,
          std::max<std::size_t>(
              1, (cfg.window_mode ? cfg.window_per_peer : cfg.pending_window) /
                     2))),
      dup_ack_due_(nodes, 0) {
  FM_CHECK_MSG(!cfg.reliability || cfg.flow_control,
               "FM-R requires flow control: the send window holds the frame "
               "copies retransmission needs");
  for (auto& buf : tx_scratch_) buf.resize(max_wire_bytes(cfg.frame_payload));
  retx_scratch_.reserve(max_wire_bytes(cfg.frame_payload));
  ack_peers_scratch_.reserve(nodes);
  drain_peers_scratch_.reserve(nodes);
  // Construction runs in the context that will own the endpoint (or before
  // that thread/process exists), so it is the trace ring's writer.
  trace_.assert_writer();
  cat_send_ = trace_.intern("send");
  cat_extract_ = trace_.intern("extract");
  cat_deliver_ = trace_.intern("deliver");
  cat_retransmit_ = trace_.intern("retransmit");
  cat_reject_ = trace_.intern("reject");
  cat_crc_drop_ = trace_.intern("crc_drop");
  cat_dup_ = trace_.intern("dup");
  cat_dead_peer_ = trace_.intern("dead_peer");
  cat_depth_ = trace_.intern("window_rejq_depth");
  if (faults.enabled()) {
    // Decorrelated per-node seeds: runs stay bit-reproducible, yet the
    // nodes do not fail in lockstep.
    faults_ =
        std::make_unique<hw::FaultInjector>(decorrelate_faults(faults, id));
  }
}

template <typename Transport>
void ProtocolEngine<Transport>::register_metrics(obs::Registry& reg) {
  reg.assert_owner();
  stats_.register_into(reg);
  reg.gauge("q.reject_depth",
            [this] { return static_cast<double>(rejq_.size()); });
  reg.gauge("q.posted_depth", [this] {
    return static_cast<double>(posted_.size() - posted_head_);
  });
  reg.gauge("window.in_flight",
            [this] { return static_cast<double>(window_.in_flight()); });
  reg.gauge("reasm.active",
            [this] { return static_cast<double>(reasm_.active()); });
  reg.gauge("acks.due",
            [this] { return static_cast<double>(acks_.total_due()); });
  reg.gauge("timers.armed",
            [this] { return static_cast<double>(timer_.armed()); });
  reg.gauge("credits.available", [this] {
    double n = 0;
    for (const auto& [peer, c] : credits_) n += static_cast<double>(c);
    return n;
  });
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

template <typename Transport>
Status ProtocolEngine<Transport>::send(NodeId dest, HandlerId handler,
                                       const void* buf, std::size_t len) {
  FM_CHECK_MSG(!in_handler_,
               "send() from handler context; use post_send() instead");
  if (dest >= nodes_) return Status::kBadArgument;
  if (!handlers_.valid(handler) || (len > 0 && buf == nullptr))
    return Status::kBadArgument;
  if (cfg_.reliability && dead_peers_.count(dest) > 0)
    return Status::kPeerDead;
  ++stats_.messages_sent;
  const auto* bytes = static_cast<const std::uint8_t*>(buf);
  if (len <= cfg_.frame_payload) {
    Status s = send_data_frame(dest, handler, bytes, len, false, 0, 0, 1);
    // Counted sent, then refused mid-flight by a dead-peer declaration:
    // abandoned, for the conservation invariant (sent == delivered +
    // abandoned while no peer is dead).
    if (s == Status::kPeerDead) ++stats_.messages_abandoned;
    return s;
  }
  const std::size_t per = cfg_.frame_payload;
  const std::size_t frags = (len + per - 1) / per;
  if (frags > 0xffff) return Status::kTooLarge;
  const std::uint32_t msg_id = next_msg_id_++;
  for (std::size_t i = 0; i < frags; ++i) {
    const std::size_t off = i * per;
    const std::size_t n = std::min(per, len - off);
    Status s = send_data_frame(dest, handler, bytes + off, n, true, msg_id,
                               static_cast<std::uint16_t>(i),
                               static_cast<std::uint16_t>(frags));
    if (!ok(s)) {
      if (s == Status::kPeerDead) ++stats_.messages_abandoned;
      return s;
    }
  }
  return Status::kOk;
}

template <typename Transport>
Status ProtocolEngine<Transport>::send_data_frame(
    NodeId dest, HandlerId handler, const std::uint8_t* payload,
    std::size_t len, bool fragmented, std::uint32_t msg_id,
    std::uint16_t frag_index, std::uint16_t frag_count) {
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  // Window gate — and, in window mode, a per-destination credit gate —
  // servicing the network while blocked (the FM discipline).
  auto blocked = [&] {
    if (!cfg_.flow_control) return false;
    if (window_.full()) return true;
    if (cfg_.window_mode) {
      auto it = credits_.find(dest);
      if (it == credits_.end()) {
        // fm-lint: allow(hotpath-alloc): first send to a peer creates its
        // credit bucket once; every later send takes the find() above.
        credits_[dest] = cfg_.window_per_peer;
        return false;
      }
      return it->second == 0;
    }
    return false;
  };
  while (blocked()) {
    // A peer declared dead while we were blocked frees its window slots;
    // the caller learns immediately instead of spinning forever.
    if (cfg_.reliability && dead_peers_.count(dest) > 0)
      return Status::kPeerDead;
    // Flag the spin so the reject-queue tick inside extract() leaves one
    // window slot for this frame. Without the reservation a bounced
    // frame's release and its retry's re-entry both land inside one
    // extract() call (at reject_retry_delay 1), so this loop's recheck
    // always sees the window full again — and a fresh fragment that would
    // complete an admitted reassembly (unwedging every peer bouncing off
    // that pool slot) is starved forever by its own sibling's retries.
    const bool outer_spin = send_blocked_spin_;  // nested sends restore it
    send_blocked_spin_ = true;
    const std::size_t n = extract();
    send_blocked_spin_ = outer_spin;
    if (n == 0) self().idle_pause();
  }
  if (cfg_.reliability && dead_peers_.count(dest) > 0)
    return Status::kPeerDead;
  if (cfg_.flow_control && cfg_.window_mode) {
    FM_CHECK(credits_[dest] > 0);
    --credits_[dest];
  }
  FrameHeader h;
  h.type = FrameType::kData;
  h.handler = handler;
  h.src = id_;
  h.payload_len = static_cast<std::uint16_t>(len);
  if (cfg_.crc_frames) h.flags |= FrameHeader::kFlagCrc;
  if (fragmented) {
    h.flags |= FrameHeader::kFlagFragmented;
    h.msg_id = msg_id;
    h.frag_index = frag_index;
    h.frag_count = frag_count;
  }
  if (cfg_.flow_control) {
    h.seq = window_.next_seq(dest);
    std::uint32_t piggy[kMaxAcksPerFrame];
    const std::size_t n_acks = acks_.take_into(
        dest, std::min(cfg_.piggyback_acks, kMaxAcksPerFrame), piggy);
    h.ack_count = static_cast<std::uint8_t>(n_acks);
    stats_.acks_piggybacked += n_acks;
    // The window slab slot doubles as the wire staging buffer and the
    // retained retransmission copy: the frame is serialized exactly once,
    // in place (the paper's PIO-gather, aimed at the window instead of the
    // NIC), and pushed straight from the slot.
    // fm-lint: allow(hotpath-alloc): SendWindow::reserve claims a
    // preallocated slab slot; it shares a name with vector::reserve, not
    // its behaviour.
    std::uint8_t* slot = window_.reserve(dest, h.seq);
    const std::size_t wire =
        encode_frame_into(slot, h, payload, n_acks ? piggy : nullptr);
    window_.commit(wire);
    if (cfg_.reliability) timer_.arm(dest, h.seq, now_ns());
    ++stats_.frames_sent;
    if (trace_.enabled()) trace_.event(now_ns(), cat_send_, 'i', dest, h.seq);
    inject(dest, slot, wire, h.seq);
    return Status::kOk;
  }
  // No flow control means no retained copy is needed: serialize into the
  // depth-indexed scratch. Depth 2 suffices — a posted send drained from a
  // nested extract() can overlap the app-context send, and drain_posted()'s
  // re-entrancy guard rules out anything deeper.
  FM_CHECK_MSG(tx_depth_ < tx_scratch_.size(), "send scratch depth exceeded");
  std::uint8_t* buf = tx_scratch_[tx_depth_].data();
  const std::size_t wire = encode_frame_into(buf, h, payload, nullptr);
  ++stats_.frames_sent;
  if (trace_.enabled()) trace_.event(now_ns(), cat_send_, 'i', dest, h.seq);
  ++tx_depth_;
  inject(dest, buf, wire);
  --tx_depth_;
  return Status::kOk;
}

template <typename Transport>
void ProtocolEngine<Transport>::inject(NodeId dest, const std::uint8_t* frame,
                                       std::size_t len,
                                       std::uint32_t window_seq,
                                       bool nonblocking) {
  if (faults_) {
    // Fault-injection runs only in test configurations; the copies it makes
    // are off the steady state by construction (hence the cold boundary).
    inject_faulty(dest, frame, len, nonblocking);
    return;
  }
  self().push(dest, frame, len, window_seq, nonblocking);
}

template <typename Transport>
void ProtocolEngine<Transport>::inject_faulty(NodeId dest,
                                              const std::uint8_t* frame,
                                              std::size_t len,
                                              bool nonblocking) {
  // The fault paths below copy the frame into stable local storage before
  // any push, so slab-slot recycling cannot bite them: window_seq is not
  // forwarded. Same model as the sim backend's faulty switch fabric: drop
  // (single or burst), corrupt, duplicate, hold-and-overtake reorder.
  if (faults_->should_drop()) return;
  std::vector<std::uint8_t> bytes(frame, frame + len);
  faults_->maybe_corrupt(bytes);
  const bool dup = faults_->should_duplicate();
  std::vector<std::uint8_t> release;
  auto held = reorder_held_.find(dest);
  if (held != reorder_held_.end()) {
    release = std::move(held->second);
    reorder_held_.erase(held);
  } else if (faults_->should_reorder()) {
    // Held until the next frame to this peer overtakes it (a timeout
    // retransmission counts, so a held frame cannot be stuck forever).
    reorder_held_[dest] = std::move(bytes);
    return;
  }
  self().push(dest, bytes.data(), bytes.size(), 0, nonblocking);
  if (dup) self().push(dest, bytes.data(), bytes.size(), 0, nonblocking);
  if (!release.empty())
    self().push(dest, release.data(), release.size(), 0, nonblocking);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

template <typename Transport>
std::size_t ProtocolEngine<Transport>::extract() {
  if (in_handler_) return 0;  // no re-entrant extraction from handlers
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  // Flush points bracket the pass: frames staged before the call go out
  // before we read (the peer may be waiting on them), and the retries,
  // replies and duplicate re-acks generated while processing go out before
  // we return. Acks that reached the batch threshold in an earlier pass
  // leave here, at the entry flush, not in the pass that owed them: by now
  // the replies that pass posted and the calls the application made since
  // have carried what they could as piggybacked acks, and the standalone
  // ack for the rest joins the staged data in the same burst (the same
  // datagram, on a packing transport).
  if (ack_flush_due_) flush_threshold_acks();
  self().flush_tx();
  // One clock read serves the whole pass: the liveness stamps of the
  // frames received, the FM-R timers, and the trace span's start. Without
  // FM-R or tracing the pass reads no clock at all.
  const std::uint64_t now =
      cfg_.reliability || trace_.enabled() ? now_ns() : 0;
  rx_now_ns_ = now;
  // Trace the extract as a B/E span, but only when it consumed something:
  // recording idle polls would flood the flight recorder while a blocked
  // sender spins. Both records are appended after the fact with their true
  // timestamps; the exporter's global sort restores chronological order
  // (and correct nesting for extracts nested under push backpressure).
  const std::size_t count = self().poll_rx();
  // Retransmit rejected frames whose backoff expired. Re-injection re-arms
  // the FM-R timer with a fresh retry budget: a rejection proved the peer
  // alive, so the dead-peer countdown restarts. The retry re-enters the
  // pending window (its bounce released the slot) so a lost retry can be
  // re-sourced by timeout retransmission; when the window is momentarily
  // full the entry just waits out another backoff period.
  for (auto& entry : rejq_.tick(cfg_.reject_retry_delay)) {
    if (cfg_.reliability && dead_peers_.count(entry.dest) > 0) {
      ++stats_.frames_discarded_dead;
      continue;
    }
    // Leave one slot for a sender spinning in the blocked-send loop: its
    // fresh fragment may be the one that completes an admitted reassembly
    // at the rejecting peer, unwedging everyone bouncing off that slot.
    if (window_.space() <= (send_blocked_spin_ ? 1u : 0u)) {
      rejq_.add(entry.dest, entry.seq, std::move(entry.bytes), entry.bounces);
      continue;
    }
    ++stats_.retransmissions;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_retransmit_, 'i', entry.dest, entry.seq);
    window_.track(entry.dest, entry.seq, entry.bytes.data(),
                  entry.bytes.size(), entry.bounces);
    if (cfg_.reliability) timer_.arm(entry.dest, entry.seq, now_ns());
    inject(entry.dest, entry.bytes.data(), entry.bytes.size());
  }
  // Duplicate frames seen this pass force an immediate flush to their
  // senders, bypassing the batch threshold (see the dedup branch). The
  // re-entrancy guard keeps a nested extract (ack-push backpressure) off
  // the shared worklists.
  if (cfg_.flow_control && !in_ack_flush_) {
    in_ack_flush_ = true;
    for (NodeId peer = 0; peer < dup_ack_due_.size(); ++peer) {
      if (dup_ack_due_[peer] == 0) continue;
      dup_ack_due_[peer] = 0;
      send_standalone_ack(peer);
    }
    in_ack_flush_ = false;
  }
  if (cfg_.reliability) reliability_tick(now);
  // Reassembly TTL is a *lossy* reclamation: erasing a partial forgets
  // fragments whose sender already saw them acked, so under FM-R it
  // silently loses the whole message (nothing retained to retransmit, no
  // one left retrying — the run goes quiescent with the message missing).
  // With reliability on, a live peer's partial always completes (timeouts
  // re-source lost frames, bounced frames retry from the reject queue) and
  // a dead peer's slots are freed by mark_peer_dead(); the sweep therefore
  // only runs in unreliable profiles, where a genuinely lost fragment
  // would otherwise pin a receive-pool slot forever.
  if (!cfg_.reliability && cfg_.reassembly_ttl_ns > 0 && reasm_.active() > 0) {
    const std::uint64_t t = now_ns();
    if (t > cfg_.reassembly_ttl_ns)
      stats_.reassemblies_expired +=
          reasm_.expire_older_than(t - cfg_.reassembly_ttl_ns);
  }
  drain_posted();
  self().flush_tx();
  if (trace_.enabled() && count > 0) {
    const std::uint64_t end = now_ns();
    trace_.event(now, cat_extract_, 'B', static_cast<std::uint32_t>(count));
    trace_.event(end, cat_extract_, 'E', static_cast<std::uint32_t>(count));
    // Occupancy sample for Perfetto's counter track.
    trace_.event(end, cat_depth_, 'C',
                 static_cast<std::uint32_t>(window_.in_flight()),
                 static_cast<std::uint32_t>(rejq_.size()));
  }
  return count;
}

template <typename Transport>
void ProtocolEngine<Transport>::flush_deferred_tx() {
  if (flushing_deferred_) return;
  flushing_deferred_ = true;
  // Swap before walking: injection can block on backpressure and nest
  // extract(), whose frames may defer further rejects — those land on the
  // (now empty) live list and the outer loop picks them up next pass.
  while (!deferred_tx_.empty()) {
    deferred_flush_scratch_.clear();
    std::swap(deferred_tx_, deferred_flush_scratch_);
    for (auto& t : deferred_flush_scratch_)
      inject(t.dest, t.bytes.data(), t.bytes.size());
  }
  flushing_deferred_ = false;
}

template <typename Transport>
void ProtocolEngine<Transport>::flush_threshold_acks() {
  if (in_ack_flush_) return;  // a nested pass leaves the flag for the outer
  in_ack_flush_ = true;
  ack_flush_due_ = false;
  acks_.peers_over_into(ack_threshold_, ack_peers_scratch_);
  for (NodeId peer : ack_peers_scratch_) send_standalone_ack(peer);
  in_ack_flush_ = false;
}

template <typename Transport>
void ProtocolEngine<Transport>::drain() {
  for (;;) {
    if (cfg_.flow_control) {
      acks_.peers_into(drain_peers_scratch_);
      for (NodeId peer : drain_peers_scratch_) send_standalone_ack(peer);
    }
    // Staged frames count as outstanding: returning with bytes still in
    // the transport would leave a peer waiting on acks we never sent.
    self().flush_tx();
    if ((!cfg_.flow_control || window_.in_flight() == 0) &&
        rejq_.size() == 0 && self().tx_idle())
      return;
    if (extract() == 0) self().idle_pause();
  }
}

template <typename Transport>
void ProtocolEngine<Transport>::reliability_tick(std::uint64_t now) {
  if (in_reliability_tick_) return;
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  in_reliability_tick_ = true;
  timer_.expired_into(now, due_scratch_);
  for (const auto& due : due_scratch_) {
    if (due.exhausted) {
      // Liveness guard: a retry budget exhausted against a peer we are
      // still hearing from is congestion, not death. A burst into a
      // saturated receive queue (or a lossy path in one direction only)
      // can strike the same frame out max_retries times while the peer's
      // own data and acks keep arriving; killing it then forgets the dedup
      // state and breaks exactly-once. Death needs a full detection
      // horizon of *silence* — a crashed rank goes quiet and is declared
      // dead exactly as fast as before; a congested one gets its frame
      // re-armed with a fresh budget below and recovery continues.
      const std::uint64_t heard = last_heard_ns_[due.dest];
      if (heard == 0 || heard + alive_grace_ns_ <= now) {
        mark_peer_dead(due.dest);
        continue;
      }
    }
    const SendWindow::Stored stored = window_.find(due.dest, due.seq);
    if (stored.data == nullptr) {
      // Acked (or bounced into the reject queue) between the deadline
      // passing and the timer firing.
      timer_.disarm(due.dest, due.seq);
      continue;
    }
    ++stats_.retransmit_timeouts;
    ++stats_.retransmissions;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_retransmit_, 'i', due.dest, due.seq);
    if (due.exhausted) timer_.arm(due.dest, due.seq, now);  // fresh budget
    // A push can re-enter extract() on backpressure, which may ack and
    // recycle the slab slot — stage the bytes first. The tick guard above
    // keeps the nested extract from clobbering the staging buffer.
    // fm-lint: allow(hotpath-alloc): scratch capacity was reserved at
    // construction, and a timeout retransmission is already recovery.
    retx_scratch_.assign(stored.data, stored.data + stored.len);
    // Nonblocking: backpressure toward an unresponsive peer must not spin
    // this tick (the re-entrancy guard means a nested extract can never run
    // the escalation that declares the peer dead — the only exit). The
    // frame stays retained and armed; the next expiry retries, and an
    // exhausted budget against a silent peer still produces the verdict.
    inject(due.dest, retx_scratch_.data(), retx_scratch_.size(), 0,
           /*nonblocking=*/true);
  }
  in_reliability_tick_ = false;
}

template <typename Transport>
void ProtocolEngine<Transport>::mark_peer_dead(NodeId peer) {
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  if (!dead_peers_.insert(peer).second) return;
  ++stats_.peers_dead;
  if (trace_.enabled()) trace_.event(now_ns(), cat_dead_peer_, 'i', peer, 0);
  // Drop every piece of state aimed at (or held for) the dead peer so
  // blocked senders unblock and no slot stays pinned.
  stats_.frames_discarded_dead += window_.drop_dest(peer);
  timer_.disarm_all(peer);
  stats_.frames_discarded_dead += rejq_.drop_dest(peer);
  acks_.forget(peer);
  dedup_.forget(peer);
  reasm_.abort(peer);
  credits_.erase(peer);
  reorder_held_.erase(peer);
}

template <typename Transport>
std::size_t ProtocolEngine<Transport>::process_packed(NodeId from,
                                                      const std::uint8_t* data,
                                                      std::size_t len) {
  std::size_t frames = 0;
  const std::size_t walked =
      walk_frames(data, len, [&](const std::uint8_t* frame, std::size_t n) {
        ++frames;
        return process_frame(from, frame, n);
      });
  if (walked < len) {
    ++frames;
    ++stats_.frames_received;
    ++stats_.malformed_frames;
  }
  return frames;
}

template <typename Transport>
bool ProtocolEngine<Transport>::process_frame(NodeId from,
                                              const std::uint8_t* data,
                                              std::size_t len) {
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  ++stats_.frames_received;
  if (cfg_.reliability) last_heard_ns_[from] = rx_now_ns_;
  auto hdr = decode_header(data, len);
  // In CRC mode every sender trailers every frame, so a frame without the
  // flag had it flipped, and its length with it: it is malformed.
  if (!hdr.has_value() || (cfg_.crc_frames && !hdr->has_crc())) {
    // On a lossless substrate only injected corruption can produce wire
    // garbage, so a malformed frame there is a protocol bug; on a real
    // network it is weather.
    if constexpr (Transport::kLossless)
      FM_CHECK_MSG(faults_ != nullptr,
                   "malformed frame on a lossless transport");
    ++stats_.malformed_frames;
    return false;
  }
  const FrameHeader& h = *hdr;
  if (h.has_crc() && !frame_crc_ok(h, data)) {
    ++stats_.crc_drops;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_crc_drop_, 'i', from, h.seq);
    return false;  // no ack — the sender's retransmit timer recovers it
  }
  // Acks are attributed to the transport source (`from`), not the header's
  // src field: the ring or kernel-reported address is ground truth even
  // when the payload bytes are suspect.
  for (std::size_t i = 0; i < h.ack_count; ++i) {
    std::uint32_t seq = frame_ack(h, data, i);
    timer_.disarm(from, seq);
    // fm-lint: allow(hotpath-alloc): the credit bucket already exists for
    // any peer we sent to; operator[] only inserts on first contact.
    if (window_.ack(from, seq) && cfg_.window_mode) ++credits_[from];
  }
  switch (h.type) {
    case FrameType::kAck:
      break;
    case FrameType::kReject: {
      // One of our data frames bounced off `from`; park a cleaned copy
      // (type restored, stale piggybacked acks stripped) for retransmission.
      if (h.src != id_) {
        if constexpr (Transport::kLossless)
          FM_CHECK_MSG(faults_ != nullptr, "reject for a frame we never sent");
        ++stats_.malformed_frames;
        return true;
      }
      ++stats_.rejects_received;
      // The rejection proved the peer alive; the reject-queue backoff now
      // owns this frame and the timer re-arms at re-injection. The window
      // slot is freed with it: a bounced frame is not in the network, and
      // leaving it pinned head-of-line blocks fragments bound for other
      // peers (two senders bouncing off each other's full receive pools
      // would deadlock waiting for window space).
      if (cfg_.reliability) timer_.disarm(from, h.seq);
      park_reject(from, h, data, window_.bounce(from, h.seq));
      break;
    }
    case FrameType::kData: {
      if (cfg_.reliability && dedup_.seen(from, h.seq)) {
        // Already accepted once: suppress delivery but re-ack, since the
        // duplicate usually means our first ack was lost with the original.
        // The re-ack must be *threshold-exempt*: a retransmission proves
        // the sender is burning FM-R retries waiting on us, and a peer
        // owed fewer acks than the batch threshold, with no reverse data
        // to piggyback on, would otherwise starve the sender into falsely
        // declaring this live endpoint dead.
        ++stats_.duplicates_suppressed;
        if (trace_.enabled())
          trace_.event(now_ns(), cat_dup_, 'i', from, h.seq);
        acks_.note(from, h.seq);
        dup_ack_due_[from] = 1;
        break;
      }
      const std::uint8_t* payload = frame_payload(h, data);
      if (h.fragmented()) {
        switch (reasm_.feed(from, h, payload, &reasm_out_, now_ns(),
                            h.handler == deposit_hid_ ? &deposit_sink_
                                                      : nullptr)) {
          case Reassembler::Feed::kMalformed:
            if constexpr (Transport::kLossless)
              FM_CHECK_MSG(faults_ != nullptr,
                           "malformed fragment on a lossless transport");
            ++stats_.malformed_frames;
            return true;  // dropped: no ack, no dedup mark
          case Reassembler::Feed::kRejected:
            ++stats_.rejects_issued;
            if (trace_.enabled())
              trace_.event(now_ns(), cat_reject_, 'i', from, h.seq);
            defer_reject(from, h, data);
            return true;  // not accepted: no ack, no dedup mark
          case Reassembler::Feed::kAccepted:
            break;
          case Reassembler::Feed::kComplete:
            ++stats_.messages_delivered;
            if (trace_.enabled())
              trace_.event(now_ns(), cat_deliver_, 'i', from, h.seq);
            in_handler_ = true;
            handlers_.dispatch(h.handler, self(), from, reasm_out_.data(),
                               reasm_out_.size());
            in_handler_ = false;
            break;
        }
      } else {
        ++stats_.messages_delivered;
        if (trace_.enabled())
          trace_.event(now_ns(), cat_deliver_, 'i', from, h.seq);
        in_handler_ = true;
        handlers_.dispatch(h.handler, self(), from, payload, h.payload_len);
        in_handler_ = false;
      }
      if (cfg_.reliability) dedup_.mark(from, h.seq);
      if (cfg_.flow_control && acks_.note(from, h.seq) >= ack_threshold_)
        ack_flush_due_ = true;
      break;
    }
  }
  return true;
}

template <typename Transport>
void ProtocolEngine<Transport>::drain_posted() {
  if (draining_posted_) return;
  draining_posted_ = true;
  while (posted_head_ < posted_.size()) {
    // Index on every access: a blocked send nests extract(), and a handler
    // running there may post more, reallocating posted_. The payload's own
    // heap buffer is stable across that reallocation (vector move).
    Status s = send(posted_[posted_head_].dest, posted_[posted_head_].handler,
                    posted_[posted_head_].payload.data(),
                    posted_[posted_head_].payload.size());
    // A posted reply to a peer that died while it sat queued is dropped,
    // not a crash.
    FM_CHECK_MSG(ok(s) || s == Status::kPeerDead, "posted send failed");
    // fm-lint: allow(hotpath-alloc): recycles the entry (and its warm
    // payload buffer) into the pool; amortizes to zero allocations.
    posted_pool_.push_back(std::move(posted_[posted_head_]));
    ++posted_head_;
  }
  posted_.clear();
  posted_head_ = 0;
  draining_posted_ = false;
}

template <typename Transport>
void ProtocolEngine<Transport>::send_standalone_ack(NodeId peer) {
  std::uint32_t acks[kMaxAcksPerFrame];
  const std::size_t n = acks_.take_into(peer, kMaxAcksPerFrame, acks);
  if (n == 0) return;
  FrameHeader h;
  h.type = FrameType::kAck;
  h.src = id_;
  if (cfg_.crc_frames) h.flags |= FrameHeader::kFlagCrc;
  h.ack_count = static_cast<std::uint8_t>(n);
  ++stats_.acks_standalone;
  // Largest possible ack frame fits on the stack, so each nesting level of
  // extract() gets its own buffer for free.
  std::uint8_t buf[FrameHeader::kBaseBytes + 4 * kMaxAcksPerFrame +
                   FrameHeader::kCrcBytes];
  const std::size_t wire = encode_frame_into(buf, h, nullptr, acks);
  inject(peer, buf, wire);
}

template <typename Transport>
void ProtocolEngine<Transport>::park_reject(NodeId from, const FrameHeader& h,
                                            const std::uint8_t* data,
                                            std::uint32_t bounces) {
  // One of our data frames bounced: park a cleaned copy (type restored,
  // stale piggybacked acks stripped) for backoff retransmission. Cold by
  // definition — a reject means a receive pool overflowed somewhere.
  FrameHeader clean = h;
  clean.type = FrameType::kData;
  clean.ack_count = 0;
  // clean inherits the CRC flag, so encode_frame recomputes a valid
  // trailer over the cleaned frame.
  rejq_.add(from, h.seq, encode_frame(clean, frame_payload(h, data), nullptr),
            bounces);
}

template <typename Transport>
void ProtocolEngine<Transport>::defer_reject(NodeId from, const FrameHeader& h,
                                             const std::uint8_t* data) {
  FrameHeader rh = h;
  rh.type = FrameType::kReject;
  rh.ack_count = 0;
  // rh inherits the CRC flag, so encode_frame recomputes a valid trailer.
  // Parked rather than injected: the frame is being processed in place,
  // and the backpressure a push can hit must not re-enter extract() from
  // here.
  deferred_tx_.push_back(
      DeferredTx{from, encode_frame(rh, frame_payload(h, data), nullptr)});
}

template <typename Transport>
void ProtocolEngine<Transport>::post_send2(NodeId dest, HandlerId handler,
                                           const void* hdr,
                                           std::size_t hdr_len,
                                           const void* body,
                                           std::size_t body_len) {
  Posted p;
  if (!posted_pool_.empty()) {
    p = std::move(posted_pool_.back());
    posted_pool_.pop_back();
  }
  p.dest = dest;
  p.handler = handler;
  const auto* h = static_cast<const std::uint8_t*>(hdr);
  const auto* b = static_cast<const std::uint8_t*>(body);
  // fm-lint: allow(hotpath-alloc): assigns into the recycled entry's warm
  // buffer; only a first-time larger payload grows it.
  p.payload.assign(h, h + hdr_len);
  // fm-lint: allow(hotpath-alloc): appends within the same warm capacity.
  if (body_len > 0) p.payload.insert(p.payload.end(), b, b + body_len);
  // fm-lint: allow(hotpath-alloc): the posted list's capacity warms up and
  // is kept by drain_posted()'s clear().
  posted_.push_back(std::move(p));
}

}  // namespace fm
