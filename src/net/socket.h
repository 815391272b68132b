// A thin RAII wrapper over one nonblocking loopback UDP socket — the
// net backend's "network interface". The socket API is datagram-shaped and
// knows nothing of FM frames: send one datagram to a peer address, receive
// one with its source port, and surface the kernel's own receive-queue
// overflow count (SO_RXQ_OVFL) — the real "link fault" this backend is
// built to exercise. A datagram carries one or more whole FM frames (the
// endpoint packs and splits them; see docs/PROTOCOL.md §9).
//
// FM-Burst adds the batched shapes: send_batch/recv_batch amortize the
// kernel crossing over up to kMaxBatch datagrams via sendmmsg(2)/
// recvmmsg(2) (the syscall analogue of the paper's PIO gather / receive
// aggregation), and send_gso collapses a run of equal-size same-destination
// datagrams into ONE UDP_SEGMENT train. All batch state (mmsghdr/iovec/cmsg
// slabs) is preallocated inline so the batched paths stay allocation-free.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>

#include "common/annotate.h"

namespace fm::net {

/// Cumulative-counter bookkeeping for SO_RXQ_OVFL. The kernel attaches a
/// cumulative u32 drop count to received datagrams; turning that into a
/// monotone total needs delta accounting that survives wraparound. This
/// used to be open-coded at each receive site — it lives here so recv_one
/// and recv_batch share one implementation (and one unit test).
class RxqDropMeter {
 public:
  /// Feeds one cumulative reading from the kernel. The very first reading
  /// is absorbed as a delta from zero (the counter starts at zero with the
  /// socket, so the first observation IS the absolute drop count), and
  /// unsigned 32-bit subtraction makes wraparound come out right:
  /// last=0xFFFFFFF0, reading=5 → delta 21.
  FM_HOT_PATH void feed(std::uint32_t reading) {
    total_ += static_cast<std::uint32_t>(reading - last_);
    last_ = reading;
  }
  /// Monotone total of kernel-dropped datagrams observed so far.
  std::uint64_t total() const { return total_; }

 private:
  std::uint32_t last_ = 0;
  std::uint64_t total_ = 0;
};

/// One bound, nonblocking UDP/IPv4 socket on 127.0.0.1 with an
/// OS-assigned port. Construction aborts (FM_CHECK) on any socket-layer
/// failure: a harness that cannot even open its NIC has nothing to test.
class UdpSocket {
 public:
  /// Capacity of the preallocated mmsghdr/iovec slabs: the most datagrams
  /// one sendmmsg/recvmmsg call can carry. 64 matches UDP_MAX_SEGMENTS (the
  /// kernel's cap on a GSO train) so one staging ring size serves both.
  static constexpr std::size_t kMaxBatch = 64;

  UdpSocket();
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  int fd() const { return fd_; }
  /// The OS-assigned port (host byte order) — the node's "network address".
  std::uint16_t port() const { return port_; }

  /// Shrinks/grows the kernel buffers (0 leaves the default). Small receive
  /// buffers are how soak tests force *real* kernel drops instead of
  /// injected ones.
  void set_buffer_sizes(int rcvbuf_bytes, int sndbuf_bytes);

  enum class SendResult {
    kOk,          ///< Datagram handed to the kernel.
    kWouldBlock,  ///< EWOULDBLOCK / ENOBUFS: transient backpressure.
    kError,       ///< Anything else; the datagram is gone (retransmit path).
  };

  /// Sends one datagram to `addr` (nonblocking).
  SendResult send_to(const sockaddr_in& addr, const void* buf,
                     std::size_t len);

  /// One datagram of a TX burst. `addr` must outlive the send_batch call
  /// (in practice it points at the Cluster's stable per-node address
  /// table, so pointer equality also means "same destination").
  struct TxFrame {
    const void* data;
    std::uint32_t len;
    const sockaddr_in* addr;
  };

  /// Outcome of one send_batch call. Datagrams `[0, consumed)` are
  /// finished with (either handed to the kernel or counted in `errors` — an
  /// errored datagram is gone exactly like a dropped packet; FM-R's
  /// retransmit timer owns recovery). A hard error ends the call, so at
  /// most one datagram errors and it is the last one consumed: `[0, sent)`
  /// all reached the kernel. Datagrams `[consumed, n)` remain owned by the
  /// caller: they were NOT sent and must be retried later (`would_block`
  /// says the kernel pushed back; after an error the caller just calls
  /// again).
  struct BatchResult {
    std::size_t consumed = 0;  ///< sent + errored; never double-sent
    std::size_t sent = 0;      ///< datagrams actually handed to the kernel
    std::size_t errors = 0;    ///< datagrams rejected for good (ECONNREFUSED…)
    std::size_t syscalls = 0;  ///< kernel crossings spent on this burst
    bool would_block = false;  ///< hit transient backpressure mid-burst
  };

  /// Sends up to `n` datagrams with as few syscalls as possible (sendmmsg
  /// on Linux, a sendto loop elsewhere). Stops at the first transient
  /// backpressure signal or hard error; see BatchResult for the ownership
  /// contract. sendmmsg reports a hard error after the first datagram only
  /// as a short count, so a short count is retried once straight away: a
  /// refused datagram then comes back in `errors`, not as `would_block`.
  FM_HOT_PATH BatchResult send_batch(const TxFrame* frames, std::size_t n);

  /// Sends `iovcnt` equal-size frames (`seg_len` bytes each; the LAST may
  /// be shorter) to one destination as a single UDP_SEGMENT datagram train
  /// — one syscall, one kernel traversal, `iovcnt` datagrams on the wire.
  /// The frames need not be contiguous; the kernel linearizes the iovec.
  /// Callers must check gso_supported() first; kWouldBlock means the whole
  /// train stays owned by the caller, kError means the whole train is gone.
  FM_HOT_PATH SendResult send_gso(const sockaddr_in& addr, const iovec* iov,
                                  std::size_t iovcnt, std::uint16_t seg_len);

  /// Whether the running kernel accepts UDP_SEGMENT on this socket
  /// (probed once at construction; false after force_gso_unsupported).
  bool gso_supported() const { return gso_ok_; }

  /// Opts this socket into UDP_GRO: the kernel may coalesce a burst of
  /// equal-size datagrams into one oversized buffer + segment size, which
  /// recv_batch reports via RxMsg::gro_seg_len. Returns false (and changes
  /// nothing) when the kernel lacks support.
  bool enable_gro();

  /// One received buffer from recv_batch. When `gro_seg_len` is nonzero
  /// the buffer is a GRO train: every `gro_seg_len` bytes is one original
  /// datagram (the last segment may be shorter). Zero means one plain
  /// datagram.
  struct RxMsg {
    std::uint32_t len;
    std::uint32_t gro_seg_len;
    std::uint16_t src_port;
  };

  /// Drains up to `max_msgs` datagrams (≤ kMaxBatch) in one recvmmsg call.
  /// Buffer i is written at `slab + i * stride`; `out[i]` describes it.
  /// Returns the number received (0: nothing queued). Kernel drop counts
  /// ride along on cmsgs and are folded into kernel_drops().
  FM_HOT_PATH std::size_t recv_batch(std::uint8_t* slab, std::size_t stride,
                                     std::size_t max_msgs, RxMsg* out);

  /// Receives one datagram into `buf` (nonblocking). Returns the byte
  /// count, or -1 when nothing is queued. `src_port` gets the sender's
  /// port. Kernel drops are folded into kernel_drops(); a GRO train (only
  /// possible after enable_gro) is reported via `gro_seg_len` exactly like
  /// RxMsg::gro_seg_len.
  long recv_one(void* buf, std::size_t cap, std::uint16_t* src_port,
                std::uint32_t* gro_seg_len = nullptr);

  /// Monotone total of datagrams the kernel dropped on this socket's
  /// receive queue (SO_RXQ_OVFL), as observed by the receive calls so far.
  std::uint64_t kernel_drops() const { return rxq_meter_.total(); }

  /// Blocks up to `timeout_ms` for the socket to become readable.
  /// Returns true when it did.
  bool wait_readable(int timeout_ms);

  /// Zero-timeout readability check — the busy-poll primitive. One cheap
  /// syscall, never blocks.
  bool readable_now();

  /// Test hook: every Nth datagram send attempt reports kWouldBlock once,
  /// then clears itself (like real backpressure draining). Applies to
  /// send_to, send_batch (forcing short counts mid-burst) and send_gso.
  /// 0 disables.
  void set_debug_wouldblock_every(std::size_t every) {
    debug_wouldblock_every_ = every;
  }

  /// Test hook: pretend the kernel rejected the UDP_SEGMENT probe, forcing
  /// every GSO consumer down the graceful-fallback path.
  void force_gso_unsupported() { gso_ok_ = false; }

  /// Test hook: after `n` successful send_gso trains, every later send_gso
  /// reports kError without touching the wire — models a kernel that
  /// accepts the UDP_SEGMENT probe but fails live trains mid-run
  /// (EIO/EINVAL from a driver that lies about segmentation support).
  /// 0 disables.
  void set_debug_gso_fail_after(std::uint64_t n) { debug_gso_fail_after_ = n; }

  /// The loopback sockaddr for a given port (host byte order).
  static sockaddr_in loopback_addr(std::uint16_t port);

 private:
  /// True when the debug hook says the next send attempt must report
  /// kWouldBlock; consumes the block so the retry succeeds.
  FM_HOT_PATH bool debug_block_now();
  /// Frames the debug hook allows before the next forced block (at least 1
  /// when the hook is armed and debug_block_now was just checked).
  FM_HOT_PATH std::size_t debug_frames_until_block(std::size_t want) const;
  /// Parses SO_RXQ_OVFL / UDP_GRO cmsgs from one received message.
  FM_HOT_PATH void absorb_cmsgs(const msghdr& msg, std::uint32_t* gro_seg_len);

  int fd_ = -1;
  std::uint16_t port_ = 0;
  bool gso_ok_ = false;
  RxqDropMeter rxq_meter_;
  std::size_t debug_wouldblock_every_ = 0;
  std::uint64_t debug_send_attempts_ = 0;
  std::uint64_t debug_gso_fail_after_ = 0;
  std::uint64_t debug_gso_trains_ = 0;

  // Preallocated scatter/gather slabs for the batched paths. Sized for
  // kMaxBatch messages each; the RX control slab leaves room for both the
  // SO_RXQ_OVFL and UDP_GRO cmsgs. Non-Linux builds take the single-shot
  // fallback loops and need no mmsghdr storage.
  static constexpr std::size_t kCtlBytes = 64;
  struct RxCtl {
    alignas(alignof(cmsghdr)) char bytes[kCtlBytes];
  };
#ifdef __linux__
  // TX and RX get DISJOINT slabs: recv_batch caches its slab layout across
  // calls (see rx_init_* below), so send_batch scribbling over a shared
  // mmsghdr array would silently invalidate the cached receive headers
  // between drains — the datagrams would scatter into stale TX pointers.
  mmsghdr tx_mmsg_[kMaxBatch];
  iovec tx_iov_[kMaxBatch];
  mmsghdr rx_mmsg_[kMaxBatch];
  iovec rx_iov_[kMaxBatch];
  sockaddr_in rx_src_[kMaxBatch];
  RxCtl rx_ctl_[kMaxBatch];
  // recv_batch slab-layout cache: while the caller keeps draining into the
  // same slab/stride/count (the endpoint steady state), only the entries
  // the kernel dirtied last call ([0, rx_dirty_)) need repair per call.
  const std::uint8_t* rx_init_slab_ = nullptr;
  std::size_t rx_init_stride_ = 0;
  std::size_t rx_init_vlen_ = 0;
  std::size_t rx_dirty_ = 0;
#endif
};

}  // namespace fm::net
