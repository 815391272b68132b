#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"

// UDP_SEGMENT / UDP_GRO arrived in Linux 4.18 / 5.0; define the sockopt
// numbers when building against older uapi headers. The runtime probe is
// what actually decides whether they are used.
#if defined(__linux__)
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#endif

namespace fm::net {

UdpSocket::UdpSocket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  FM_CHECK_MSG(fd_ >= 0, "socket(AF_INET, SOCK_DGRAM) failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  FM_CHECK(flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0);
#ifdef SO_RXQ_OVFL
  // Ask the kernel to attach its cumulative receive-queue drop count to
  // every received datagram — the ground truth for "the link lost frames".
  int on = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof on);
#endif
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // OS-assigned
  FM_CHECK_MSG(
      ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0,
      "bind(127.0.0.1:0) failed");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  FM_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0);
  port_ = ntohs(bound.sin_port);
  FM_CHECK(port_ != 0);
#if defined(__linux__)
  // Probe UDP_SEGMENT support: setting the per-socket segment size to 0
  // (= "no default segmentation") succeeds iff the kernel knows the
  // option, and changes nothing either way — send_gso passes the real
  // segment size per call via cmsg.
  int zero = 0;
  gso_ok_ = ::setsockopt(fd_, SOL_UDP, UDP_SEGMENT, &zero, sizeof zero) == 0;
#endif
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpSocket::set_buffer_sizes(int rcvbuf_bytes, int sndbuf_bytes) {
  // Best-effort: the kernel clamps to [SOCK_MIN_*BUF, *mem_max] anyway, and
  // the tests that depend on a small buffer assert on observed drops, not
  // on the buffer size they asked for.
  if (rcvbuf_bytes > 0)
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                       sizeof rcvbuf_bytes);
  if (sndbuf_bytes > 0)
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes,
                       sizeof sndbuf_bytes);
}

bool UdpSocket::enable_gro() {
#if defined(__linux__)
  if (!gso_ok_) return false;  // forced-unsupported hook covers GRO too
  int on = 1;
  return ::setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof on) == 0;
#else
  return false;
#endif
}

bool UdpSocket::debug_block_now() {
  if (debug_wouldblock_every_ == 0) return false;
  if ((debug_send_attempts_ + 1) % debug_wouldblock_every_ == 0) {
    // Consume the block so the retry goes through — forced backpressure is
    // transient, like the kernel buffer draining underneath a real
    // EWOULDBLOCK.
    ++debug_send_attempts_;
    return true;
  }
  return false;
}

std::size_t UdpSocket::debug_frames_until_block(std::size_t want) const {
  if (debug_wouldblock_every_ == 0) return want;
  const std::size_t until =
      debug_wouldblock_every_ -
      (debug_send_attempts_ % debug_wouldblock_every_) - 1;
  return until < want ? until : want;
}

UdpSocket::SendResult UdpSocket::send_to(const sockaddr_in& addr,
                                         const void* buf, std::size_t len) {
  if (debug_block_now()) return SendResult::kWouldBlock;
  for (;;) {
    const ssize_t n =
        ::sendto(fd_, buf, len, 0, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof addr);
    if (n >= 0) {
      ++debug_send_attempts_;
      return SendResult::kOk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS)
      return SendResult::kWouldBlock;
    // ECONNREFUSED etc.: the datagram is lost exactly like a dropped
    // packet; FM-R's retransmit timer owns recovery.
    ++debug_send_attempts_;
    return SendResult::kError;
  }
}

UdpSocket::BatchResult UdpSocket::send_batch(const TxFrame* frames,
                                             std::size_t n) {
  BatchResult r;
#ifdef __linux__
  bool retried_short = false;
  while (r.consumed < n) {
    if (debug_block_now()) {
      r.would_block = true;
      return r;
    }
    std::size_t vlen = n - r.consumed;
    if (vlen > kMaxBatch) vlen = kMaxBatch;
    vlen = debug_frames_until_block(vlen);
    for (std::size_t i = 0; i < vlen; ++i) {
      const TxFrame& f = frames[r.consumed + i];
      tx_iov_[i].iov_base = const_cast<void*>(f.data);
      tx_iov_[i].iov_len = f.len;
      std::memset(&tx_mmsg_[i], 0, sizeof tx_mmsg_[i]);
      tx_mmsg_[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(f.addr);
      tx_mmsg_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      tx_mmsg_[i].msg_hdr.msg_iov = &tx_iov_[i];
      tx_mmsg_[i].msg_hdr.msg_iovlen = 1;
    }
    int sent = ::sendmmsg(fd_, tx_mmsg_, static_cast<unsigned>(vlen), 0);
    ++r.syscalls;
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        r.would_block = true;
        return r;
      }
      // A hard per-datagram error (e.g. ECONNREFUSED bounced back from a
      // dead peer's port) poisons the FIRST frame of the burst: count it
      // gone and end the call there, so the refused datagram is the last
      // one consumed. The caller's next call carries the rest.
      r.consumed += 1;
      r.errors += 1;
      return r;
    }
    r.consumed += static_cast<std::size_t>(sent);
    r.sent += static_cast<std::size_t>(sent);
    debug_send_attempts_ += static_cast<std::uint64_t>(sent);
    if (static_cast<std::size_t>(sent) < vlen) {
      // Short count: the kernel took a prefix and stopped at a datagram it
      // would not take, dropping the reason. Retry the tail once straight
      // away: a hard error then comes back as -1 on that datagram (counted
      // in errors above), while backpressure blocks or short-counts again.
      if (retried_short) {
        r.would_block = true;
        return r;
      }
      retried_short = true;
      continue;
    }
    retried_short = false;
  }
#else
  // Portable fallback: the same ownership contract, one syscall per frame.
  while (r.consumed < n) {
    const TxFrame& f = frames[r.consumed];
    const SendResult s = send_to(*f.addr, f.data, f.len);
    ++r.syscalls;
    if (s == SendResult::kWouldBlock) {
      r.would_block = true;
      return r;
    }
    ++r.consumed;
    if (s != SendResult::kOk) {
      ++r.errors;
      return r;
    }
    ++r.sent;
  }
#endif
  return r;
}

UdpSocket::SendResult UdpSocket::send_gso(const sockaddr_in& addr,
                                          const iovec* iov, std::size_t iovcnt,
                                          std::uint16_t seg_len) {
#ifdef __linux__
  FM_CHECK_MSG(gso_ok_, "send_gso without gso_supported()");
  FM_CHECK(iovcnt >= 1 && iovcnt <= kMaxBatch);
  if (debug_gso_fail_after_ > 0 && debug_gso_trains_ >= debug_gso_fail_after_)
    return SendResult::kError;  // forced mid-run EIO/EINVAL (see header)
  if (debug_block_now()) return SendResult::kWouldBlock;
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_in*>(&addr);
  msg.msg_namelen = sizeof addr;
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = iovcnt;
  alignas(alignof(cmsghdr)) char ctl[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  msg.msg_control = ctl;
  msg.msg_controllen = sizeof ctl;
  cmsghdr* c = CMSG_FIRSTHDR(&msg);
  c->cmsg_level = SOL_UDP;
  c->cmsg_type = UDP_SEGMENT;
  c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  std::memcpy(CMSG_DATA(c), &seg_len, sizeof seg_len);
  for (;;) {
    const ssize_t n = ::sendmsg(fd_, &msg, 0);
    if (n >= 0) {
      debug_send_attempts_ += iovcnt;
      ++debug_gso_trains_;
      return SendResult::kOk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS)
      return SendResult::kWouldBlock;
    debug_send_attempts_ += iovcnt;
    return SendResult::kError;
  }
#else
  (void)addr;
  (void)iov;
  (void)iovcnt;
  (void)seg_len;
  FM_CHECK_MSG(false, "send_gso without gso_supported()");
  return SendResult::kError;
#endif
}

void UdpSocket::absorb_cmsgs(const msghdr& msg, std::uint32_t* gro_seg_len) {
  if (gro_seg_len != nullptr) *gro_seg_len = 0;
  for (const cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(const_cast<msghdr*>(&msg), const_cast<cmsghdr*>(c))) {
#ifdef SO_RXQ_OVFL
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
      std::uint32_t dropped = 0;
      std::memcpy(&dropped, CMSG_DATA(c), sizeof dropped);
      rxq_meter_.feed(dropped);
    }
#endif
#ifdef __linux__
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO &&
        gro_seg_len != nullptr) {
      int seg = 0;
      std::memcpy(&seg, CMSG_DATA(c), sizeof seg);
      if (seg > 0) *gro_seg_len = static_cast<std::uint32_t>(seg);
    }
#endif
  }
}

std::size_t UdpSocket::recv_batch(std::uint8_t* slab, std::size_t stride,
                                  std::size_t max_msgs, RxMsg* out) {
#ifdef __linux__
  const std::size_t vlen = max_msgs < kMaxBatch ? max_msgs : kMaxBatch;
  if (slab != rx_init_slab_ || stride != rx_init_stride_ ||
      vlen != rx_init_vlen_) {
    // New slab layout: build every entry once. The steady state (the
    // endpoint always drains into the same preallocated slab with the
    // same budget) never takes this branch after the first call.
    for (std::size_t i = 0; i < vlen; ++i) {
      rx_iov_[i].iov_base = slab + i * stride;
      rx_iov_[i].iov_len = stride;
      std::memset(&rx_mmsg_[i], 0, sizeof rx_mmsg_[i]);
      rx_mmsg_[i].msg_hdr.msg_name = &rx_src_[i];
      rx_mmsg_[i].msg_hdr.msg_namelen = sizeof rx_src_[i];
      rx_mmsg_[i].msg_hdr.msg_iov = &rx_iov_[i];
      rx_mmsg_[i].msg_hdr.msg_iovlen = 1;
      rx_mmsg_[i].msg_hdr.msg_control = rx_ctl_[i].bytes;
      rx_mmsg_[i].msg_hdr.msg_controllen = kCtlBytes;
    }
    rx_init_slab_ = slab;
    rx_init_stride_ = stride;
    rx_init_vlen_ = vlen;
  } else {
    // Same layout as last time: the kernel only mutated the entries that
    // actually received a datagram ([0, last count)), and only the
    // length fields it reports results through (namelen, controllen,
    // flags). Repair just those entries, so an idle or one-datagram poll
    // costs O(1) setup instead of O(kMaxBatch).
    for (std::size_t i = 0; i < rx_dirty_; ++i) {
      rx_mmsg_[i].msg_hdr.msg_namelen = sizeof rx_src_[i];
      rx_mmsg_[i].msg_hdr.msg_controllen = kCtlBytes;
    }
  }
  rx_dirty_ = 0;
  int got;
  for (;;) {
    got = ::recvmmsg(fd_, rx_mmsg_, static_cast<unsigned>(vlen), 0, nullptr);
    if (got >= 0) break;
    if (errno == EINTR) continue;
    return 0;  // EAGAIN or a transient error: nothing deliverable now
  }
  rx_dirty_ = static_cast<std::size_t>(got);
  for (int i = 0; i < got; ++i) {
    out[i].len = rx_mmsg_[i].msg_len;
    absorb_cmsgs(rx_mmsg_[i].msg_hdr, &out[i].gro_seg_len);
    out[i].src_port = ntohs(rx_src_[i].sin_port);
  }
  return static_cast<std::size_t>(got);
#else
  // Portable fallback: one recv_one per slot until the queue runs dry.
  std::size_t got = 0;
  while (got < max_msgs) {
    const long n = recv_one(slab + got * stride, stride, &out[got].src_port,
                            &out[got].gro_seg_len);
    if (n < 0) break;
    out[got].len = static_cast<std::uint32_t>(n);
    ++got;
  }
  return got;
#endif
}

long UdpSocket::recv_one(void* buf, std::size_t cap, std::uint16_t* src_port,
                         std::uint32_t* gro_seg_len) {
  sockaddr_in src{};
  iovec iov{buf, cap};
  msghdr msg{};
  msg.msg_name = &src;
  msg.msg_namelen = sizeof src;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(alignof(cmsghdr)) char ctl[kCtlBytes];
  msg.msg_control = ctl;
  msg.msg_controllen = sizeof ctl;
  for (;;) {
    const ssize_t n = ::recvmsg(fd_, &msg, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;  // EAGAIN or a transient error: nothing deliverable now
    }
    absorb_cmsgs(msg, gro_seg_len);
    if (src_port != nullptr) *src_port = ntohs(src.sin_port);
    return static_cast<long>(n);
  }
}

bool UdpSocket::wait_readable(int timeout_ms) {
  pollfd p{fd_, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    return r > 0 && (p.revents & POLLIN) != 0;
  }
}

bool UdpSocket::readable_now() {
  pollfd p{fd_, POLLIN, 0};
  const int r = ::poll(&p, 1, 0);
  return r > 0 && (p.revents & POLLIN) != 0;
}

sockaddr_in UdpSocket::loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace fm::net
