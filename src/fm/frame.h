// FM wire format: frame header encode/decode.
//
// Every FM frame carries a fixed 16-byte header, then (for fragments of a
// segmented message) an 8-byte fragment extension, then the user payload,
// then `ack_count` piggybacked 32-bit acknowledgement sequence numbers,
// then (in FM-R CRC mode) a 4-byte CRC-32 trailer over everything before it:
//
//   0  u8  type         Data / Ack / Reject
//   1  u8  ack_count    number of 4-byte acks appended after the payload
//   2  u16 handler      destination handler id
//   4  u32 src          sending node
//   8  u32 seq          per-(sender,dest) frame sequence (flow control)
//  12  u16 payload_len  user bytes in this frame
//  14  u16 flags        bit0: fragment extension; bit1: CRC trailer
//  [16..24) u32 msg_id, u16 frag_index, u16 frag_count   (if fragmented)
//  [..+4)  u32 crc32    (if flags.bit1; last 4 bytes of the frame)
//
// The header — and the CRC trailer, when enabled — is charged on the wire
// and across the SBus like any other bytes, which is how header overhead
// shows up in the reproduction's bandwidth numbers exactly as it did in the
// paper's (and how the CRC's cost stays comparable to the Myricom API's
// checksum feature in Table 3).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/annotate.h"
#include "common/check.h"
#include "common/types.h"

namespace fm {

/// Frame kinds.
enum class FrameType : std::uint8_t {
  kData = 1,    ///< Ordinary handler-carrying message frame.
  kAck = 2,     ///< Standalone acknowledgement (acks in payload position).
  kReject = 3,  ///< A data frame returned to its sender (return-to-sender).
};

/// Decoded frame header.
struct FrameHeader {
  FrameType type = FrameType::kData;
  std::uint8_t ack_count = 0;
  HandlerId handler = kInvalidHandler;
  NodeId src = kInvalidNode;
  std::uint32_t seq = 0;
  std::uint16_t payload_len = 0;
  std::uint16_t flags = 0;

  // Fragment extension (valid when fragmented()).
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 0;

  static constexpr std::uint16_t kFlagFragmented = 1u << 0;
  static constexpr std::uint16_t kFlagCrc = 1u << 1;
  static constexpr std::size_t kBaseBytes = 16;
  static constexpr std::size_t kFragExtBytes = 8;
  static constexpr std::size_t kCrcBytes = 4;

  /// True when the fragment extension is present.
  bool fragmented() const { return (flags & kFlagFragmented) != 0; }
  /// True when a CRC-32 trailer terminates the frame (FM-R integrity mode).
  bool has_crc() const { return (flags & kFlagCrc) != 0; }

  /// Header bytes on the wire for this frame.
  std::size_t header_bytes() const {
    return kBaseBytes + (fragmented() ? kFragExtBytes : 0);
  }

  /// Total wire bytes: header + payload + piggybacked acks + CRC trailer.
  std::size_t wire_bytes() const {
    return header_bytes() + payload_len + 4u * ack_count +
           (has_crc() ? kCrcBytes : 0);
  }
};

// Wire-format pins: the encoder writes these byte counts field by field and
// every slab/ring slot is sized from them, so drift must fail the build
// here, not corrupt frames at runtime.
static_assert(std::is_trivially_copyable_v<FrameHeader>,
              "decoded headers are passed and copied as plain data");
static_assert(FrameHeader::kBaseBytes == 16,
              "base header layout is fixed on the wire");
static_assert(FrameHeader::kFragExtBytes == 8,
              "fragment extension layout is fixed on the wire");
static_assert(FrameHeader::kCrcBytes == 4, "CRC-32 trailer is four bytes");
static_assert(sizeof(std::uint32_t) == 4 && sizeof(std::uint16_t) == 2,
              "wire fields assume exact-width integer sizes");

/// The largest possible wire frame for a given per-frame payload budget:
/// header, fragment extension, payload, a full 255-ack trailer, and the CRC.
/// Sizes SendWindow slabs and SPSC ring slots so any legal frame fits.
constexpr std::size_t max_wire_bytes(std::size_t frame_payload) {
  return FrameHeader::kBaseBytes + FrameHeader::kFragExtBytes + frame_payload +
         4u * 255u + FrameHeader::kCrcBytes;
}

/// Splits packed frames: the wire length of the frame at the front of the
/// `left` bytes at `data`, read from its self-describing header. A datagram
/// may carry several whole frames back to back; walk_frames steps through
/// it with this. A header that is short, or that claims more bytes than
/// remain, makes the whole remainder one frame (which decode_header then
/// rejects as malformed), so the walk never reads past the buffer. Returns
/// 0 only when `left` is 0. The type byte is not checked here: a frame
/// whose length fits is split off and judged by decode_header like any
/// other.
FM_HOT_PATH std::size_t next_frame_len(const std::uint8_t* data,
                                       std::size_t left);

/// Walks the `len` bytes of a datagram that carries whole frames back to
/// back, handing each to `on_frame(frame, frame_len)` in turn (an empty
/// datagram is one empty frame). `on_frame` returns false when the frame
/// failed its integrity checks. Its length was read from the bytes that
/// failed, so no boundary after it can be trusted and the walk ends there.
/// Returns the bytes walked: less than `len` leaves a remainder that the
/// caller counts as one malformed frame. Never reads past `data + len`.
template <typename OnFrame>
FM_HOT_PATH std::size_t walk_frames(const std::uint8_t* data, std::size_t len,
                                    OnFrame&& on_frame) {
  std::size_t at = 0;
  do {
    const std::size_t n = next_frame_len(data + at, len - at);
    const bool intact = on_frame(data + at, n);
    at += n;
    if (!intact) break;
  } while (at < len);
  return at;
}

/// Serializes a frame directly into `out`, which must hold at least
/// `header.wire_bytes()` bytes (the return value). This is the hot-path
/// encoder: the shm transport points it at a send-window slab slot or a
/// ring slot, so frame construction is a single pass with no intermediate
/// buffer — the PIO-gather idea from §4.3 of the paper.
/// `payload` may be null when `header.payload_len` is zero.
FM_HOT_PATH std::size_t encode_frame_into(std::uint8_t* out,
                                          const FrameHeader& header,
                                          const void* payload,
                                          const std::uint32_t* acks);

/// Serializes a frame into a fresh vector (convenience wrapper around
/// encode_frame_into for cold paths and tests).
FM_COLD_PATH std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                                    const void* payload,
                                                    const std::uint32_t* acks);

/// Parses the header of an encoded frame. Returns std::nullopt on a
/// malformed buffer (too short / inconsistent lengths).
FM_HOT_PATH std::optional<FrameHeader> decode_header(const std::uint8_t* data,
                                                     std::size_t len);

/// Pointer to the payload region of an encoded frame.
FM_HOT_PATH inline const std::uint8_t* frame_payload(
    const FrameHeader& h, const std::uint8_t* data) {
  return data + h.header_bytes();
}

/// Extracts the i-th piggybacked ack (i < ack_count).
FM_HOT_PATH std::uint32_t frame_ack(const FrameHeader& h,
                                    const std::uint8_t* data, std::size_t i);

/// Verifies the CRC-32 trailer of a decoded frame. Frames without the CRC
/// flag trivially pass (there is nothing to check); frames with it pass only
/// when the stored trailer matches a fresh CRC over the preceding bytes.
FM_HOT_PATH bool frame_crc_ok(const FrameHeader& h,
                              const std::uint8_t* data);

}  // namespace fm
