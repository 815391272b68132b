#include "fm/frame.h"

#include "common/crc32.h"

namespace fm {
namespace {

template <typename T>
FM_HOT_PATH void put(std::uint8_t*& out, T v) {
  std::memcpy(out, &v, sizeof(T));
  out += sizeof(T);
}

template <typename T>
FM_HOT_PATH T get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// The three fields that fix a frame's wire length. decode_header and
/// next_frame_len both read them here, so the layout is spelled once.
FM_HOT_PATH void get_length_fields(const std::uint8_t* data, FrameHeader* h) {
  h->ack_count = get<std::uint8_t>(data + 1);
  h->payload_len = get<std::uint16_t>(data + 12);
  h->flags = get<std::uint16_t>(data + 14);
}

}  // namespace

std::size_t encode_frame_into(std::uint8_t* out, const FrameHeader& h,
                              const void* payload, const std::uint32_t* acks) {
  FM_CHECK(h.payload_len == 0 || payload != nullptr);
  FM_CHECK(h.ack_count == 0 || acks != nullptr);
  std::uint8_t* p = out;
  put<std::uint8_t>(p, static_cast<std::uint8_t>(h.type));
  put<std::uint8_t>(p, h.ack_count);
  put<std::uint16_t>(p, h.handler);
  put<std::uint32_t>(p, h.src);
  put<std::uint32_t>(p, h.seq);
  put<std::uint16_t>(p, h.payload_len);
  put<std::uint16_t>(p, h.flags);
  if (h.fragmented()) {
    put<std::uint32_t>(p, h.msg_id);
    put<std::uint16_t>(p, h.frag_index);
    put<std::uint16_t>(p, h.frag_count);
  }
  if (h.payload_len) {
    std::memcpy(p, payload, h.payload_len);
    p += h.payload_len;
  }
  for (std::size_t i = 0; i < h.ack_count; ++i) put<std::uint32_t>(p, acks[i]);
  if (h.has_crc())
    put<std::uint32_t>(p, crc32(out, static_cast<std::size_t>(p - out)));
  const auto n = static_cast<std::size_t>(p - out);
  FM_CHECK(n == h.wire_bytes());
  return n;
}

std::vector<std::uint8_t> encode_frame(const FrameHeader& h,
                                       const void* payload,
                                       const std::uint32_t* acks) {
  std::vector<std::uint8_t> out(h.wire_bytes());
  encode_frame_into(out.data(), h, payload, acks);
  return out;
}

std::optional<FrameHeader> decode_header(const std::uint8_t* data,
                                         std::size_t len) {
  if (len < FrameHeader::kBaseBytes) return std::nullopt;
  FrameHeader h;
  std::uint8_t type = get<std::uint8_t>(data + 0);
  if (type < 1 || type > 3) return std::nullopt;
  h.type = static_cast<FrameType>(type);
  get_length_fields(data, &h);
  h.handler = get<std::uint16_t>(data + 2);
  h.src = get<std::uint32_t>(data + 4);
  h.seq = get<std::uint32_t>(data + 8);
  if (h.fragmented()) {
    if (len < FrameHeader::kBaseBytes + FrameHeader::kFragExtBytes)
      return std::nullopt;
    h.msg_id = get<std::uint32_t>(data + 16);
    h.frag_index = get<std::uint16_t>(data + 20);
    h.frag_count = get<std::uint16_t>(data + 22);
  }
  if (h.wire_bytes() != len) return std::nullopt;
  return h;
}

std::size_t next_frame_len(const std::uint8_t* data, std::size_t left) {
  if (left < FrameHeader::kBaseBytes) return left;
  FrameHeader h;
  get_length_fields(data, &h);
  const std::size_t len = h.wire_bytes();
  return len <= left ? len : left;
}

std::uint32_t frame_ack(const FrameHeader& h, const std::uint8_t* data,
                        std::size_t i) {
  FM_CHECK(i < h.ack_count);
  return get<std::uint32_t>(data + h.header_bytes() + h.payload_len + 4 * i);
}

bool frame_crc_ok(const FrameHeader& h, const std::uint8_t* data) {
  if (!h.has_crc()) return true;
  const std::size_t covered = h.wire_bytes() - FrameHeader::kCrcBytes;
  return get<std::uint32_t>(data + covered) == crc32(data, covered);
}

}  // namespace fm
