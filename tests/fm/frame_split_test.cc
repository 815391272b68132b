// next_frame_len / walk_frames: splitting a datagram that carries several
// whole frames back to back. The net backend packs frames for one peer
// into one datagram and walks it with these helpers, so the walk must find
// every frame exactly, a short or lying header must end it inside the
// buffer as one malformed frame, and a frame that fails its integrity
// checks must end it before the bytes after it are read as frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fm/frame.h"

namespace fm {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// The receive loop's walk with every frame judged intact: (offset,
/// length) of each frame in `d`. An empty datagram is one empty frame,
/// exactly as the endpoint feeds it to process_frame.
std::vector<std::pair<std::size_t, std::size_t>> split(const Bytes& d) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t walked =
      walk_frames(d.data(), d.size(), [&](const std::uint8_t* f, std::size_t n) {
        EXPECT_LE(f + n, d.data() + d.size());
        out.emplace_back(static_cast<std::size_t>(f - d.data()), n);
        return true;
      });
  EXPECT_EQ(walked, d.size());
  return out;
}

Bytes data_frame(std::uint32_t seq, std::uint16_t payload_len,
                 std::uint16_t flags = 0, std::uint8_t acks = 0) {
  FrameHeader h;
  h.type = FrameType::kData;
  h.handler = 5;
  h.src = 2;
  h.seq = seq;
  h.payload_len = payload_len;
  h.flags = flags;
  if (h.fragmented()) {
    h.msg_id = seq * 7;
    h.frag_index = 1;
    h.frag_count = 3;
  }
  h.ack_count = acks;
  Bytes payload(payload_len);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(seq + i);
  std::vector<std::uint32_t> ack(acks);
  for (std::size_t i = 0; i < ack.size(); ++i)
    ack[i] = static_cast<std::uint32_t>(1000 + i);
  return encode_frame(h, payload.data(), ack.data());
}

Bytes ack_frame(std::uint8_t n, bool crc) {
  FrameHeader h;
  h.type = FrameType::kAck;
  h.src = 1;
  h.ack_count = n;
  if (crc) h.flags |= FrameHeader::kFlagCrc;
  std::vector<std::uint32_t> ack(n);
  for (std::size_t i = 0; i < ack.size(); ++i)
    ack[i] = static_cast<std::uint32_t>(i);
  return encode_frame(h, nullptr, ack.data());
}

Bytes pack(const std::vector<Bytes>& frames) {
  Bytes d;
  for (const Bytes& f : frames) d.insert(d.end(), f.begin(), f.end());
  return d;
}

/// Splits `d` and checks it yields exactly `frames`, each decoding cleanly
/// with a valid CRC where it carries one.
void expect_splits_into(const Bytes& d, const std::vector<Bytes>& frames) {
  const auto parts = split(d);
  ASSERT_EQ(parts.size(), frames.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    SCOPED_TRACE(i);
    const auto [off, len] = parts[i];
    EXPECT_EQ(Bytes(d.begin() + off, d.begin() + off + len), frames[i]);
    const auto h = decode_header(d.data() + off, len);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(frame_crc_ok(*h, d.data() + off));
  }
}

TEST(FrameSplit, OneFrameIsTheWholeDatagram) {
  const Bytes f = data_frame(1, 16);
  EXPECT_EQ(next_frame_len(f.data(), f.size()), f.size());
  expect_splits_into(f, {f});
}

TEST(FrameSplit, SeveralFramesSplitAtTheirHeaderLengths) {
  const std::vector<Bytes> frames = {
      data_frame(1, 16), data_frame(2, 0), data_frame(3, 128, 0, 4),
      ack_frame(1, false), data_frame(4, 7)};
  expect_splits_into(pack(frames), frames);
}

TEST(FrameSplit, ZeroLengthDatagramIsOneEmptyFrame) {
  const Bytes d;
  EXPECT_EQ(next_frame_len(d.data(), 0), 0u);
  const auto parts = split(d);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].second, 0u);
  EXPECT_FALSE(decode_header(d.data(), 0).has_value());
}

TEST(FrameSplit, FragmentedAndCrcFramesSplitExactly) {
  constexpr auto kFrag = FrameHeader::kFlagFragmented;
  constexpr auto kCrc = FrameHeader::kFlagCrc;
  const std::vector<Bytes> frames = {
      data_frame(10, 128, kFrag | kCrc, 3), data_frame(11, 5, kCrc),
      data_frame(12, 64, kFrag), ack_frame(8, true),
      data_frame(13, 128, kFrag | kCrc)};
  expect_splits_into(pack(frames), frames);
}

TEST(FrameSplit, FullAckTrailerSplitsExactly) {
  // 255 acks is the largest trailer a header can describe: the standalone
  // ack alone is 16 + 1020 + 4 bytes, and a data frame with a full
  // trailer reaches max_wire_bytes.
  const Bytes big_ack = ack_frame(255, true);
  ASSERT_EQ(big_ack.size(), 16u + 4u * 255u + 4u);
  const Bytes big_data = data_frame(
      20, 128, FrameHeader::kFlagFragmented | FrameHeader::kFlagCrc, 255);
  ASSERT_EQ(big_data.size(), max_wire_bytes(128));
  const std::vector<Bytes> frames = {data_frame(19, 16), big_ack, big_data};
  expect_splits_into(pack(frames), frames);
}

TEST(FrameSplit, TruncatedHeaderBecomesOneMalformedRemainder) {
  const Bytes good = data_frame(1, 32);
  for (std::size_t cut : {1u, 8u, 15u}) {
    SCOPED_TRACE(cut);
    Bytes d = good;
    const Bytes next = data_frame(2, 32);
    d.insert(d.end(), next.begin(), next.begin() + cut);
    const auto parts = split(d);
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0].second, good.size());
    EXPECT_EQ(parts[1].second, cut);
    EXPECT_FALSE(decode_header(d.data() + parts[1].first, cut).has_value());
  }
  // A base header announcing the fragment extension with fewer than 24
  // bytes left is truncated too.
  const Bytes frag = data_frame(3, 0, FrameHeader::kFlagFragmented);
  EXPECT_EQ(next_frame_len(frag.data(), 20), 20u);
  EXPECT_FALSE(decode_header(frag.data(), 20).has_value());
}

TEST(FrameSplit, OverrunningLengthBecomesOneMalformedRemainder) {
  const Bytes first = data_frame(1, 16);
  Bytes liar = data_frame(2, 16);
  // payload_len claims 200 bytes; only 16 follow the header.
  const std::uint16_t claimed = 200;
  std::memcpy(liar.data() + 12, &claimed, sizeof claimed);
  Bytes d = pack({first, liar});
  const auto parts = split(d);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].second, first.size());
  EXPECT_EQ(parts[1].second, liar.size());
  EXPECT_FALSE(decode_header(d.data() + parts[1].first, parts[1].second)
                   .has_value());
  // An ack count overrunning the datagram by a single byte is caught too.
  Bytes acks = ack_frame(2, false);
  acks.pop_back();
  EXPECT_EQ(next_frame_len(acks.data(), acks.size()), acks.size());
  EXPECT_FALSE(decode_header(acks.data(), acks.size()).has_value());
}

TEST(FrameSplit, RandomGarbageWalkStaysInsideTheBuffer) {
  // Every step makes progress and no step reaches past the end; run under
  // ASan, an over-read would be reported.
  Xoshiro256 rng(77);
  for (int round = 0; round < 2000; ++round) {
    Bytes d(rng.below(2048));
    for (auto& b : d) b = static_cast<std::uint8_t>(rng());
    std::size_t total = 0;
    for (const auto& [off, len] : split(d)) {
      EXPECT_EQ(off, total);
      if (!d.empty()) EXPECT_GT(len, 0u);
      total += len;
    }
    EXPECT_EQ(total, d.size());
  }
}

/// The receiver's integrity verdict in CRC mode (process_frame): the frame
/// decodes, carries the CRC flag, and its trailer matches.
bool intact_with_crc(const std::uint8_t* f, std::size_t n) {
  const auto h = decode_header(f, n);
  return h.has_value() && h->has_crc() && frame_crc_ok(*h, f);
}

/// A CRC-less data frame to plant inside another frame: what a misaligned
/// walk would find after a length field shrank.
Bytes planted_header() { return data_frame(0x7777, 4); }

/// A CRC frame with `len` payload bytes and `acks` acks, whose bytes from
/// offset `at` on (counted from the frame's start, before the CRC is
/// computed) are overwritten with `planted`.
Bytes carrier(std::uint16_t len, std::uint8_t acks, std::size_t at,
              const Bytes& planted) {
  FrameHeader h;
  h.type = FrameType::kData;
  h.handler = 5;
  h.src = 2;
  h.seq = 1;
  h.payload_len = len;
  h.flags = FrameHeader::kFlagCrc;
  h.ack_count = acks;
  // Payload and ack trailer as one body, so the plant may span both.
  Bytes body(len + 4u * acks, 0xEE);
  std::copy(planted.begin(), planted.end(),
            body.begin() + (at - FrameHeader::kBaseBytes));
  std::vector<std::uint32_t> ack(acks);
  if (acks) std::memcpy(ack.data(), body.data() + len, 4u * acks);
  return encode_frame(h, body.data(), ack.data());
}

/// Walks `d` with the CRC-mode verdict; returns the offsets handed out and
/// the bytes walked.
std::pair<std::vector<std::size_t>, std::size_t> walk_with_crc(
    const Bytes& d) {
  std::vector<std::size_t> offsets;
  const std::size_t walked = walk_frames(
      d.data(), d.size(), [&](const std::uint8_t* f, std::size_t n) {
        offsets.push_back(static_cast<std::size_t>(f - d.data()));
        return intact_with_crc(f, n);
      });
  return {offsets, walked};
}

/// Checks that a walk reaching `at` would find the planted header there as
/// a frame that decodes, so only the stop keeps it from being processed.
void expect_plant_at(const Bytes& d, std::size_t at, const Bytes& planted) {
  ASSERT_EQ(next_frame_len(d.data() + at, d.size() - at), planted.size());
  EXPECT_TRUE(decode_header(d.data() + at, planted.size()).has_value());
}

TEST(FrameSplit, ShrunkPayloadLengthEndsTheWalkBeforeAPlantedHeader) {
  // One bit flip takes payload_len from 96 to 32, moving the next boundary
  // to byte 16 + 32 + 4 of the frame, inside its payload, where a valid
  // CRC-less header is planted. The CRC check fails on the shrunk frame,
  // and the walk must stop there.
  const Bytes planted = planted_header();
  const std::size_t plant_at = FrameHeader::kBaseBytes + 32 + 4;
  Bytes first = carrier(96, 0, plant_at, planted);
  const std::uint16_t shrunk = 32;
  std::memcpy(first.data() + 12, &shrunk, sizeof shrunk);
  const Bytes d = pack({first, data_frame(2, 16, FrameHeader::kFlagCrc)});
  expect_plant_at(d, plant_at, planted);
  const auto [offsets, walked] = walk_with_crc(d);
  EXPECT_EQ(offsets, std::vector<std::size_t>{0});
  EXPECT_LT(walked, d.size()) << "the rest must be one malformed frame";
}

TEST(FrameSplit, ShrunkAckCountEndsTheWalkBeforeAPlantedHeader) {
  // One bit flip takes ack_count from 14 to 6, moving the next boundary 32
  // bytes back, into the ack trailer, where a valid CRC-less header is
  // planted across acks 6..10.
  const Bytes planted = planted_header();
  const std::uint16_t len = 16;
  const std::size_t plant_at = FrameHeader::kBaseBytes + len + 4 * 6 + 4;
  Bytes first = carrier(len, 14, plant_at, planted);
  first[1] = 6;
  const Bytes d = pack({first, ack_frame(3, true)});
  expect_plant_at(d, plant_at, planted);
  const auto [offsets, walked] = walk_with_crc(d);
  EXPECT_EQ(offsets, std::vector<std::size_t>{0});
  EXPECT_LT(walked, d.size());
}

TEST(FrameSplit, CrcModeFrameWithoutTheFlagEndsTheWalk) {
  // Clearing the CRC flag drops the trailer from the frame's length, so
  // the frame would decode with no CRC check and the walk would go on at
  // its trailer. In CRC mode such a frame is not intact.
  Bytes first = data_frame(1, 16, FrameHeader::kFlagCrc);
  first[14] &= static_cast<std::uint8_t>(~FrameHeader::kFlagCrc);
  ASSERT_TRUE(decode_header(first.data(), first.size() - 4).has_value());
  const Bytes d = pack({first, data_frame(2, 16, FrameHeader::kFlagCrc)});
  const auto [offsets, walked] = walk_with_crc(d);
  EXPECT_EQ(offsets, std::vector<std::size_t>{0});
  EXPECT_EQ(walked, first.size() - 4);
}

TEST(FrameSplit, IntactCrcFramesWalkToTheEnd) {
  const std::vector<Bytes> frames = {
      data_frame(1, 16, FrameHeader::kFlagCrc), ack_frame(4, true),
      data_frame(2, 128, FrameHeader::kFlagFragmented | FrameHeader::kFlagCrc,
                 2)};
  const Bytes d = pack(frames);
  const auto [offsets, walked] = walk_with_crc(d);
  EXPECT_EQ(offsets.size(), frames.size());
  EXPECT_EQ(walked, d.size());
}

}  // namespace
}  // namespace fm
