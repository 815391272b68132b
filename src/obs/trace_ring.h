// FM-Scope structured trace sink: a preallocated flight recorder of
// fixed-size POD records, cheap enough for the shm hot path.
//
// A tracer that pays heap strings per record and silently truncates
// details is fine for a coroutine simulator but fatal for a transport
// whose steady state is proven allocation-free
// (tests/shm/shm_alloc_test.cc). This ring avoids both:
//
//   * Categories are interned once at setup time; the hot path stores a
//     16-bit id.
//   * Records are 64 bytes (one cache line), written in place into a
//     buffer preallocated by enable(). A disabled ring costs one branch
//     per event; an enabled ring costs one record write and never touches
//     the heap.
//   * The ring is a flight recorder: when full it overwrites the oldest
//     record and counts the loss in dropped(). Formatted details that do
//     not fit are clipped, flagged on the record, and counted in
//     clipped() — truncation is always reported, never silent.
//
// Phases follow the Chrome trace-event convention so exports map 1:1:
// 'B'/'E' bracket a duration, 'i' is an instant, 'C' samples counters.
#pragma once

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/annotate.h"

namespace fm::obs {

/// One fixed-size trace record (exactly one cache line).
struct TraceRecord {
  static constexpr std::size_t kDetailBytes = 44;

  std::uint64_t ts_ns = 0;  ///< Timebase owned by the producer (sim or wall).
  std::uint16_t cat = 0;    ///< Interned category id.
  char phase = 'i';         ///< 'B', 'E', 'i', or 'C'.
  std::uint8_t flags = 0;   ///< kClippedFlag.
  std::uint32_t a = 0;      ///< POD payload (e.g. peer id).
  std::uint32_t b = 0;      ///< POD payload (e.g. sequence number).
  char detail[kDetailBytes] = {0};  ///< NUL-terminated text; may be empty.

  static constexpr std::uint8_t kClippedFlag = 1;
  bool clipped() const { return (flags & kClippedFlag) != 0; }
};
static_assert(sizeof(TraceRecord) == 64, "trace records must stay one line");
// Records are memcpy'd into dumps and written raw into the preallocated
// ring; both moves assume plain-old-data layout with no padding surprises.
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "trace records are copied as raw bytes");
static_assert(alignof(TraceRecord) <= 64,
              "record alignment must not exceed the cache-line stride");
static_assert(offsetof(TraceRecord, detail) + TraceRecord::kDetailBytes ==
                  sizeof(TraceRecord),
              "detail text must be the trailing field, packed to the end");

/// A cold copy of a ring's contents, exportable after the ring is gone.
struct TraceDump {
  std::string scope;                    ///< Track name for exporters.
  std::vector<std::string> categories;  ///< Indexed by TraceRecord::cat.
  std::vector<TraceRecord> records;     ///< Oldest first.
  std::uint64_t dropped = 0;
  std::uint64_t clipped = 0;
};

/// The trace ring. Single-writer, like the endpoint that owns it. The
/// writer side is a `writer_role_` capability (common/annotate.h): every
/// mutating entry point requires it, the owning thread claims it once via
/// assert_writer(), and the thread-safety build rejects writes from code
/// that never established ownership. Reads (size/record/dump) stay
/// unannotated — the documented pattern is to read only from the writer
/// or after it quiesced, which exporters do via the cold dump() copy.
class TraceRing {
 public:
  TraceRing() = default;
  explicit TraceRing(std::string scope) : scope_(std::move(scope)) {}
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Claims the writer role for the calling context (the single thread
  /// that owns this ring). Zero runtime cost; see common/annotate.h.
  void assert_writer() const FM_ASSERT_CAPABILITY(writer_role_) {}

  void set_scope(std::string scope) FM_REQUIRES(writer_role_) {
    scope_ = std::move(scope);
  }
  const std::string& scope() const { return scope_; }

  /// Interns `category` (idempotent), returning its id. Setup-time only:
  /// may allocate on first sight of a name.
  std::uint16_t intern(std::string_view category) FM_REQUIRES(writer_role_);
  const std::string& category(std::uint16_t id) const {
    return categories_[id];
  }

  /// Preallocates `capacity` records and starts recording. Re-enabling
  /// clears prior records (and resizes if the capacity changed).
  void enable(std::size_t capacity = kDefaultCapacity)
      FM_REQUIRES(writer_role_);
  void disable() FM_REQUIRES(writer_role_) { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Hot path: appends one record. Never allocates; overwrites the oldest
  /// record (counting it dropped) when the ring is full.
  FM_HOT_PATH void event(std::uint64_t ts_ns, std::uint16_t cat, char phase,
                         std::uint32_t a = 0, std::uint32_t b = 0)
      FM_REQUIRES(writer_role_) {
    if (!enabled_) return;
    append(ts_ns, cat, phase, a, b)->detail[0] = '\0';
  }

  /// Cold path: appends a record with printf-formatted detail text. Details
  /// longer than TraceRecord::kDetailBytes-1 are clipped and counted.
  FM_COLD_PATH void eventf(std::uint64_t ts_ns, std::uint16_t cat, char phase,
                           std::uint32_t a, std::uint32_t b, const char* fmt,
                           ...) FM_REQUIRES(writer_role_)
      __attribute__((format(printf, 7, 8)));
  FM_COLD_PATH void eventv(std::uint64_t ts_ns, std::uint16_t cat, char phase,
                           std::uint32_t a, std::uint32_t b, const char* fmt,
                           va_list ap) FM_REQUIRES(writer_role_);

  /// Records currently held (<= capacity once the recorder wraps).
  std::size_t size() const { return count_ < ring_.size() ? count_ : ring_.size(); }
  std::size_t capacity() const { return ring_.size(); }
  /// Oldest-first access: index 0 is the oldest surviving record.
  const TraceRecord& record(std::size_t i) const {
    std::size_t oldest = count_ > ring_.size() ? pos_ : 0;
    std::size_t idx = oldest + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    return ring_[idx];
  }

  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const {
    return count_ > ring_.size() ? count_ - ring_.size() : 0;
  }
  /// Records whose detail text was truncated.
  std::uint64_t clipped() const { return clipped_; }

  /// Forgets all records (capacity and categories are kept).
  void clear() FM_REQUIRES(writer_role_) {
    count_ = 0;
    pos_ = 0;
    clipped_ = 0;
  }

  /// Cold copy of everything an exporter needs.
  TraceDump dump() const;

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  FM_HOT_PATH TraceRecord* append(std::uint64_t ts_ns, std::uint16_t cat,
                                  char phase, std::uint32_t a, std::uint32_t b)
      FM_REQUIRES(writer_role_) {
    TraceRecord* r = &ring_[pos_];
    r->ts_ns = ts_ns;
    r->cat = cat;
    r->phase = phase;
    r->flags = 0;
    r->a = a;
    r->b = b;
    if (++pos_ == ring_.size()) pos_ = 0;
    ++count_;
    return r;
  }

  std::string scope_;
  /// Single-writer discipline as a static capability (no runtime state).
  fm::Role writer_role_;
  std::vector<TraceRecord> ring_;
  std::vector<std::string> categories_;
  std::size_t pos_ = 0;       // next write index
  std::uint64_t count_ = 0;   // total records ever appended
  std::uint64_t clipped_ = 0;
  bool enabled_ = false;
};

}  // namespace fm::obs
