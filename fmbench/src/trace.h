// Span tracing from the benchmark's side of each layer boundary.
//
// Nothing inside the library is instrumented. Instead the traced legs wrap
// a rank's endpoint in TracedEp, which records a span around every call the
// layers above make into the endpoint's public functions (send, send4,
// extract) and around every handler the endpoint dispatches. serve's
// engines are templates over the endpoint type, so serve::Client<TracedEp<E>>
// routes serve's own sends and extracts through the same spans. The
// benchmark adds spans around its calls into serve (call/poll) and around
// its own handler, completion and method bodies.
//
// A span has a name, start, end, parent and an op id. Each closed span
// updates its name's statistics in place (duration, self time = duration
// minus child spans, call/empty/item counts). serve's handler runs inside
// the endpoint's extract(), which runs inside serve's poll(): its self time
// is serve's own work, so it is also charged to the enclosing poll span's
// self time, which then holds everything serve did in that poll (header
// parsing, session FIFO, admission, queueing the reply, the sweep) minus
// the endpoint's and the benchmark's parts. The first kRawCap spans of a
// rank, idle polls excepted, are also kept raw for the span file. All of it
// lives in the preallocated results arena, so recording never allocates.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "common/types.h"
#include "hist.h"
#include "net/endpoint.h"
#include "shm/endpoint.h"

namespace fmbench {

enum Span : std::uint8_t {
  kShmSend,
  kShmSend4,
  kShmExtract,
  kNetSend,
  kNetExtract,
  kServeCall,
  kServeClientPoll,
  kServeServerPoll,
  kServeDispatch,  // serve's own handler, dispatched inside extract()
  kServeMethod,    // the benchmark's echo method body
  kBenchHandler,   // the benchmark's FM handler bodies (pingpong, stream)
  kBenchCompletion,  // the benchmark's serve completion callback
  kNumSpans
};

inline constexpr const char* kSpanName[kNumSpans] = {
    "shm.send",          "shm.send4",         "shm.extract",
    "net.send",          "net.extract",       "serve.call",
    "serve.client_poll", "serve.server_poll", "serve.dispatch",
    "serve.method",      "bench.handler",     "bench.completion"};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-name span statistics. `self` holds duration minus child spans (for
/// the serve poll spans, plus their serve.dispatch spans' self time); for
/// the polling spans (extract, poll) it only counts calls that found
/// work, so an idle spin does not drown the per-message cost.
struct SpanStats {
  LogHist dur;
  LogHist self;
  std::uint64_t calls = 0;
  std::uint64_t empty = 0;     ///< Polling calls that returned 0.
  std::uint64_t items = 0;     ///< Messages returned by polling calls.
  std::uint64_t total_ns = 0;  ///< Sum of durations.

  void merge(const SpanStats& o) {
    dur.merge(o.dur);
    self.merge(o.self);
    calls += o.calls;
    empty += o.empty;
    items += o.items;
    total_ns += o.total_ns;
  }
};

struct RawSpan {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t op = 0;  ///< Op id carried in the payload (0: none).
  std::int32_t parent = -1;  ///< Index of the parent span in the same rank.
  std::uint8_t name = 0;
};

/// One rank's span recorder. Single-threaded, like the endpoint it wraps.
class Recorder {
 public:
  static constexpr int kMaxDepth = 16;

  Recorder(SpanStats* stats, RawSpan* raw, std::uint32_t raw_cap,
           std::uint32_t* raw_len)
      : stats_(stats), raw_(raw), raw_cap_(raw_cap), raw_len_(raw_len) {}

  /// Spans are recorded only while on (the timed window).
  void set_on(bool on) { on_ = on; }
  bool on() const { return on_; }

  void begin(Span name, std::uint64_t op) {
    Frame& f = stack_[depth_++];
    f.name = name;
    f.child_ns = 0;
    f.fold_ns = 0;
    f.raw = -1;
    if (*raw_len_ < raw_cap_) {
      f.raw = static_cast<std::int32_t>((*raw_len_)++);
      RawSpan& r = raw_[f.raw];
      r.op = op;
      r.name = name;
      r.parent = depth_ > 1 ? stack_[depth_ - 2].raw : -1;
    }
    f.start = now_ns();
  }

  /// `items` is the polling call's return value; `polling` marks extract
  /// and poll spans.
  void end(std::uint64_t items, bool polling) {
    const std::uint64_t t = now_ns();
    Frame& f = stack_[--depth_];
    const std::uint64_t dur = t - f.start;
    const std::uint64_t self = dur - f.child_ns;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (f.name == kServeDispatch) fold_into_poll(self);
    SpanStats& s = stats_[f.name];
    ++s.calls;
    s.total_ns += dur;
    s.dur.add(dur);
    if (polling) {
      s.items += items;
      if (items == 0) ++s.empty;
    }
    if (!polling || items > 0) s.self.add(self + f.fold_ns);
    if (f.raw < 0) return;
    // An idle poll (and its idle children, already dropped) is not kept
    // raw: spinning ranks would fill the span file with nothing else.
    if (polling && items == 0 &&
        *raw_len_ == static_cast<std::uint32_t>(f.raw) + 1) {
      --*raw_len_;
      return;
    }
    raw_[f.raw].start = f.start;
    raw_[f.raw].end = t;
  }

 private:
  struct Frame {
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint64_t fold_ns;  ///< serve.dispatch self time charged here.
    std::int32_t raw;
    Span name;
  };

  /// Charges `ns` to the innermost open serve poll span, if any.
  void fold_into_poll(std::uint64_t ns) {
    for (int i = depth_ - 1; i >= 0; --i)
      if (stack_[i].name == kServeClientPoll ||
          stack_[i].name == kServeServerPoll) {
        stack_[i].fold_ns += ns;
        return;
      }
  }

  SpanStats* stats_;
  RawSpan* raw_;
  std::uint32_t raw_cap_;
  std::uint32_t* raw_len_;
  Frame stack_[kMaxDepth] = {};
  int depth_ = 0;
  bool on_ = false;
};

/// RAII span; compiles to nothing in untraced legs. Whether a span records
/// is decided when it opens, so a window edge never unbalances the stack.
template <bool kTrace>
class Scope {
 public:
  Scope(Recorder& rec, Span name, std::uint64_t op = 0, bool polling = false)
      : rec_(rec.on() ? &rec : nullptr), polling_(polling) {
    if (rec_ != nullptr) rec_->begin(name, op);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->end(items_, polling_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Records a polling call's result.
  void items(std::uint64_t n) { items_ = n; }

 private:
  Recorder* rec_;
  bool polling_;
  std::uint64_t items_ = 1;
};

template <>
class Scope<false> {
 public:
  Scope(Recorder&, Span, std::uint64_t = 0, bool = false) {}
  void items(std::uint64_t) {}
};

/// Span names of one transport's endpoint calls. No workload calls send4
/// over net, so it shares net.send.
template <class E>
struct EpSpans;
template <>
struct EpSpans<fm::shm::Endpoint> {
  static constexpr Span kSend = kShmSend, kSend4 = kShmSend4,
                        kExtract = kShmExtract;
};
template <>
struct EpSpans<fm::net::Endpoint> {
  static constexpr Span kSend = kNetSend, kSend4 = kNetSend,
                        kExtract = kNetExtract;
};

/// Forwards the endpoint surface the benchmark and serve's engines use,
/// recording a span around each send/send4/extract and each dispatched
/// handler. Handlers registered through it receive the wrapper, so their
/// own sends are traced too. drain() runs only after the timed window
/// (on the raw endpoint), so it carries no span.
template <class E>
class TracedEp {
 public:
  using Handler =
      std::function<void(TracedEp&, fm::NodeId, const void*, std::size_t)>;
  using S = EpSpans<E>;

  TracedEp(E& ep, Recorder& rec) : ep_(ep), rec_(rec) {}
  TracedEp(const TracedEp&) = delete;
  TracedEp& operator=(const TracedEp&) = delete;

  /// Names the span of handlers registered from now on.
  void set_handler_span(Span s) { handler_span_ = s; }

  fm::HandlerId register_handler(Handler fn) {
    const Span name = handler_span_;
    return ep_.register_handler(
        [this, name, fn = std::move(fn)](E&, fm::NodeId src, const void* d,
                                         std::size_t n) {
          Scope<true> s(rec_, name);
          fn(*this, src, d, n);
        });
  }

  fm::Status send(fm::NodeId dest, fm::HandlerId h, const void* buf,
                  std::size_t len) {
    Scope<true> s(rec_, S::kSend);
    return ep_.send(dest, h, buf, len);
  }
  fm::Status send4(fm::NodeId dest, fm::HandlerId h, std::uint32_t w0,
                   std::uint32_t w1, std::uint32_t w2, std::uint32_t w3) {
    Scope<true> s(rec_, S::kSend4);
    return ep_.send4(dest, h, w0, w1, w2, w3);
  }
  std::size_t extract() {
    Scope<true> s(rec_, S::kExtract, 0, true);
    const std::size_t n = ep_.extract();
    s.items(n);
    return n;
  }
  void post_send4(fm::NodeId dest, fm::HandlerId h, std::uint32_t w0,
                  std::uint32_t w1, std::uint32_t w2, std::uint32_t w3) {
    ep_.post_send4(dest, h, w0, w1, w2, w3);
  }
  void post_send2(fm::NodeId dest, fm::HandlerId h, const void* hdr,
                  std::size_t hdr_len, const void* body, std::size_t body_len) {
    ep_.post_send2(dest, h, hdr, hdr_len, body, body_len);
  }
  fm::Status send_or_post(fm::NodeId dest, fm::HandlerId h, const void* buf,
                          std::size_t len) {
    return ep_.send_or_post(dest, h, buf, len);
  }

  fm::NodeId id() const { return ep_.id(); }
  bool peer_dead(fm::NodeId peer) const { return ep_.peer_dead(peer); }
  std::size_t unacked() const { return ep_.unacked(); }
  std::size_t reject_queue_depth() const { return ep_.reject_queue_depth(); }
  const fm::FmConfig& config() const { return ep_.config(); }

 private:
  E& ep_;
  Recorder& rec_;
  Span handler_span_ = kBenchHandler;
};

}  // namespace fmbench
