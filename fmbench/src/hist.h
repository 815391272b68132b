// Log-linear histogram for latencies and span durations, in nanoseconds.
//
// Values below 256 ns get one bucket each; every octave above is split into
// 128 linear sub-buckets, so no bucket is wider than 1/128 of the values it
// holds. quantile() interpolates linearly inside the bucket, so a reported
// percentile is within 0.8 % of the exact sample percentile. Fixed size, no
// allocation, and mergeable across ranks and legs (the histograms live in
// the shared results arena, see bench.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace fmbench {

class LogHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kExact = 1ull << (kSubBits + 1);
  static constexpr int kMaxOctave = 42;  // ~73 minutes; larger values clamp
  static constexpr std::size_t kBuckets =
      kExact + (kMaxOctave - kSubBits) * (1ull << kSubBits);

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }

  void merge(const LogHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  std::uint64_t count() const { return n_; }

  /// The q-quantile (0 < q <= 1) of the recorded values; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    double rank = q * static_cast<double>(n_);
    if (rank < 1) rank = 1;
    double cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && cum + c >= rank) {
        double lo = 0, width = 0;
        bounds(i, &lo, &width);
        return lo + width * (rank - cum) / c;
      }
      cum += c;
    }
    return 0;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    int e = 63 - __builtin_clzll(v);
    if (e > kMaxOctave) {
      e = kMaxOctave;
      v = (2ull << e) - 1;
    }
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1ull << kSubBits) - 1);
    return static_cast<std::size_t>(
        kExact + static_cast<std::uint64_t>(e - kSubBits - 1) *
                     (1ull << kSubBits) +
        sub);
  }

  static void bounds(std::size_t idx, double* lo, double* width) {
    if (idx < kExact) {
      *lo = static_cast<double>(idx);
      *width = 1;
      return;
    }
    const std::size_t k = idx - kExact;
    const int e = static_cast<int>(k >> kSubBits) + kSubBits + 1;
    const std::uint64_t sub = k & ((1ull << kSubBits) - 1);
    const std::uint64_t w = 1ull << (e - kSubBits);
    *lo = static_cast<double>((1ull << e) + sub * w);
    *width = static_cast<double>(w);
  }

  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t n_ = 0;
};

}  // namespace fmbench
