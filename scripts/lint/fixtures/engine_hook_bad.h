// Fixture: a CRTP protocol engine whose hot member reaches an unmarked,
// allocating transport hook through the self() accessor. The text engine
// must resolve `self().hook(` call edges (and template-qualified
// out-of-class definitions), or the hook drops out of the hot closure.
// Expected findings are asserted by scripts/lint/fm_lint_selftest.py.
#pragma once

#include <cstdint>
#include <vector>

#define FM_HOT_PATH __attribute__((hot))
#define FM_COLD_PATH __attribute__((cold))

namespace fixture {

template <typename Transport>
class FixtureEngine {
 public:
  FM_HOT_PATH void send(std::uint32_t v);
  FM_HOT_PATH void poll() { self().drain_rx(); }  // marked hook: clean

 private:
  FM_HOT_PATH Transport& self() { return static_cast<Transport&>(*this); }
};

template <typename Transport>
void FixtureEngine<Transport>::send(std::uint32_t v) {
  self().stage_frame(v);  // hotpath-call: unmarked, allocating hook
  self().idle();          // cold boundary: clean
}

class FixtureTransport : public FixtureEngine<FixtureTransport> {
 public:
  void stage_frame(std::uint32_t v) { staged_.push_back(v); }
  FM_HOT_PATH void drain_rx() { staged_.clear(); }
  FM_COLD_PATH void idle() {}

 private:
  std::vector<std::uint32_t> staged_;
};

}  // namespace fixture
