// FM-Serve on a shared core: a client and a shard pinned to one CPU, on
// shm and net. Its own binary so ctest can run it alone (RUN_SERIAL): it
// takes that CPU for a few seconds and times itself on it.
#include "serve/client.h"
#include "serve/server.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "support/backends.h"
#include "support/serve_support.h"

namespace fm {
namespace {

using serve::CallResult;
using serve::Client;
using serve::Server;
using testing::HaltFlags;
using testing::pat;
using testing::send_halt;
using testing::shutdown_ritual;

// ---------------------------------------------------------------------------
// Client and shard pinned to ONE core. Both loops poll; a poll() that finds
// no work must give the core up, or each rank spins through its whole
// scheduler slice before the other runs and every call waits ~2 slices
// (~8 ms at a 4 ms tick). The bounds sit between the two modes: stalled,
// 200 sequential calls take >= 1.6 s and a pipeline of 32 completes ~4 K
// calls/s; yielding, the 200 calls take a few ms and the pipeline
// completes > 100 K calls/s on either backend.
// ---------------------------------------------------------------------------
template <class B>
class ServeSharedCore : public ::testing::Test {};

TYPED_TEST_SUITE(ServeSharedCore, testing::BothBackends,
                 testing::BackendNames);

/// The lowest-numbered CPU in this process's allowed mask.
int lowest_allowed_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  FM_CHECK(sched_getaffinity(0, sizeof set, &set) == 0);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) return cpu;
  return 0;
}

/// Pins the calling thread (a shm rank) or process (a net rank) to `cpu`.
void pin_self_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  FM_CHECK(sched_setaffinity(0, sizeof set, &set) == 0);
}

TYPED_TEST(ServeSharedCore, CallsDoNotWaitOutSchedulerSlices) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kSequentialCalls = 200;
  constexpr std::size_t kInflight = 32;
  constexpr std::size_t kSessions = 64;
  constexpr std::uint64_t kMinPipelinedCalls = 50'000;
  const int cpu = lowest_allowed_cpu();

  auto cluster = B::make(2);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    pin_self_to(cpu);
    if (ep.id() == 0) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      while (halt.n[0].load() < 1) srv.poll();
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    Client<E> cli(ep, 1);
    std::uint64_t done_ok = 0, done_bad = 0;
    cli.set_completion([&](const CallResult& r) {
      bool ok = r.status == Status::kOk && r.len == 16;
      for (std::size_t j = 0; ok && j < 16; ++j)
        ok = static_cast<const std::uint8_t*>(r.data)[j] == pat(r.cookie, j);
      ++(ok ? done_ok : done_bad);
    });
    std::uint8_t body[16];
    std::uint64_t cookie = 0;
    auto issue = [&](std::uint64_t session) {
      for (std::size_t j = 0; j < 16; ++j) body[j] = pat(cookie, j);
      if (cli.call(session, 0, body, sizeof body, cookie,
                   /*deadline_ns=*/0) != Status::kOk)
        return false;
      ++cookie;
      return true;
    };

    // Leg 1: one call in flight at a time.
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kSequentialCalls; ++i) {
      while (!issue(700)) cli.poll();
      while (!cli.quiesced()) cli.poll();
    }
    const auto seq_elapsed = Clock::now() - t0;
    EXPECT_LT(seq_elapsed, std::chrono::seconds(1))
        << kSequentialCalls << " sequential calls took "
        << std::chrono::duration_cast<std::chrono::milliseconds>(seq_elapsed)
               .count()
        << " ms on one core";
    EXPECT_EQ(done_ok, kSequentialCalls);

    // Leg 2: a closed loop holding 32 calls in flight for one second.
    const std::uint64_t ok_before = done_ok;
    const Clock::time_point end = Clock::now() + std::chrono::seconds(1);
    std::uint64_t next_session = 0;
    while (Clock::now() < end) {
      while (cli.inflight() < kInflight &&
             issue(800 + next_session % kSessions))
        ++next_session;
      cli.poll();
    }
    const std::uint64_t pipelined = done_ok - ok_before;
    while (!cli.quiesced()) cli.poll();
    EXPECT_GE(pipelined, kMinPipelinedCalls)
        << "calls completed in 1 s at " << kInflight
        << " in flight on one core";
    EXPECT_EQ(done_bad, 0u);
    send_halt(ep, halt_id, 0);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

}  // namespace
}  // namespace fm
