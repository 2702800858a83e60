// Stack-safety guarantees of the fiber stacks:
//
//  1. A runaway call chain in a process body must FAULT on the guard page —
//     never silently corrupt a neighbouring stack.  This is the runtime backstop behind the static
//     budget enforced by tools/analysis/stack_audit.py.
//  2. With BRIDGE_SIM_STACK_WATERMARK=1 the fiber stack pool measures the
//     deepest stack use actually reached, exposed via
//     SchedulerStats::fiber_stack_high_water — the measured cross-check for
//     that same static budget.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>

#include "src/sim/runtime.hpp"
#include "src/sim/scheduler.hpp"

namespace bridge {
namespace {

/// Scoped env override.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// Unbounded recursion with a real frame and data dependencies that defeat
/// tail-call elimination and inlining.  Must eventually hit the guard page
/// whatever the stack size is.
__attribute__((noinline)) int runaway(int depth, volatile std::byte* parent) {
  if (depth < 0) return 0;  // unreachable; keeps -Winfinite-recursion quiet
  volatile std::byte frame[512];
  frame[0] = std::byte{static_cast<unsigned char>(depth & 0xFF)};
  frame[511] = parent != nullptr ? parent[0] : std::byte{0};
  int below = runaway(depth + 1, frame);
  frame[1] = std::byte{static_cast<unsigned char>(below & 0xFF)};
  return below + static_cast<int>(frame[1]);
}

void run_runaway_process() {
  sim::Runtime rt(/*num_nodes=*/1);
  rt.spawn(0, "runaway", [](sim::Context&) {
    (void)runaway(0, nullptr);  // never returns; dies on the stack guard
  });
  rt.run();
}

/// Burn roughly `levels` * 4 KiB of stack, then unwind.
__attribute__((noinline)) void consume_stack(int levels) {
  volatile std::byte pad[4096];
  pad[0] = std::byte{1};
  pad[4095] = std::byte{2};
  if (levels > 1) consume_stack(levels - 1);
  pad[1] = pad[0];  // post-call touch: no tail call
}

using SimStackGuardDeathTest = ::testing::Test;

TEST(SimStackGuardDeathTest, FiberRunawayRecursionFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Any death is a pass: plain builds die with SIGSEGV on the PROT_NONE
  // guard page; ASan builds die with its stack-overflow report instead.
  EXPECT_DEATH(run_runaway_process(), "");
}

TEST(SimStackWatermark, HighWaterTracksDeepestFiberStackUse) {
  ScopedEnv watermark("BRIDGE_SIM_STACK_WATERMARK", "1");
  sim::Scheduler sched;
  constexpr int kLevels = 16;  // ~64 KiB of recursion frames
  sched.spawn(0, "deep", [] { consume_stack(kLevels); });
  sched.spawn(0, "shallow", [] { consume_stack(1); });
  sched.run();
  std::uint64_t high_water = sched.stats().fiber_stack_high_water;
  // The deep process dominates: at least its pads, at most the whole stack.
  EXPECT_GE(high_water, static_cast<std::uint64_t>(kLevels) * 4096);
  EXPECT_LT(high_water, 64u * 1024 * 1024);
  EXPECT_GT(high_water, 0u);
}

TEST(SimStackWatermark, DisabledByDefaultAndReportsZero) {
  unsetenv("BRIDGE_SIM_STACK_WATERMARK");
  sim::Scheduler sched;
  sched.spawn(0, "deep", [] { consume_stack(8); });
  sched.run();
  // Without the opt-in there is no stamp/scan: the stat stays zero and the
  // pool's fast lazy-population path is untouched.
  EXPECT_EQ(sched.stats().fiber_stack_high_water, 0u);
}

}  // namespace
}  // namespace bridge
