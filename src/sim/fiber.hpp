// Stackful-fiber primitives the scheduler runs every simulated process on:
// a minimal context-switch abstraction and a pool of lazily-grown, guarded
// stacks.
//
// The switch itself is hand-rolled assembly on x86-64 (fiber_switch.S): it
// saves exactly the callee-saved register state the System V ABI requires
// and nothing else.  glibc's swapcontext(3) would additionally save and
// restore the signal mask — one or two rt_sigprocmask syscalls per switch,
// i.e. per simulated event — which is most of the cost fibers exist to
// remove.  Other architectures fall back to ucontext, trading those
// syscalls for portability.  Defining BRIDGE_FIBER_UCONTEXT selects the
// ucontext switch on x86-64 too: it is the reference the assembly switch is
// checked against (same-seed traces must be byte-identical).
//
// Stacks are mmap'd with a PROT_NONE guard page below the usable region, so
// an overflowing simulated process faults loudly instead of corrupting a
// neighbour, and are recycled through a free list: a 10k-process churn
// allocates only as many stacks as were ever concurrently live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if !defined(__x86_64__) && !defined(BRIDGE_FIBER_UCONTEXT)
#define BRIDGE_FIBER_UCONTEXT 1
#endif
#if defined(BRIDGE_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define BRIDGE_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BRIDGE_ASAN_FIBERS 1
#endif
#endif

// The fiber entry point, defined by the scheduler (scheduler.cpp).  Extern
// "C" so the assembly thunk and makecontext can both reach it without
// mangling.
extern "C" void bridge_fiber_entry(void* arg);

namespace bridge::sim {

/// One execution context (the controller's or a fiber's).  Trivially small:
/// on the assembly path it is just the parked stack pointer.
class FiberContext {
 public:
  /// Seed a fresh context on [stack_base, stack_base + size) so that the
  /// first switch into it calls bridge_fiber_entry(arg) — which must never
  /// return through the context (it hand-switches away instead).
  void init(void* stack_base, std::size_t size, void* arg);

  /// Suspend `from` (the currently executing context) and resume `to`.
  /// Returns when something later switches back into `from`.
  static void switch_between(FiberContext& from, FiberContext& to);

 private:
#if defined(BRIDGE_FIBER_UCONTEXT)
  ucontext_t ctx_{};
#else
  void* sp_ = nullptr;
#endif
};

/// A guarded stack: `map_size` bytes of mapping whose lowest `guard_size`
/// bytes are PROT_NONE.
struct FiberStack {
  std::byte* map_base = nullptr;
  std::size_t map_size = 0;
  std::size_t guard_size = 0;

  [[nodiscard]] std::byte* usable_base() const noexcept {
    return map_base + guard_size;
  }
  [[nodiscard]] std::size_t usable_size() const noexcept {
    return map_size - guard_size;
  }
  [[nodiscard]] bool valid() const noexcept { return map_base != nullptr; }
};

/// Free-list pool of identically-sized guarded stacks.
class FiberStackPool {
 public:
  /// `stack_bytes` is the usable size (rounded up to whole pages);
  /// `guard_pages` pages of PROT_NONE sit below every stack.  With
  /// `watermark` set, every acquired stack is stamped with a fill pattern
  /// and scanned on release to track the deepest stack use ever observed
  /// (`stack_high_water()`) — the measured cross-check for the static
  /// budget in tools/analysis/stack_audit.py.  Stamping touches every page
  /// of every stack, which defeats the pool's lazy-population win (a 10k
  /// churn goes from ~3ms to ~300ms), so it is opt-in
  /// (BRIDGE_SIM_STACK_WATERMARK=1), not default.
  FiberStackPool(std::size_t stack_bytes, std::size_t guard_pages,
                 bool watermark = false);
  ~FiberStackPool();

  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  /// Pop a recycled stack or mmap a new one.  Throws std::runtime_error if
  /// the kernel refuses the mapping.
  FiberStack acquire();
  /// Return a stack to the free list for reuse.
  void release(FiberStack stack);

  [[nodiscard]] std::uint64_t stacks_allocated() const noexcept {
    return allocated_;
  }
  [[nodiscard]] std::uint64_t stacks_reused() const noexcept { return reused_; }
  [[nodiscard]] std::uint64_t live_peak() const noexcept { return live_peak_; }
  [[nodiscard]] std::size_t stack_bytes() const noexcept { return stack_bytes_; }
  /// Deepest observed stack use across all released stacks, in bytes.
  /// Always 0 unless constructed with watermarking on.
  [[nodiscard]] std::uint64_t stack_high_water() const noexcept {
    return high_water_;
  }
  [[nodiscard]] bool watermark_enabled() const noexcept { return watermark_; }

 private:
  std::size_t stack_bytes_;
  std::size_t guard_bytes_;
  bool watermark_ = false;
  std::vector<FiberStack> free_;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t live_peak_ = 0;
  std::uint64_t high_water_ = 0;
};

}  // namespace bridge::sim
