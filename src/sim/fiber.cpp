#include "src/sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>

#if defined(BRIDGE_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#endif

#if !defined(BRIDGE_FIBER_UCONTEXT)
extern "C" {
void bridge_fiber_switch(void** save_sp, void* restore_sp);
// Assembly label (fiber_switch.S); only its address is taken.
void bridge_fiber_entry_thunk();
}
#endif

namespace bridge::sim {

#if defined(BRIDGE_FIBER_UCONTEXT)

namespace {
// makecontext passes ints only; split the pointer across two of them.
void ucontext_trampoline(unsigned int hi, unsigned int lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32U) |
             static_cast<std::uintptr_t>(lo);
  bridge_fiber_entry(reinterpret_cast<void*>(ptr));
}
}  // namespace

void FiberContext::init(void* stack_base, std::size_t size, void* arg) {
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_base;
  ctx_.uc_stack.ss_size = size;
  ctx_.uc_link = nullptr;  // entry never returns; it switches away explicitly
  auto ptr = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&ucontext_trampoline), 2,
              static_cast<unsigned int>(ptr >> 32U),
              static_cast<unsigned int>(ptr & 0xFFFFFFFFU));
}

void FiberContext::switch_between(FiberContext& from, FiberContext& to) {
  swapcontext(&from.ctx_, &to.ctx_);
}

#else  // hand-rolled x86-64 path

void FiberContext::init(void* stack_base, std::size_t size, void* arg) {
  // Seed the frame bridge_fiber_switch expects to unwind.  Layout (ascending
  // addresses from the parked stack pointer): x87 control word + mxcsr,
  // r15, r14, r13, r12, rbx, rbp, return address (the entry thunk), and a
  // zero terminator above it so backtraces stop cleanly.  r12 carries `arg`;
  // the thunk moves it into rdi and calls bridge_fiber_entry.
  auto top = reinterpret_cast<std::uintptr_t>(stack_base) + size;
  top &= ~std::uintptr_t{15};  // System V: 16-byte aligned frame boundary
  auto* slots = reinterpret_cast<std::uint64_t*>(top);
  slots[-1] = 0;  // backtrace terminator
  slots[-2] = reinterpret_cast<std::uint64_t>(&bridge_fiber_entry_thunk);
  slots[-3] = 0;                                       // rbp
  slots[-4] = 0;                                       // rbx
  slots[-5] = reinterpret_cast<std::uint64_t>(arg);    // r12 -> rdi in thunk
  slots[-6] = 0;                                       // r13
  slots[-7] = 0;                                       // r14
  slots[-8] = 0;                                       // r15
  // Seed the control words from the live ones so the fiber starts with the
  // same FP environment as the controller.
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::uint64_t fpu_word = 0;
  std::memcpy(reinterpret_cast<std::byte*>(&fpu_word), &fcw, sizeof(fcw));
  std::memcpy(reinterpret_cast<std::byte*>(&fpu_word) + 4, &mxcsr,
              sizeof(mxcsr));
  slots[-9] = fpu_word;
  sp_ = &slots[-9];
}

void FiberContext::switch_between(FiberContext& from, FiberContext& to) {
  bridge_fiber_switch(&from.sp_, to.sp_);
}

#endif

namespace {
// Watermark fill byte.  Chosen so a stamped-but-untouched word is neither a
// plausible pointer nor zero (the init frame writes zeros), making the
// first-touched-byte scan unambiguous in practice.
constexpr std::byte kStackStamp{0xA5};
}  // namespace

FiberStackPool::FiberStackPool(std::size_t stack_bytes,
                               std::size_t guard_pages, bool watermark)
    : watermark_(watermark) {
  auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes_ = ((stack_bytes + page - 1) / page) * page;
  guard_bytes_ = guard_pages * page;
}

FiberStackPool::~FiberStackPool() {
  for (FiberStack& stack : free_) {
    munmap(stack.map_base, stack.map_size);
  }
}

FiberStack FiberStackPool::acquire() {
  ++live_;
  if (live_ > live_peak_) live_peak_ = live_;
  if (!free_.empty()) {
    FiberStack stack = free_.back();
    free_.pop_back();
    ++reused_;
    if (watermark_) {
      std::memset(stack.usable_base(), std::to_integer<int>(kStackStamp),
                  stack.usable_size());
    }
    return stack;
  }
  std::size_t map_size = stack_bytes_ + guard_bytes_;
  void* base = mmap(nullptr, map_size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::runtime_error("FiberStackPool: mmap of " +
                             std::to_string(map_size) + " bytes failed");
  }
  if (guard_bytes_ > 0 && mprotect(base, guard_bytes_, PROT_NONE) != 0) {
    munmap(base, map_size);
    throw std::runtime_error("FiberStackPool: guard mprotect failed");
  }
  ++allocated_;
  FiberStack stack;
  stack.map_base = static_cast<std::byte*>(base);
  stack.map_size = map_size;
  stack.guard_size = guard_bytes_;
  if (watermark_) {
    std::memset(stack.usable_base(), std::to_integer<int>(kStackStamp),
                stack.usable_size());
  }
  return stack;
}

void FiberStackPool::release(FiberStack stack) {
  --live_;
#if defined(BRIDGE_ASAN_FIBERS)
  // A dead fiber's frames may leave shadow poison behind (redzones of frames
  // that were live at the final switch).  The pool owns the memory now;
  // scrub it so the next fiber starts on a clean stack.
  __asan_unpoison_memory_region(stack.usable_base(), stack.usable_size());
#endif
  if (watermark_) {
    // The stack grows DOWN from the top: the deepest frame ever live is the
    // lowest non-stamp byte.  Scan up from the guard page for the first
    // touched byte; everything above it was used at some point.
    const std::byte* base = stack.usable_base();
    std::size_t first_touched = stack.usable_size();
    for (std::size_t i = 0; i < stack.usable_size(); ++i) {
      if (base[i] != kStackStamp) {
        first_touched = i;
        break;
      }
    }
    std::uint64_t used = stack.usable_size() - first_touched;
    if (used > high_water_) high_water_ = used;
  }
  free_.push_back(stack);
}

}  // namespace bridge::sim
