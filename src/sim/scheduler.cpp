#include "src/sim/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "src/analysis/race.hpp"
#include "src/util/logging.hpp"

#if defined(BRIDGE_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#endif

namespace bridge::sim {

namespace detail {
thread_local Process* t_current_process = nullptr;
}  // namespace detail

namespace {
/// Thrown into a parked process when the scheduler is torn down so its stack
/// unwinds and returns to the pool.  Never escapes run_process_body.
struct ProcessKilled {};

/// Events dispatched by every scheduler this process ever created; benches
/// read deltas of this to report events/sec next to wall-clock numbers.
std::atomic<std::uint64_t> g_lifetime_events{0};

std::size_t fiber_stack_bytes_from_env() {
#if defined(BRIDGE_ASAN_FIBERS)
  // ASan redzones roughly double frame sizes; default deeper stacks.
  std::size_t kb = 1024;
#else
  std::size_t kb = 512;
#endif
  if (const char* env = std::getenv("BRIDGE_SIM_STACK_KB")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 64) {
      kb = static_cast<std::size_t>(parsed);
    }
  }
  return kb * 1024;
}

bool fiber_watermark_from_env() {
  // Opt-in: stamping + scanning touches every page of every stack, which
  // costs ~100x on stack-churn-heavy runs (see FiberStackPool).
  const char* env = std::getenv("BRIDGE_SIM_STACK_WATERMARK");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}
}  // namespace

std::string SimTime::to_string() const {
  char buf[64];
  if (us_ >= 60'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f min", minutes());
  } else if (us_ >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3f s", sec());
  } else if (us_ >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ms());
  } else {
    std::snprintf(buf, sizeof(buf), "%lld us", static_cast<long long>(us_));
  }
  return buf;
}

Process::Process(Scheduler& sched, ProcessId id, NodeId node, std::string name)
    : sched_(sched), id_(id), node_(node), name_(std::move(name)) {}

Process::~Process() = default;

Scheduler::Scheduler()
    : pool_(fiber_stack_bytes_from_env(), /*guard_pages=*/1,
            fiber_watermark_from_env()) {
  events_.reserve(64);
}

Scheduler::~Scheduler() {
  // Unwind any process that never finished (daemon servers, parked waiters),
  // in spawn order (deterministic): resuming a parked process while
  // draining_ is set makes park_current throw, so the body unwinds, runs its
  // destructors, and lands in finish().  Index loop: a destructor may
  // legally spawn.
  draining_ = true;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    while (p.state_ == Process::State::kParked) resume(p);
    // Never dispatched: no stack, nothing to unwind.
    if (p.state_ == Process::State::kCreated) {
      p.state_ = Process::State::kFinished;
    }
  }
  flush_lifetime_events();
}

std::uint64_t Scheduler::lifetime_events_dispatched() noexcept {
  return g_lifetime_events.load(std::memory_order_relaxed);
}

void Scheduler::flush_lifetime_events() noexcept {
  g_lifetime_events.fetch_add(stats_.events_dispatched - lifetime_flushed_,
                              std::memory_order_relaxed);
  lifetime_flushed_ = stats_.events_dispatched;
}

ProcessHandle Scheduler::spawn(NodeId node, std::string name,
                               std::function<void()> fn, SimTime delay) {
  auto proc = std::make_unique<Process>(*this, next_pid_++, node, std::move(name));
  Process* p = proc.get();
  p->body_ = std::move(fn);
  events_.push(Event{clock_ + delay, next_seq_++, p, /*epoch=*/0, /*is_start=*/true});
  processes_.push_back(std::move(proc));
  ++stats_.processes_spawned;
  if (race_ != nullptr) {
    // Causal edge: the spawner's history happened before the child's body.
    race_->on_spawn(current_ == nullptr ? 0 : current_->id(), p->id());
  }
  return ProcessHandle(p);
}

std::string Scheduler::log_context_tls(void* /*unused*/) {
  Process* p = detail::t_current_process;
  if (p == nullptr) return {};
  // log_now_ was snapshotted by the controller at dispatch, so this reads no
  // live scheduler state.
  return "[t=" + p->log_now_.to_string() + " n" + std::to_string(p->node_) +
         "/" + p->name_ + "]";
}

void Scheduler::resume(Process& p) {
  if (!p.stack_.valid()) {
    p.stack_ = pool_.acquire();
    p.ctx_.init(p.stack_.usable_base(), p.stack_.usable_size(), &p);
    stats_.fiber_stacks_allocated = pool_.stacks_allocated();
    stats_.fiber_stacks_reused = pool_.stacks_reused();
    stats_.fiber_stack_live_peak = pool_.live_peak();
  }
  detail::t_current_process = &p;
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&controller_fake_stack_,
                                 p.stack_.usable_base(),
                                 p.stack_.usable_size());
#endif
  FiberContext::switch_between(controller_ctx_, p.ctx_);
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(controller_fake_stack_, nullptr, nullptr);
#endif
  detail::t_current_process = nullptr;
  if (p.state_ == Process::State::kFinished) {
    pool_.release(p.stack_);
    p.stack_ = FiberStack{};
    // release() is where the watermark scan runs; mirror it out so stats
    // snapshots taken between dispatches see the deepest use so far.
    stats_.fiber_stack_high_water = pool_.stack_high_water();
  }
}

void Scheduler::fiber_entry(Process& p) {
#if defined(BRIDGE_ASAN_FIBERS)
  // First time on this fiber's stack: complete the controller's switch and
  // learn the controller stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &p.sched_.controller_stack_bottom_,
                                  &p.sched_.controller_stack_size_);
#endif
  p.state_ = Process::State::kRunning;
  p.sched_.run_process_body(p);  // ends in finish(), which never returns
  std::abort();                  // unreachable
}

void Scheduler::run_process_body(Process& p) {
  // Any log_line from this process carries its virtual time + node id.
  util::set_thread_log_context(&Scheduler::log_context_tls, nullptr);
  try {
    p.body_();
  } catch (const ProcessKilled&) {
    // Teardown: fall through to the finish handoff.
  } catch (const std::exception& e) {
    util::LogMessage(util::LogLevel::kError, "sim")
        << "process '" << p.name_ << "' died: " << e.what();
  }
  finish(p);
}

void Scheduler::finish(Process& p) {
  p.state_ = Process::State::kFinished;
  if (current_ == &p) current_ = nullptr;
#if defined(BRIDGE_ASAN_FIBERS)
  // nullptr fake-stack save: this fiber is dying, release its fake frames.
  __sanitizer_start_switch_fiber(nullptr, controller_stack_bottom_,
                                 controller_stack_size_);
#endif
  // The controller's pending resume() observes kFinished and recycles the
  // stack; nothing ever switches back here.
  FiberContext::switch_between(p.ctx_, controller_ctx_);
  std::abort();  // unreachable
}

void Scheduler::schedule_wake(Process& p, SimTime when) {
  events_.push(Event{std::max(when, clock_), next_seq_++, &p, p.epoch_,
                     /*is_start=*/false});
  ++stats_.wakes_scheduled;
}

void Scheduler::park_current() {
  Process* self = current_;
  self->state_ = Process::State::kParked;
  current_ = nullptr;
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_,
                                 controller_stack_bottom_,
                                 controller_stack_size_);
#endif
  FiberContext::switch_between(self->ctx_, controller_ctx_);
#if defined(BRIDGE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_, nullptr, nullptr);
#endif
  if (draining_) throw ProcessKilled{};
  self->state_ = Process::State::kRunning;
  ++self->epoch_;  // stale any other pending wakes aimed at the old park
}

void Scheduler::sleep_until(SimTime when) {
  schedule_wake(*current_, when);
  park_current();
}

void Scheduler::dispatch(const Event& ev) {
  Process* p = ev.process;
  if (ev.is_start) {
    if (p->state_ != Process::State::kCreated) return;
  } else {
    if (p->state_ != Process::State::kParked || ev.epoch != p->epoch_) {
      ++stats_.stale_wakes_skipped;
      return;
    }
  }
  ++stats_.events_dispatched;
  p->log_now_ = clock_;  // snapshot for the log-context provider
  current_ = p;
  resume(*p);
}

void Scheduler::run() {
  while (!events_.empty()) {
    Event ev = events_.top();
    events_.pop();
    SimTime before = clock_;
    clock_ = std::max(clock_, ev.at);
    if (time_observer_ && clock_ > before) time_observer_(clock_);
    dispatch(ev);
  }
  deadlocked_ = false;
  for (auto& p : processes_) {
    if (p->state_ == Process::State::kParked && !p->daemon_) deadlocked_ = true;
  }
  if (race_ != nullptr) {
    // run() returning is a real barrier: the controller (and anything it
    // spawns afterwards) is causally after every process's history.
    race_->on_quiescence();
  }
  flush_lifetime_events();
}

std::uint64_t Scheduler::race_send_slow() {
  return race_->on_send(current_ == nullptr ? 0 : current_->id());
}

void Scheduler::race_recv_slow(std::uint64_t token) {
  race_->on_recv(current_ == nullptr ? 0 : current_->id(), token);
}

void Scheduler::race_drop_slow(std::uint64_t token) {
  race_->drop_token(token);
}

std::vector<std::string> Scheduler::parked_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (p->state_ == Process::State::kParked && !p->daemon_) {
      names.push_back(p->name_);
    }
  }
  return names;
}

}  // namespace bridge::sim

// C linkage entry point reached from the assembly thunk (fiber_switch.S) or
// the ucontext trampoline (fiber.cpp).
extern "C" void bridge_fiber_entry(void* arg) {
  bridge::sim::Scheduler::fiber_entry(*static_cast<bridge::sim::Process*>(arg));
}
