// Harness microbench: what does the simulator itself cost?
//
// Unlike every other bench in this directory, nothing here measures virtual
// time — the workloads are deliberately content-free (empty bodies, 1 us
// sleeps) so that wall-clock time is pure scheduler overhead:
//
//   spawn    N processes with empty bodies: process creation + first
//            dispatch + teardown cost.
//   switch   K long-lived processes each sleeping M times: steady-state
//            context-switch + event-queue cost (each sleep is one event,
//            two context switches).
//   churn    waves of short-lived processes (10k total): spawn / exit /
//            stack-recycling under sustained turnover.
//
// Every row reports normalized rates next to its totals.
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/time.hpp"

namespace bridge::bench {
namespace {

using WallClock = JsonReporter::WallClock;

double ms_since(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

struct Row {
  double spawn_run_ms = 0;   ///< spawn scenario: spawn + run + teardown
  double switch_run_ms = 0;  ///< switch scenario: run() only
  std::uint64_t switch_events = 0;
  double churn_ms = 0;  ///< churn scenario: all waves, spawn + run
  std::uint64_t churn_stacks_allocated = 0;
  std::uint64_t churn_stacks_reused = 0;
  std::uint64_t churn_stack_live_peak = 0;
};

void bench_scheduler(std::uint64_t spawn_n, std::uint64_t switch_procs,
                     std::uint64_t switch_sleeps, std::uint64_t churn_waves,
                     std::uint64_t churn_wave_size, JsonReporter& json) {
  Row row;

  {  // -- spawn ----------------------------------------------------------
    WallClock::time_point start = WallClock::now();
    {
      sim::Scheduler sched;
      for (std::uint64_t i = 0; i < spawn_n; ++i) {
        sched.spawn(0, "p" + std::to_string(i), [] {});
      }
      sched.run();
    }
    row.spawn_run_ms = ms_since(start);
  }

  {  // -- switch ---------------------------------------------------------
    sim::Scheduler sched;
    for (std::uint64_t i = 0; i < switch_procs; ++i) {
      sched.spawn(0, "spinner" + std::to_string(i), [&sched, switch_sleeps] {
        for (std::uint64_t m = 0; m < switch_sleeps; ++m) {
          sched.sleep_until(sched.now() + sim::usec(1));
        }
      });
    }
    WallClock::time_point start = WallClock::now();
    sched.run();
    row.switch_run_ms = ms_since(start);
    row.switch_events = sched.stats().events_dispatched;
  }

  {  // -- churn ----------------------------------------------------------
    sim::Scheduler sched;
    WallClock::time_point start = WallClock::now();
    for (std::uint64_t wave = 0; wave < churn_waves; ++wave) {
      for (std::uint64_t i = 0; i < churn_wave_size; ++i) {
        sched.spawn(0, "c" + std::to_string(wave * churn_wave_size + i),
                    [&sched] { sched.sleep_until(sched.now() + sim::usec(1)); });
      }
      sched.run();
    }
    row.churn_ms = ms_since(start);
    row.churn_stacks_allocated = sched.stats().fiber_stacks_allocated;
    row.churn_stacks_reused = sched.stats().fiber_stacks_reused;
    row.churn_stack_live_peak = sched.stats().fiber_stack_live_peak;
  }

  const std::uint64_t churn_total = churn_waves * churn_wave_size;
  double spawn_us = row.spawn_run_ms * 1e3 / static_cast<double>(spawn_n);
  double events_per_sec = static_cast<double>(row.switch_events) /
                          (row.switch_run_ms / 1e3);
  // Each dispatched event is a controller->process switch and back.
  double switches_per_sec = 2.0 * events_per_sec;
  double churn_per_sec =
      static_cast<double>(churn_total) / (row.churn_ms / 1e3);

  std::printf(
      "spawn %6llu: %8.1f ms (%6.2f us/proc) | %7llu events: %8.1f ms "
      "(%9.0f ev/s) | churn %6llu: %8.1f ms (%7.0f proc/s, stacks %llu/%llu "
      "peak %llu)\n",
      static_cast<unsigned long long>(spawn_n), row.spawn_run_ms,
      spawn_us, static_cast<unsigned long long>(row.switch_events),
      row.switch_run_ms, events_per_sec,
      static_cast<unsigned long long>(churn_total), row.churn_ms,
      churn_per_sec,
      static_cast<unsigned long long>(row.churn_stacks_allocated),
      static_cast<unsigned long long>(row.churn_stacks_reused),
      static_cast<unsigned long long>(row.churn_stack_live_peak));
  std::fflush(stdout);

  json.emit("sim_overhead_spawn",
            {{"procs", static_cast<double>(spawn_n)},
             {"total_ms", row.spawn_run_ms},
             {"spawn_us_per_proc", spawn_us}},
            /*metrics_json=*/"", /*timeseries_json=*/"",
            /*host_fields=*/{"total_ms", "spawn_us_per_proc"});
  json.emit("sim_overhead_switch",
            {{"procs", static_cast<double>(switch_procs)},
             {"events", static_cast<double>(row.switch_events)},
             {"run_ms", row.switch_run_ms},
             {"events_per_sec", events_per_sec},
             {"switches_per_sec", switches_per_sec}},
            /*metrics_json=*/"", /*timeseries_json=*/"",
            /*host_fields=*/{"run_ms", "events_per_sec", "switches_per_sec"});
  json.emit("sim_overhead_churn",
            {{"procs_total", static_cast<double>(churn_total)},
             {"total_ms", row.churn_ms},
             {"procs_per_sec", churn_per_sec},
             {"stacks_allocated",
              static_cast<double>(row.churn_stacks_allocated)},
             {"stacks_reused", static_cast<double>(row.churn_stacks_reused)},
             {"stack_live_peak",
              static_cast<double>(row.churn_stack_live_peak)}},
            /*metrics_json=*/"", /*timeseries_json=*/"",
            /*host_fields=*/{"total_ms", "procs_per_sec"});
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  JsonReporter json(argc, argv);
  // --scale divides every count (CI smoke uses --scale=4).
  std::uint64_t scale = flag_value(argc, argv, "scale", 1);
  if (scale == 0) scale = 1;

  print_header("Simulator overhead: wall-clock cost of the fiber scheduler");
  std::printf("spawn: empty processes | switch: 1 us sleep loops | churn: "
              "waves of short-lived processes\n\n");

  bench_scheduler(10000 / scale, 4, 25000 / scale, 100 / scale, 100, json);
  return 0;
}
