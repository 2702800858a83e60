// Shared helpers for the reproduction benches: workload generation and
// table formatting.  Every bench prints the paper's reported values next to
// the simulated measurements so the shape comparison is immediate.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/core/instance.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/scheduler.hpp"
#include "src/tools/sort/sort_common.hpp"
#include "src/util/serde.hpp"

namespace bridge::bench {

/// A record: leading little-endian uint64 key + deterministic filler.
inline std::vector<std::byte> keyed_record(std::uint64_t key) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  util::Writer w;
  w.u64(key);
  std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
  for (std::size_t i = 8; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>((key * 131 + i) & 0xFF));
  }
  return data;
}

/// Write `records` random-keyed records into Bridge file `name` through the
/// naive interface (the workload generator used by every experiment).
inline void fill_random_file(core::BridgeInstance& inst, const std::string& name,
                             std::uint64_t records, std::uint64_t seed) {
  inst.run_client("fill", [&, records, seed](sim::Context&,
                                             core::BridgeClient& client) {
    if (!client.create(name).is_ok()) return;
    auto open = client.open(name);
    if (!open.is_ok()) return;
    sim::Rng rng(seed);
    for (std::uint64_t i = 0; i < records; ++i) {
      auto status =
          client.seq_write(open.value().session, keyed_record(rng.next_u64()));
      if (!status.is_ok()) {
        std::fprintf(stderr, "fill_random_file: %s\n",
                     status.status().to_string().c_str());
        return;
      }
    }
  });
  inst.run();
}

/// Parse "--records=N" / "--max-p=N" style flags with defaults.
inline std::uint64_t flag_value(int argc, char** argv, const std::string& name,
                                std::uint64_t fallback) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stoull(arg.substr(prefix.size()));
    }
  }
  return fallback;
}

/// Parse "--json=path" style string flags (empty string if absent).
inline std::string flag_string(int argc, char** argv, const std::string& name) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Machine-readable bench results: one JSON object per line, appended to the
/// file named by --json=<path>.  Inactive (no-op) when the flag is absent, so
/// benches print their human tables unchanged.  Append mode lets the runner
/// script collect every bench of a sweep into one BENCH_results.json.
class JsonReporter {
 public:
  // Harness-cost clock for the wall_ms field below.  Wall time is the one
  // thing here that is MEANT to vary between hosts and backends — it
  // measures the simulator, not the simulation — and it never feeds any
  // virtual-time result.
  // NOLINT(bridge-wall-clock): wall_ms reports harness cost, not sim results
  using WallClock = std::chrono::steady_clock;

  JsonReporter(int argc, char** argv)
      : path_(flag_string(argc, argv, "json")),
        row_wall_start_(WallClock::now()),
        row_events_start_(sim::Scheduler::lifetime_events_dispatched()) {}

  [[nodiscard]] bool active() const noexcept { return !path_.empty(); }

  /// Emit {"bench":<name>, k1:v1, ...}.  Values are numeric; non-finite
  /// values (a bench shape with no valid measurement) are written as null.
  /// `metrics_json`, when non-empty, must be a complete JSON object (from
  /// BridgeInstance::metrics_summary_json) and is appended as "metrics".
  /// `timeseries_json`, when non-empty, is a complete JSON value (from
  /// ObsOptions::timeseries_json) appended as "timeseries".
  ///
  /// Every row also carries two harness-cost fields, measured since the
  /// previous emit (or construction): "wall_ms", the host wall-clock time
  /// spent producing this row, and "events_executed", scheduler events
  /// dispatched in that window (Scheduler::lifetime_events_dispatched
  /// deltas).  These track simulator overhead.
  ///
  /// `host_fields` names the row's own fields that measure the host rather
  /// than the simulation (a bench timing the simulator itself).  The row
  /// lists them as "host_fields", and tools/bench_diff compares them as
  /// fresh/committed ratios like wall_ms instead of requiring equality.
  void emit(const std::string& bench,
            std::initializer_list<std::pair<const char*, double>> fields,
            const std::string& metrics_json = "",
            const std::string& timeseries_json = "",
            std::initializer_list<const char*> host_fields = {}) {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
      return;
    }
    WallClock::time_point wall_now = WallClock::now();
    std::uint64_t events_now = sim::Scheduler::lifetime_events_dispatched();
    double wall_ms =
        std::chrono::duration<double, std::milli>(wall_now - row_wall_start_)
            .count();
    std::uint64_t events = events_now - row_events_start_;
    row_wall_start_ = wall_now;
    row_events_start_ = events_now;
    std::fprintf(f, "{\"bench\":\"%s\"", bench.c_str());
    for (const auto& [key, value] : fields) {
      if (std::isfinite(value)) {
        std::fprintf(f, ",\"%s\":%.6g", key, value);
      } else {
        std::fprintf(f, ",\"%s\":null", key);
      }
    }
    if (host_fields.size() != 0) {
      const char* sep = "";
      std::fprintf(f, ",\"host_fields\":[");
      for (const char* name : host_fields) {
        std::fprintf(f, "%s\"%s\"", sep, name);
        sep = ",";
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, ",\"wall_ms\":%.3f,\"events_executed\":%llu", wall_ms,
                 static_cast<unsigned long long>(events));
    if (!metrics_json.empty()) {
      std::fprintf(f, ",\"metrics\":%s", metrics_json.c_str());
    }
    if (!timeseries_json.empty()) {
      std::fprintf(f, ",\"timeseries\":%s", timeseries_json.c_str());
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

 private:
  std::string path_;
  WallClock::time_point row_wall_start_;
  std::uint64_t row_events_start_;
};

/// The shared observability flags every bench accepts:
///
///   --trace=<path>       Chrome trace_event file (virtual-time spans, one
///                        lane per node/process; open in Perfetto).
///   --timeseries=<us>    arm the time-series sampler at this virtual-time
///                        interval; the captured block rides in the bench's
///                        --json row and in the --obs document.
///   --obs=<path>         write the full bridge.obs.v1 document (metrics
///                        with buckets, slowest requests, timeseries,
///                        flight recorder) for tools/obs_report.
///
/// Only the FIRST instance passed to arm() is observed — benches sweep many
/// configurations, and one machine's capture is what you inspect, while
/// arming a single run bounds the buffers.  None of this charges virtual
/// time, so measured costs are identical with or without the flags.
class ObsOptions {
 public:
  ObsOptions(int argc, char** argv)
      : trace_path_(flag_string(argc, argv, "trace")),
        obs_path_(flag_string(argc, argv, "obs")),
        interval_us_(static_cast<std::int64_t>(
            flag_value(argc, argv, "timeseries", 0))) {}

  [[nodiscard]] bool active() const noexcept {
    return !trace_path_.empty() || !obs_path_.empty() || interval_us_ > 0;
  }

  /// Claim `inst` if any obs flag was given and no earlier instance claimed
  /// it.  Call right after constructing the instance, before run().
  void arm(core::BridgeInstance& inst) {
    if (!active() || armed_) return;
    armed_ = true;
    target_ = &inst;
    if (!trace_path_.empty()) inst.runtime().tracer().enable();
    if (interval_us_ > 0) inst.enable_timeseries(interval_us_);
  }

  /// Write the armed instance's trace and obs document, and stash the
  /// timeseries block for the --json row.  Call after run(), while the
  /// instance is still alive; no-op otherwise.
  void capture() {
    if (target_ == nullptr) return;
    if (!trace_path_.empty()) {
      obs::Tracer& tracer = target_->runtime().tracer();
      if (auto st = tracer.write_chrome_trace(trace_path_); !st.is_ok()) {
        std::fprintf(stderr, "ObsOptions: %s\n", st.to_string().c_str());
      } else {
        std::printf("trace: %zu events -> %s\n", tracer.event_count(),
                    trace_path_.c_str());
      }
    }
    if (interval_us_ > 0) {
      timeseries_json_ = target_->runtime().timeseries().json();
    }
    if (!obs_path_.empty()) {
      std::string doc = target_->obs_json();
      std::FILE* f = std::fopen(obs_path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "ObsOptions: cannot open %s\n",
                     obs_path_.c_str());
      } else {
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("obs: %zu bytes -> %s\n", doc.size(), obs_path_.c_str());
      }
    }
    target_ = nullptr;
  }

  /// The captured timeseries block ("null" if sampling never armed, empty
  /// if --timeseries was absent or capture() has not run).  Feed straight
  /// to JsonReporter::emit.
  [[nodiscard]] const std::string& timeseries_json() const noexcept {
    return timeseries_json_;
  }

 private:
  std::string trace_path_;
  std::string obs_path_;
  std::int64_t interval_us_ = 0;
  std::string timeseries_json_;
  core::BridgeInstance* target_ = nullptr;
  bool armed_ = false;
};

}  // namespace bridge::bench
