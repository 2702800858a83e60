// The Bridge benchmark program: one binary, three seeded workloads.
//
//   bridge_bench --workload sort_p64|client_mix|parity_rebuild
//                --seed N --seconds S --trace 0|1
//
// Every repetition ("rep") builds a fresh simulated machine from the seed,
// loads the workload's input (setup), runs the timed phase, then captures
// and verifies outside any timed region.  Reps repeat until --seconds of
// host time have passed, with set-up-only reps in between so that set-up
// is sampled many times.  Every rep of one run uses the same seed, so their
// virtual results must be identical (checked through a digest).
//
// Two clocks, never mixed:
//   virtual  what the simulated 1988 machine takes: ctx.now() around each
//            call and the scheduler clock around the timed phase.  Exact
//            and repeatable for a seed.
//   wall     what the simulator costs on the host: steady_clock around the
//            setup and timed phases only.
//
// The program only calls public entry points of src/ (BridgeInstance, the
// routed client, ParityFile, run_sort_tool) and reads the layers' public
// stats accessors; it changes nothing inside the simulator.  Wall timing
// inside src/ is out of scope here.
//
// Output: a human-readable report, then ONE JSON line (the last line):
//   --trace 0  the gated end-to-end metrics (virt_s, setup_s, peak_rss_mib)
//   --trace 1  per-layer metrics from a traced rep, the workload-scoped
//              client latencies, and wall_s plus the tracing overhead
//              measured against untraced reps of the same run.
// Wall-clock figures are the best (minimum) of their samples; see best().
// perfbench/README.md explains every metric and why it sits where it does.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/instance.hpp"
#include "src/core/replication.hpp"
#include "src/core/routed_client.hpp"
#include "src/sim/rng.hpp"
#include "src/tools/sort/sort_tool.hpp"
#include "src/util/hash.hpp"

namespace bench {

using namespace bridge;
// NOLINT(bridge-wall-clock): wall time is the harness-cost clock; it never
// feeds a virtual-time result.
using WallClock = std::chrono::steady_clock;

double wall_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Options and environment pinning

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Traces and obs documents land here, relative to the working directory
/// (the checkout root when started by run.py).
constexpr const char* kOutDir = ".bench_out";

/// Knobs that change what is measured.  A measured run needs every one of
/// them unset (default fiber backend, default obs); their values are
/// printed with the results either way.
constexpr const char* kPinnedEnv[] = {
    "BRIDGE_SIM_BACKEND", "BRIDGE_OBS_DISABLED", "BRIDGE_SIM_STACK_WATERMARK",
    "BRIDGE_SIM_STACK_KB", "BRIDGE_SLO_US"};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "options come in --key value pairs\n");
    return false;
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

// ---------------------------------------------------------------------------
// Records: one block each, a leading little-endian key plus filler derived
// from it, so any block can be checked against the key it should carry.
// Checking allocates nothing: verification runs inside the timed phase.

std::byte filler(std::uint64_t key, std::size_t i) {
  return std::byte(static_cast<std::uint8_t>((key * 131 + i) & 0xFF));
}

void fill_record(std::span<std::byte> data, std::uint64_t key) {
  for (std::size_t i = 0; i < 8; ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(key >> (8 * i)));
  }
  for (std::size_t i = 8; i < data.size(); ++i) data[i] = filler(key, i);
}

std::vector<std::byte> record(std::uint64_t key) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  fill_record(data, key);
  return data;
}

std::uint64_t key_of(std::span<const std::byte> data) {
  if (data.size() < 8) return 0;
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    key |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  return key;
}

bool matches(std::span<const std::byte> data, std::uint64_t key) {
  if (data.size() != efs::kUserDataBytes || key_of(data) != key) return false;
  for (std::size_t i = 8; i < data.size(); ++i) {
    if (data[i] != filler(key, i)) return false;
  }
  return true;
}

/// A seeded stream per (seed, purpose) so workloads draw independently.
sim::Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return sim::Rng(util::mix64(seed * 0x100000001b3ULL ^ util::mix64(purpose)));
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: kept in memory, written out at exit.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string cls;        ///< read / write / meta / tool / rebuild / phase
  int client = -1;
  std::int64_t virt_start_us = -1;  ///< call spans: virtual interval
  std::int64_t virt_end_us = -1;
  double wall_start_s = -1;         ///< phase spans: wall interval
  double wall_end_s = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(WallClock::now()) {}
  std::uint64_t open_phase(const std::string& name) {
    if (!on_) return 0;
    Span s;
    s.id = next_++;
    s.name = name;
    s.cls = "phase";
    s.wall_start_s = wall_since(origin_);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close_phase(std::uint64_t id) {
    if (!on_ || id == 0) return;
    spans_[id - 1].wall_end_s = wall_since(origin_);
  }
  void call(const char* name, const char* cls, int client,
            std::uint64_t parent, std::int64_t start_us, std::int64_t end_us) {
    if (!on_) return;
    Span s;
    s.id = next_++;
    s.parent = parent;
    s.name = name;
    s.cls = cls;
    s.client = client;
    s.virt_start_us = start_us;
    s.virt_end_us = end_us;
    spans_.push_back(std::move(s));
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool on_;
  WallClock::time_point origin_;
  std::uint64_t next_ = 1;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One repetition's results.

/// Call classes.  Only the first kClassCount collect latency samples; tool
/// and rebuild calls are one or a few long calls, recorded as spans only.
enum Cls : int { kRead, kWrite, kMeta, kClassCount, kTool = kClassCount, kRebuild };
constexpr const char* kClassName[kClassCount] = {"read", "write", "meta"};
/// A class's latency percentiles are reported only from this many samples
/// on (p99 then has at least 20 samples beyond it).
constexpr std::size_t kMinClassSamples = 2000;

struct Rep {
  double build_s = 0;
  double load_s = 0;
  double wall_s = 0;
  double capture_s = 0;
  std::int64_t virt_us = 0;
  std::int64_t rebuild_us = -1;  ///< parity_rebuild only
  std::vector<std::int64_t> latency_us[kClassCount];
  /// Client-clock total of the calls that are one ledger request each.
  std::int64_t request_call_us = 0;
  double bridge_stages_us = 0;  ///< ledger bridge_queue + bridge_svc
  bool identity_checked = false;  ///< check_stage_identity() ran
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for the report
  /// Per-layer values that depend only on virtual execution (in the digest).
  std::map<std::string, double> layer;
  std::size_t spans = 0;
  std::uint64_t digest = 0;
  std::string backend;
};

/// Snapshot of every layer's public stats at a phase boundary.
struct Snapshot {
  sim::SchedulerStats sched;
  std::uint64_t lifetime_events = 0;
  sim::MessageStats messages;
  std::vector<disk::DiskStats> disk;
  std::vector<disk::SchedStats> disk_sched;
  std::vector<efs::CacheStats> cache;
  std::vector<efs::EfsOpStats> efs;
  std::vector<core::BridgeServerStats> bridge;
  /// StageLedger totals per op class (ledger_op_classes() order).
  std::vector<std::array<double, obs::kStageCount>> stage_us;
  sim::SimTime now{0};
};

/// Client-facing Bridge op classes, as the stage ledger names them.
std::vector<std::string> ledger_op_classes() {
  std::vector<std::string> out;
  for (std::uint32_t t = static_cast<std::uint32_t>(core::BridgeMsg::kCreate);
       t <= static_cast<std::uint32_t>(core::BridgeMsg::kList); ++t) {
    std::string name = core::bridge_msg_name(static_cast<core::BridgeMsg>(t));
    out.push_back(name.substr(std::strlen("bridge.")));
  }
  return out;
}

Snapshot snapshot(core::BridgeInstance& inst) {
  Snapshot s;
  sim::Runtime& rt = inst.runtime();
  s.sched = rt.scheduler().stats();
  s.lifetime_events = sim::Scheduler::lifetime_events_dispatched();
  s.messages = rt.message_stats();
  for (std::uint32_t i = 0; i < inst.num_lfs(); ++i) {
    efs::EfsServer& lfs = inst.lfs(i);
    s.disk.push_back(lfs.disk().stats());
    s.disk_sched.push_back(lfs.sched_stats());
    s.cache.push_back(lfs.core().cache_stats());
    s.efs.push_back(lfs.core().op_stats());
  }
  for (std::uint32_t i = 0; i < inst.num_servers(); ++i) {
    s.bridge.push_back(inst.server(i).stats());
  }
  static const std::vector<std::string> classes = ledger_op_classes();
  for (const auto& cls : classes) {
    std::array<double, obs::kStageCount> totals{};
    for (std::size_t st = 0; st < obs::kStageCount; ++st) {
      const obs::Histogram* h = rt.metrics().find_histogram(
          "op." + cls + "." + obs::stage_name(static_cast<obs::Stage>(st)) +
          "_us");
      if (h != nullptr) totals[st] = static_cast<double>(h->sum());
    }
    s.stage_us.push_back(totals);
  }
  s.now = rt.now();
  return s;
}

/// The timed phase's StageLedger totals (b - a), summed over op classes,
/// with self times taken per op class.  The ledger's stages are inclusive
/// along the call chain: bridge_svc holds the LFS legs, lfs_svc the disk
/// legs.  A self time is the parent minus its children.  When a handler
/// runs legs at once (vectored fan-out over 8 LFSs, a delete on all 16),
/// every leg charges the request in full and the children exceed the
/// parent; that excess is the fan-out overlap, reported on its own so that
/// self times never go negative.
struct StageTotals {
  double stage[obs::kStageCount] = {};
  double bridge_self = 0, bridge_overlap = 0;
  double lfs_self = 0, lfs_overlap = 0;

  [[nodiscard]] double operator[](obs::Stage s) const {
    return stage[static_cast<std::size_t>(s)];
  }
};

StageTotals stage_totals(const Snapshot& a, const Snapshot& b) {
  using obs::Stage;
  StageTotals t;
  for (std::size_t c = 0; c < b.stage_us.size(); ++c) {
    auto st = [&](Stage s) {
      auto i = static_cast<std::size_t>(s);
      return b.stage_us[c][i] - a.stage_us[c][i];
    };
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      t.stage[i] += st(static_cast<Stage>(i));
    }
    double disk = st(Stage::kDiskPos) + st(Stage::kDiskXfer);
    double lfs = st(Stage::kLfsQueue) + st(Stage::kLfsSvc);
    t.lfs_self += std::max(0.0, st(Stage::kLfsSvc) - disk);
    t.lfs_overlap += std::max(0.0, disk - st(Stage::kLfsSvc));
    t.bridge_self += std::max(0.0, st(Stage::kBridgeSvc) - lfs);
    t.bridge_overlap += std::max(0.0, lfs - st(Stage::kBridgeSvc));
  }
  return t;
}

/// Fill rep.layer with the timed phase's per-layer deltas (b - a).
void layer_deltas(const Snapshot& a, const Snapshot& b, Rep& rep) {
  using obs::Stage;
  auto& L = rep.layer;
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  double virt_us = static_cast<double>((b.now - a.now).us());
  StageTotals stages = stage_totals(a, b);

  // sim
  L["sim.events"] = d(b.sched.events_dispatched, a.sched.events_dispatched);
  L["sim.spawns"] = d(b.sched.processes_spawned, a.sched.processes_spawned);
  L["sim.wakes"] = d(b.sched.wakes_scheduled, a.sched.wakes_scheduled);
  double stale = d(b.sched.stale_wakes_skipped, a.sched.stale_wakes_skipped);
  L["sim.stale_wake_frac"] = L["sim.wakes"] > 0 ? stale / L["sim.wakes"] : 0;
  L["sim.remote_msgs"] =
      d(b.messages.remote_messages, a.messages.remote_messages);
  L["sim.remote_bytes"] = d(b.messages.remote_bytes, a.messages.remote_bytes);
  L["sim.local_msgs"] = d(b.messages.local_messages, a.messages.local_messages);
  L["sim.fiber_stacks_allocated"] =
      static_cast<double>(b.sched.fiber_stacks_allocated);

  // disk
  double reads = 0, writes = 0, pos_ops = 0, reordered = 0, coalesced = 0;
  double util_sum = 0, util_max = 0, depth_max = 0;
  for (std::size_t i = 0; i < b.disk.size(); ++i) {
    disk::DiskStats dd = b.disk[i] - a.disk[i];
    reads += static_cast<double>(dd.block_reads);
    writes += static_cast<double>(dd.block_writes);
    pos_ops += static_cast<double>(dd.positioning_ops);
    double util =
        virt_us > 0 ? static_cast<double>(dd.busy_time.us()) / virt_us : 0;
    util_sum += util;
    util_max = std::max(util_max, util);
    reordered += d(b.disk_sched[i].reordered, a.disk_sched[i].reordered);
    coalesced += d(b.disk_sched[i].coalesced, a.disk_sched[i].coalesced);
    depth_max = std::max(depth_max,
                         static_cast<double>(b.disk_sched[i].max_queue_depth));
  }
  L["disk.block_reads"] = reads;
  L["disk.block_writes"] = writes;
  L["disk.positioning_ops"] = pos_ops;
  L["disk.util_mean"] = b.disk.empty() ? 0 : util_sum / b.disk.size();
  L["disk.util_max"] = util_max;
  L["disk.pos_us"] = stages[Stage::kDiskPos];
  L["disk.xfer_us"] = stages[Stage::kDiskXfer];
  L["disk.sched_reordered"] = reordered;
  L["disk.sched_coalesced"] = coalesced;
  L["disk.sched_max_depth"] = depth_max;

  // efs
  double hits = 0, misses = 0, readahead = 0, dirty = 0, lookups = 0,
         extents = 0;
  for (std::size_t i = 0; i < b.cache.size(); ++i) {
    efs::CacheStats dc = b.cache[i] - a.cache[i];
    hits += static_cast<double>(dc.hits);
    misses += static_cast<double>(dc.misses);
    readahead += static_cast<double>(dc.readahead_blocks);
    dirty += static_cast<double>(dc.dirty_evictions);
    lookups += d(b.efs[i].extent_lookups, a.efs[i].extent_lookups);
    extents += d(b.efs[i].extents_allocated, a.efs[i].extents_allocated);
  }
  L["efs.cache_hits"] = hits;
  L["efs.cache_misses"] = misses;
  L["efs.cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  L["efs.readahead_blocks"] = readahead;
  L["efs.dirty_evictions"] = dirty;
  L["efs.extent_lookups"] = lookups;
  L["efs.extents_allocated"] = extents;
  L["efs.lfs_queue_us"] = stages[Stage::kLfsQueue];
  L["efs.lfs_svc_self_us"] = stages.lfs_self;
  L["efs.fanout_overlap_us"] = stages.lfs_overlap;

  // core
  core::BridgeServerStats bs;
  for (std::size_t i = 0; i < b.bridge.size(); ++i) {
    core::BridgeServerStats db = b.bridge[i] - a.bridge[i];
    bs.requests += db.requests;
    bs.vectored_batches += db.vectored_batches;
    bs.vectored_blocks += db.vectored_blocks;
    bs.parallel_rounds += db.parallel_rounds;
    bs.renames_out += db.renames_out;
    bs.rename_aborts += db.rename_aborts;
  }
  L["core.requests"] = static_cast<double>(bs.requests);
  L["core.vectored_batches"] = static_cast<double>(bs.vectored_batches);
  L["core.vectored_blocks"] = static_cast<double>(bs.vectored_blocks);
  L["core.parallel_rounds"] = static_cast<double>(bs.parallel_rounds);
  L["core.renames_out"] = static_cast<double>(bs.renames_out);
  L["core.rename_aborts"] = static_cast<double>(bs.rename_aborts);
  L["core.bridge_queue_us"] = stages[Stage::kBridgeQueue];
  L["core.bridge_svc_self_us"] = stages.bridge_self;
  L["core.fanout_overlap_us"] = stages.bridge_overlap;
  // The handoff is a parked interval: the destination's queue and service
  // and the ack's queue, all charged to the same request, cover it.  It is
  // reported, and left out of the stage sum below.
  L["core.rename_handoff_us"] = stages[Stage::kRenameHandoff];

  L["client.client_wait_us"] = stages[Stage::kClientWait];
  rep.bridge_stages_us =
      stages[Stage::kBridgeQueue] + stages[Stage::kBridgeSvc];

  // Layer results a workload reports itself (0 where it does not run them).
  for (const char* name :
       {"client.remainder_us", "core.rebuild_blocks_read",
        "core.rebuild_blocks_written",
        "core.rebuild_windows", "tools.sort.local_s", "tools.sort.merge_s",
        "tools.sort.merge_passes"}) {
    L[name] = 0;
  }
}

/// The exclusive ledger stages of the timed phase, summed.
double exclusive_stage_us(const std::map<std::string, double>& L) {
  return L.at("core.bridge_queue_us") + L.at("core.bridge_svc_self_us") +
         L.at("efs.lfs_queue_us") + L.at("efs.lfs_svc_self_us") +
         L.at("disk.pos_us") + L.at("disk.xfer_us");
}

double fanout_overlap_us(const std::map<std::string, double>& L) {
  return L.at("core.fanout_overlap_us") + L.at("efs.fanout_overlap_us");
}

// ---------------------------------------------------------------------------
// The harness one rep runs through: build -> load -> timed -> capture.
// A set-up-only rep stops after load: the workload returns once
// setup_only() is true.

class Harness {
 public:
  Harness(const Options& opt, bool traced, bool setup_only, Rep& rep,
          SpanLog& spans)
      : opt_(opt), traced_(traced), setup_only_(setup_only), rep_(rep),
        spans_(spans) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return opt_.seed; }
  [[nodiscard]] bool setup_only() const noexcept { return setup_only_; }
  [[nodiscard]] core::BridgeInstance& inst() noexcept { return *inst_; }
  [[nodiscard]] Rep& rep() noexcept { return rep_; }

  /// Setup part 1: construct the machine (disks allocated and formatted).
  void build(const core::SystemConfig& cfg) {
    std::uint64_t span = spans_.open_phase("build");
    auto t0 = WallClock::now();
    inst_ = std::make_unique<core::BridgeInstance>(cfg);
    inst_->start();
    rep_.build_s = wall_since(t0);
    rep_.backend = inst_->runtime().scheduler().backend_name();
    spans_.close_phase(span);
  }

  /// Setup part 2: load the workload's input.  `body` spawns clients and
  /// runs the simulation to quiescence.
  void load(const std::function<void()>& body) {
    std::uint64_t span = spans_.open_phase("load");
    auto t0 = WallClock::now();
    body();
    rep_.load_s = wall_since(t0);
    spans_.close_phase(span);
  }

  /// The timed phase.  `body` may run the simulation several times (it may
  /// inject faults between runs); wall time counts only inside `body`.
  void timed(const std::function<void()>& body) {
    if (traced_) inst_->runtime().tracer().enable();
    Snapshot before = snapshot(*inst_);
    timed_span_ = spans_.open_phase("timed");
    auto t0 = WallClock::now();
    body();
    rep_.wall_s = wall_since(t0);
    spans_.close_phase(timed_span_);
    Snapshot after = snapshot(*inst_);
    rep_.virt_us = (after.now - before.now).us();
    layer_deltas(before, after, rep_);
    // The harness-cost cross-check: the process-wide event counter must
    // agree with this scheduler's own stats over the same region.
    std::uint64_t events =
        after.sched.events_dispatched - before.sched.events_dispatched;
    std::uint64_t lifetime = after.lifetime_events - before.lifetime_events;
    if (events == 0 || lifetime != events) {
      fail_check("timed-region events: scheduler " + std::to_string(events) +
                 ", lifetime counter " + std::to_string(lifetime));
    }
  }

  /// Run the simulation to quiescence.  A client left parked (a deadlock)
  /// fails the run: its remaining operations would otherwise go unchecked.
  void run() {
    inst_->run();
    if (inst_->runtime().scheduler().deadlocked()) {
      std::string parked;
      for (const auto& name :
           inst_->runtime().scheduler().parked_process_names()) {
        parked += " " + name;
      }
      fail_check("deadlock, parked:" + parked);
    }
  }

  /// Untimed capture (traced reps): render the obs document the run
  /// explains itself with, and count the tracer's spans.
  void capture(const std::string& path) {
    std::uint64_t span = spans_.open_phase("capture");
    auto t0 = WallClock::now();
    if (traced_) {
      std::string doc = inst_->obs_json();
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
      rep_.spans = inst_->runtime().tracer().event_count();
    }
    rep_.capture_s = wall_since(t0);
    spans_.close_phase(span);
  }

  /// Time one call made from inside a simulated client: its virtual
  /// latency becomes a sample of class `cls` (if cls < kClassCount) and,
  /// when traced, a span under the timed phase.  `one_request` marks a
  /// call that is exactly one StageLedger request (one BridgeClient call);
  /// those make up the client-clock side of the stage identity.
  template <typename F>
  auto call(sim::Context& ctx, int cls, const char* name, int client, F&& f,
            bool one_request = false) {
    std::int64_t t0 = ctx.now().us();
    auto result = f();
    std::int64_t t1 = ctx.now().us();
    if (cls < kClassCount) rep_.latency_us[cls].push_back(t1 - t0);
    if (one_request) rep_.request_call_us += t1 - t0;
    static const char* const kSpanClass[] = {"read", "write", "meta", "tool",
                                             "rebuild"};
    spans_.call(name, kSpanClass[cls], client, timed_span_, t0, t1);
    return result;
  }

  /// Count one attempted operation; `ok == false` counts it failed.  The
  /// description is built only for a failure: checks run inside the timed
  /// phase, so a passing one costs no more than its comparison.
  template <typename Describe>
    requires std::invocable<Describe>
  void check(bool ok, Describe&& describe) {
    ++rep_.attempted;
    if (ok) return;
    ++rep_.failed;
    if (rep_.errors.size() < 8) rep_.errors.emplace_back(describe());
  }
  void check(bool ok, const char* what) {
    check(ok, [what] { return std::string(what); });
  }

  /// client_mix's stage identity.  Every ledgered call there is one client
  /// call, so the client's own clock can measure the remainder: what its
  /// calls took beyond the Bridge-level stages (reply wire time, mostly).
  /// The exclusive stages minus the fan-out overlap plus that remainder
  /// must then give the ledger's own client_wait.
  void check_stage_identity() {
    rep_.identity_checked = true;
    auto& L = rep_.layer;
    L["client.remainder_us"] = static_cast<double>(rep_.request_call_us) -
                               rep_.bridge_stages_us;
    double sum = exclusive_stage_us(L) - fanout_overlap_us(L) +
                 L.at("client.remainder_us");
    double client_wait = L.at("client.client_wait_us");
    if (std::abs(sum - client_wait) > 0.5) {
      fail_check("stage identity: stages + remainder " + std::to_string(sum) +
                 " us, ledger client_wait " + std::to_string(client_wait) +
                 " us");
    }
  }

  void fail_check(const std::string& what) {
    check_failures_.push_back(what);
  }
  [[nodiscard]] const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

 private:
  const Options& opt_;
  bool traced_;
  bool setup_only_;
  Rep& rep_;
  SpanLog& spans_;
  std::unique_ptr<core::BridgeInstance> inst_;
  std::uint64_t timed_span_ = 0;
  std::vector<std::string> check_failures_;
};

// ---------------------------------------------------------------------------
// Workload sort_p64: Table 4's 10 MB sort on 64 LFSs, where speedup
// collapses.  The timed phase is one run_sort_tool call.

void sort_p64(Harness& h) {
  constexpr std::uint32_t kP = 64;
  constexpr std::uint64_t kRecords = 10240;
  const std::uint32_t in_core = static_cast<std::uint32_t>(kRecords / 20 + 16);

  h.build(core::SystemConfig::paper_profile(
      kP, static_cast<std::uint32_t>(4 * kRecords / kP + 256)));
  core::BridgeInstance& inst = h.inst();

  // Input keys from the seed; the checksum is order-independent.
  std::vector<std::uint64_t> keys(kRecords);
  sim::Rng rng = stream(h.seed(), 0x50e7);
  std::uint64_t key_sum = 0;
  for (auto& k : keys) {
    k = rng.next_u64();
    key_sum += util::mix64(k);
  }

  h.load([&] {
    inst.run_client("load", [&](sim::Context&, core::BridgeClient& client) {
      h.check(client.create("input").is_ok(), "create input");
      auto open = client.open("input");
      if (!open.is_ok()) return h.check(false, "open input");
      for (std::uint64_t i = 0; i < kRecords; i += 64) {
        std::vector<std::vector<std::byte>> run;
        for (std::uint64_t j = i; j < std::min(kRecords, i + 64); ++j) {
          run.push_back(record(keys[j]));
        }
        auto wrote = client.seq_write_many(open.value().session, std::move(run));
        if (!wrote.is_ok()) return h.check(false, "load input");
      }
    });
    h.run();
  });
  if (h.setup_only()) return;

  tools::SortReport report;
  h.timed([&] {
    inst.run_client("sort", [&](sim::Context& ctx, core::BridgeClient& client) {
      tools::SortOptions options;
      options.tuning.in_core_records = in_core;
      auto result = h.call(ctx, kTool, "run_sort_tool", 0, [&] {
        return tools::run_sort_tool(ctx, client, "input", "sorted", options);
      });
      h.check(result.is_ok(),
              [&] { return "sort: " + result.status().to_string(); });
      if (result.is_ok()) report = result.value();
    });
    h.run();
  });
  h.rep().layer["tools.sort.local_s"] = report.local_phase.sec();
  h.rep().layer["tools.sort.merge_s"] = report.merge_phase.sec();
  h.rep().layer["tools.sort.merge_passes"] = report.merge_passes;

  // Verify: sorted order, same count, same key multiset, intact records.
  inst.run_client("verify", [&](sim::Context&, core::BridgeClient& client) {
    auto open = client.open("sorted");
    if (!open.is_ok()) return h.check(false, "open sorted");
    std::uint64_t count = 0, sum = 0, prev = 0;
    bool eof = false;
    while (!eof) {
      auto got = client.seq_read_many(open.value().session, 256);
      if (!got.is_ok()) return h.check(false, "read sorted");
      for (const auto& block : got.value().blocks) {
        std::uint64_t k = key_of(block);
        h.check(matches(block, k) && (count == 0 || k >= prev),
                [&] { return "sorted record " + std::to_string(count); });
        sum += util::mix64(k);
        prev = k;
        ++count;
      }
      eof = got.value().eof || got.value().blocks.empty();
    }
    h.check(count == kRecords,
            [&] { return "sorted count " + std::to_string(count); });
    h.check(sum == key_sum, "sorted key-multiset checksum");
  });
  h.run();
}

// ---------------------------------------------------------------------------
// Workload client_mix: 16 closed-loop routed clients, 4 Bridge servers,
// 16 LFSs, a seeded read/write/metadata mix over a cold file set.

constexpr std::uint32_t kMixLfs = 16;
constexpr std::uint32_t kMixServers = 4;
constexpr std::uint32_t kMixClients = 16;
constexpr std::uint32_t kMixDraws = 2000;  ///< ops per client
/// Cold set: 96 files x 64 blocks = 6144 blocks, 6x the aggregate EFS
/// cache (16 LFSs x 64 blocks).
constexpr std::uint32_t kPreloadFiles = 96;
constexpr std::uint32_t kPreloadBlocks = 64;

std::string preload_name(std::uint32_t f) { return "cold" + std::to_string(f); }

std::uint64_t preload_key(std::uint64_t seed, std::uint32_t f,
                          std::uint32_t b) {
  return util::mix64(seed ^ util::mix64((std::uint64_t{f} << 32) | b));
}

struct OwnFile {
  std::string name;
  core::BridgeFileId id = 0;
  std::vector<std::uint64_t> keys;  ///< acked contents, block by block
};

/// One mix client: the model of everything it has written is `own`; the
/// last entry is the file it appends to through `wsess`.
class MixClient {
 public:
  MixClient(Harness& h, sim::Context& ctx, core::RoutedBridgeClient& api,
            int id, const std::vector<core::BridgeFileId>& cold_ids,
            std::vector<OwnFile>& own)
      : h_(h), ctx_(ctx), api_(api), id_(id), cold_ids_(cold_ids), own_(own),
        rng_(stream(h.seed(), 0xC11E47 + id)) {}

  /// 60% reads, 25% writes, 15% metadata.  Creates and removes are equally
  /// likely, so each client's live file count stays small: an EFS
  /// directory holds 512 names per LFS and every Bridge file has a
  /// constituent on all 16.
  void run() {
    create_file();
    reopen_stream();
    for (std::uint32_t i = 0; i < kMixDraws; ++i) {
      std::uint64_t r = rng_.next_below(100);
      if (r < 25) {
        cold_read();
      } else if (r < 45) {
        stream_read();
      } else if (r < 60) {
        hot_read();
      } else if (r < 75) {
        write_one();
      } else if (r < 85) {
        write_many();
      } else if (r < 89) {
        create_file();
      } else if (r < 93) {
        rename_file();
      } else if (r < 96) {
        list_own();
      } else {
        remove_file();
      }
    }
  }

  [[nodiscard]] std::string prefix() const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "c%02d_", id_);
    return buf;
  }

 private:
  /// Every routed call but list is one BridgeClient call: one ledger
  /// request, timed for the stage identity.
  template <typename F>
  auto call(int cls, const char* name, F&& f) {
    return h_.call(ctx_, cls, name, id_, std::forward<F>(f),
                   /*one_request=*/true);
  }

  std::uint64_t new_key() {
    return util::mix64(h_.seed() ^ (std::uint64_t(id_) << 48) ^ ++key_ctr_);
  }

  void cold_read() {
    auto f = static_cast<std::uint32_t>(rng_.next_below(kPreloadFiles));
    auto b = static_cast<std::uint32_t>(rng_.next_below(kPreloadBlocks));
    auto got = call(kRead, "random_read",
                    [&] { return api_.random_read(cold_ids_[f], b); });
    h_.check(got.is_ok() && matches(got.value(), preload_key(h_.seed(), f, b)),
             [&] {
               return "cold read " + preload_name(f) + ":" + std::to_string(b);
             });
  }

  void stream_read() {
    auto got = call(kRead, "seq_read_many",
                    [&] { return api_.seq_read_many(rsess_, 8); });
    bool ok = got.is_ok() && got.value().first_block_no == rcursor_;
    if (ok) {
      for (const auto& block : got.value().blocks) {
        ok = ok && rcursor_ < kPreloadBlocks &&
             matches(block, preload_key(h_.seed(), rfile_, rcursor_));
        ++rcursor_;
      }
    }
    h_.check(ok, [&] { return "stream read " + preload_name(rfile_); });
    if (!ok || got.value().eof || rcursor_ >= kPreloadBlocks) reopen_stream();
  }

  void reopen_stream() {
    rfile_ = static_cast<std::uint32_t>(rng_.next_below(kPreloadFiles));
    auto open = call(kMeta, "open",
                     [&] { return api_.open(preload_name(rfile_)); });
    h_.check(open.is_ok(), [&] { return "open " + preload_name(rfile_); });
    rsess_ = open.is_ok() ? open.value().session : 0;
    rcursor_ = 0;
  }

  /// Re-read one of this client's recent blocks (hot in some EFS cache).
  void hot_read() {
    OwnFile* file = &own_.back();
    if (file->keys.empty() && own_.size() > 1) {
      file = &own_[rng_.next_below(own_.size() - 1)];
    }
    if (file->keys.empty()) return cold_read();
    std::uint64_t depth = std::min<std::uint64_t>(file->keys.size(), 16);
    std::uint64_t b = file->keys.size() - 1 - rng_.next_below(depth);
    auto got = call(kRead, "random_read",
                    [&] { return api_.random_read(file->id, b); });
    h_.check(got.is_ok() && matches(got.value(), file->keys[b]), [&] {
      return "hot read " + file->name + ":" + std::to_string(b);
    });
  }

  void write_one() {
    std::uint64_t key = new_key();
    fill_record(block_, key);
    auto wrote = call(kWrite, "seq_write",
                      [&] { return api_.seq_write(wsess_, block_); });
    OwnFile& file = own_.back();
    h_.check(wrote.is_ok() && wrote.value() == file.keys.size(),
             [&] { return "seq_write " + file.name; });
    if (wrote.is_ok()) file.keys.push_back(key);
  }

  void write_many() {
    std::vector<std::uint64_t> keys;
    std::vector<std::vector<std::byte>> run;
    for (int i = 0; i < 8; ++i) {
      keys.push_back(new_key());
      run.push_back(record(keys.back()));
    }
    auto wrote = call(kWrite, "seq_write_many", [&] {
      return api_.seq_write_many(wsess_, std::move(run));
    });
    OwnFile& file = own_.back();
    h_.check(wrote.is_ok() && wrote.value().count == 8 &&
                 wrote.value().first_block_no == file.keys.size(),
             [&] { return "seq_write_many " + file.name; });
    if (wrote.is_ok()) {
      file.keys.insert(file.keys.end(), keys.begin(),
                       keys.begin() + wrote.value().count);
    }
  }

  /// Create + open a new file; it becomes the append target.
  void create_file() {
    OwnFile file;
    file.name = prefix() + "f" + std::to_string(file_ctr_++);
    auto created = call(kMeta, "create",
                        [&] { return api_.create(file.name); });
    h_.check(created.is_ok(), [&] {
      return "create " + file.name + ": " + created.status().to_string();
    });
    if (!created.is_ok()) return;
    file.id = created.value();
    auto open = call(kMeta, "open", [&] { return api_.open(file.name); });
    h_.check(open.is_ok(), [&] { return "open " + file.name; });
    if (!open.is_ok()) return;
    wsess_ = open.value().session;
    own_.push_back(std::move(file));
  }

  /// Rename a sealed file; every other rename moves it to another server.
  void rename_file() {
    if (own_.size() < 2) return list_own();
    OwnFile& file = own_[rng_.next_below(own_.size() - 1)];
    bool cross = (rename_ctr_++ % 2) == 0;
    std::uint32_t from_home = core::directory_home(file.name, kMixServers);
    std::string to;
    for (std::uint32_t j = 0;; ++j) {
      to = prefix() + "r" + std::to_string(rename_ctr_) + "_" +
           std::to_string(j);
      if ((core::directory_home(to, kMixServers) != from_home) == cross) break;
    }
    auto renamed = call(kMeta, "rename",
                        [&] { return api_.rename(file.name, to); });
    h_.check(renamed.is_ok(),
             [&] { return "rename " + file.name + " -> " + to; });
    if (!renamed.is_ok()) return;
    file.name = to;
    file.id = renamed.value();
  }

  /// List this client's names: each model file exactly once, sizes acked.
  /// A routed list fans out to every server outside BridgeClient::call, so
  /// it is no ledger request.
  void list_own() {
    auto listed = h_.call(ctx_, kMeta, "list", id_,
                          [&] { return api_.list(prefix()); });
    // Equal counts and every model file listed exactly once, with its size,
    // make the listing and the model the same set.  A client holds a
    // handful of files, so the quadratic scan is cheaper than a map.
    bool ok = listed.is_ok() && listed.value().size() == own_.size();
    for (std::size_t i = 0; ok && i < own_.size(); ++i) {
      auto same = [&](const core::ListEntry& e) {
        return e.name == own_[i].name && e.size_blocks == own_[i].keys.size();
      };
      ok = std::count_if(listed.value().begin(), listed.value().end(), same) ==
           1;
    }
    h_.check(ok, [&] { return "list " + prefix(); });
  }

  void remove_file() {
    if (own_.size() < 3) return list_own();
    const std::string& name = own_.front().name;
    auto removed = call(kMeta, "remove", [&] { return api_.remove(name); });
    h_.check(removed.is_ok(), [&] { return "remove " + name; });
    if (removed.is_ok()) own_.erase(own_.begin());
  }

  Harness& h_;
  sim::Context& ctx_;
  core::RoutedBridgeClient& api_;
  int id_;
  const std::vector<core::BridgeFileId>& cold_ids_;
  std::vector<OwnFile>& own_;
  sim::Rng rng_;
  std::uint64_t wsess_ = 0;
  std::uint64_t rsess_ = 0;
  std::uint32_t rfile_ = 0;
  std::uint64_t rcursor_ = 0;
  std::uint64_t key_ctr_ = 0;
  std::uint64_t file_ctr_ = 0;
  std::uint64_t rename_ctr_ = 0;
  std::vector<std::byte> block_ = std::vector<std::byte>(efs::kUserDataBytes);
};

void client_mix(Harness& h) {
  auto cfg = core::SystemConfig::paper_profile(kMixLfs, 2048);
  cfg.num_bridge_servers = kMixServers;
  h.build(cfg);
  core::BridgeInstance& inst = h.inst();

  // Setup: four loaders write the cold set through the router.
  std::vector<core::BridgeFileId> cold_ids(kPreloadFiles);
  h.load([&] {
    for (std::uint32_t l = 0; l < 4; ++l) {
      inst.run_routed_client("load" + std::to_string(l), [&, l](
          sim::Context&, core::RoutedBridgeClient& api) {
        for (std::uint32_t f = l; f < kPreloadFiles; f += 4) {
          auto created = api.create(preload_name(f));
          auto open = api.open(preload_name(f));
          auto failed = [&] { return "load " + preload_name(f); };
          if (!created.is_ok() || !open.is_ok()) return h.check(false, failed);
          cold_ids[f] = created.value();
          std::vector<std::vector<std::byte>> run;
          for (std::uint32_t b = 0; b < kPreloadBlocks; ++b) {
            run.push_back(record(preload_key(h.seed(), f, b)));
          }
          auto wrote =
              api.seq_write_many(open.value().session, std::move(run));
          if (!wrote.is_ok()) return h.check(false, failed);
        }
      });
    }
    h.run();
  });
  if (h.setup_only()) return;

  std::vector<std::vector<OwnFile>> own(kMixClients);
  h.timed([&] {
    for (std::uint32_t c = 0; c < kMixClients; ++c) {
      inst.run_routed_client("mix" + std::to_string(c), [&, c](
          sim::Context& ctx, core::RoutedBridgeClient& api) {
        MixClient(h, ctx, api, static_cast<int>(c), cold_ids, own[c]).run();
      });
    }
    h.run();
  });
  h.check_stage_identity();

  // Verify the namespace: every model name exactly once, nothing else.
  inst.run_routed_client("verify", [&](sim::Context&,
                                       core::RoutedBridgeClient& api) {
    auto listed = api.list("");
    if (!listed.is_ok()) return h.check(false, "final list");
    std::map<std::string, std::uint64_t> want;
    for (std::uint32_t f = 0; f < kPreloadFiles; ++f) {
      want[preload_name(f)] = kPreloadBlocks;
    }
    for (const auto& files : own) {
      for (const auto& f : files) want[f.name] = f.keys.size();
    }
    std::set<std::string> seen;
    for (const auto& e : listed.value()) {
      auto it = want.find(e.name);
      h.check(it != want.end() && it->second == e.size_blocks &&
                  seen.insert(e.name).second,
              [&] { return "final name " + e.name; });
    }
    h.check(seen.size() == want.size(), "final name count");
  });
  h.run();
}

// ---------------------------------------------------------------------------
// Workload parity_rebuild: RAID-4 style ParityFiles on 16 LFSs of an aged
// machine; append, lose a disk, read degraded, rebuild, verify.

constexpr std::uint32_t kParityLfs = 16;
constexpr std::uint32_t kParityFiles = 4;
constexpr std::uint32_t kStripesBase = 512;

void parity_rebuild(Harness& h) {
  h.build(core::SystemConfig::paper_profile(kParityLfs, 3072));
  core::BridgeInstance& inst = h.inst();
  sim::Rng rng = stream(h.seed(), 0xFA11);
  const auto victim = static_cast<std::uint32_t>(rng.next_below(kParityLfs - 1));
  std::vector<std::uint32_t> stripes(kParityFiles);
  for (auto& s : stripes) s = kStripesBase + rng.next_below(32);
  const std::uint32_t width = kParityLfs - 1;
  std::vector<std::vector<std::uint64_t>> keys(kParityFiles);
  for (std::uint32_t f = 0; f < kParityFiles; ++f) {
    for (std::uint64_t n = 0; n < std::uint64_t{stripes[f]} * width; ++n) {
      keys[f].push_back(rng.next_u64());
    }
  }
  auto pf_name = [](std::uint32_t f) { return "pf" + std::to_string(f); };

  // Setup: age the volumes (plain interleaved files, every other one
  // removed, leaving holes), then create the parity files.
  std::vector<std::uint32_t> victim_ids(kParityFiles);
  h.load([&] {
    inst.run_client("age", [&](sim::Context& ctx, core::BridgeClient& client) {
      sim::Rng age = stream(h.seed(), 0xA9E);
      for (std::uint32_t a = 0; a < 6; ++a) {
        std::string name = "aged" + std::to_string(a);
        auto created = client.create(name);
        auto open = client.open(name);
        if (!created.is_ok() || !open.is_ok()) {
          return h.check(false, [&] { return "age " + name; });
        }
        std::uint64_t blocks = 192 + age.next_below(128);
        for (std::uint64_t i = 0; i < blocks; i += 64) {
          std::vector<std::vector<std::byte>> run;
          for (std::uint64_t j = i; j < std::min(blocks, i + 64); ++j) {
            run.push_back(record(age.next_u64()));
          }
          if (!client.seq_write_many(open.value().session, std::move(run))
                   .is_ok()) {
            return h.check(false, [&] { return "age " + name; });
          }
        }
      }
      for (std::uint32_t a = 1; a < 6; a += 2) {
        if (!client.remove("aged" + std::to_string(a)).is_ok()) {
          return h.check(false, "age remove");
        }
      }
      for (std::uint32_t f = 0; f < kParityFiles; ++f) {
        auto pf = core::ParityFile::open(ctx, client, pf_name(f));
        auto meta = client.open(pf_name(f));
        if (!pf.is_ok() || !meta.is_ok()) return h.check(false, "create pf");
        victim_ids[f] = meta.value().meta.lfs_file_id;
      }
    });
    h.run();
  });
  if (h.setup_only()) return;

  core::RebuildReport rebuilt;
  h.timed([&] {
    // 1. Four appenders fill their files concurrently.
    for (std::uint32_t f = 0; f < kParityFiles; ++f) {
      inst.run_client("append" + std::to_string(f), [&, f](
          sim::Context& ctx, core::BridgeClient& client) {
        auto pf = h.call(ctx, kMeta, "parity_open", f, [&] {
          return core::ParityFile::open(ctx, client, pf_name(f));
        });
        if (!pf.is_ok()) {
          return h.check(false, [&] { return "open " + pf_name(f); });
        }
        std::vector<std::vector<std::byte>> stripe(
            width, std::vector<std::byte>(efs::kUserDataBytes));
        for (std::uint32_t s = 0; s < stripes[f]; ++s) {
          for (std::uint32_t i = 0; i < width; ++i) {
            fill_record(stripe[i], keys[f][s * width + i]);
          }
          auto st = h.call(ctx, kWrite, "append_stripe", f, [&] {
            return pf.value().append_stripe(stripe);
          });
          h.check(st.is_ok(), [&] { return "append " + pf_name(f); });
        }
      });
    }
    h.run();

    // 2. One data LFS's disk fails.
    inst.lfs(victim).disk().fail();

    // 3. Degraded reads of every block, each file in a seeded order.
    for (std::uint32_t f = 0; f < kParityFiles; ++f) {
      inst.run_client("read" + std::to_string(f), [&, f](
          sim::Context& ctx, core::BridgeClient& client) {
        auto pf = h.call(ctx, kMeta, "parity_open", f, [&] {
          return core::ParityFile::open(ctx, client, pf_name(f));
        });
        if (!pf.is_ok()) {
          return h.check(false, [&] { return "degraded open " + pf_name(f); });
        }
        std::vector<std::uint64_t> order(keys[f].size());
        for (std::uint64_t n = 0; n < order.size(); ++n) order[n] = n;
        sim::Rng shuffle = stream(h.seed(), 0x5EED + f);
        for (std::uint64_t n = order.size(); n > 1; --n) {
          std::swap(order[n - 1], order[shuffle.next_below(n)]);
        }
        for (std::uint64_t n : order) {
          auto got = h.call(ctx, kRead, "parity_read", f,
                            [&] { return pf.value().read(n); });
          h.check(got.is_ok() && matches(got.value(), keys[f][n]), [&] {
            return "degraded read " + pf_name(f) + ":" + std::to_string(n);
          });
        }
      });
    }
    h.run();

    // 4. The disk comes back blank (a spare) and the engine rebuilds it.
    inst.lfs(victim).disk().repair();
    efs::EfsServer& lfs = inst.lfs(victim);
    std::vector<std::byte> zeros(lfs.disk().geometry().block_size);
    for (std::uint32_t f = 0; f < kParityFiles; ++f) {
      for (std::uint32_t b = 0; b < stripes[f]; ++b) {
        disk::BlockAddr addr = lfs.core().peek_block_addr(victim_ids[f], b);
        if (addr != disk::kNilAddr) lfs.disk().poke(addr, zeros);
      }
    }
    sim::SimTime rebuild_start = inst.runtime().now();
    inst.run_client("rebuild", [&](sim::Context& ctx,
                                   core::BridgeClient& client) {
      for (std::uint32_t f = 0; f < kParityFiles; ++f) {
        auto pf = core::ParityFile::open(ctx, client, pf_name(f));
        if (!pf.is_ok()) {
          return h.check(false, [&] { return "rebuild open " + pf_name(f); });
        }
        auto report = h.call(ctx, kRebuild, "rebuild_lfs", f, [&] {
          return pf.value().rebuild_lfs(victim);
        });
        h.check(report.is_ok(), [&] { return "rebuild " + pf_name(f); });
        if (!report.is_ok()) continue;
        rebuilt.blocks_read += report.value().blocks_read;
        rebuilt.blocks_rebuilt += report.value().blocks_rebuilt;
        rebuilt.windows += report.value().windows;
      }
    });
    h.run();
    h.rep().rebuild_us = (inst.runtime().now() - rebuild_start).us();
  });
  h.rep().layer["core.rebuild_blocks_read"] = rebuilt.blocks_read;
  h.rep().layer["core.rebuild_blocks_written"] = rebuilt.blocks_rebuilt;
  h.rep().layer["core.rebuild_windows"] = rebuilt.windows;

  // Verify: every block reads back bit-identical without reconstruction,
  // and every LFS passes its integrity walk.
  inst.run_client("verify", [&](sim::Context& ctx, core::BridgeClient& client) {
    for (std::uint32_t f = 0; f < kParityFiles; ++f) {
      auto pf = core::ParityFile::open(ctx, client, pf_name(f));
      if (!pf.is_ok()) {
        return h.check(false, [&] { return "verify open " + pf_name(f); });
      }
      h.check(pf.value().size_blocks() == keys[f].size(), "verify size");
      for (std::uint64_t n = 0; n < keys[f].size(); ++n) {
        bool reconstructed = true;
        auto got = pf.value().read(n, &reconstructed);
        h.check(
            got.is_ok() && !reconstructed && matches(got.value(), keys[f][n]),
            [&] {
              return "rebuilt read " + pf_name(f) + ":" + std::to_string(n);
            });
      }
    }
  });
  h.run();
  h.check(inst.verify_all_lfs().is_ok(), "LFS integrity after rebuild");
}

// ---------------------------------------------------------------------------
// Statistics and reporting

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank percentile (q in (0,1]) of virtual microseconds.
double percentile_us(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return util::mix64(h ^ util::mix64(v));
}

/// Digest of everything virtual a rep produced: the timed phase's length,
/// every latency sample in order, and every virtual layer count.
std::uint64_t digest(const Rep& rep) {
  std::uint64_t h = fold(0, static_cast<std::uint64_t>(rep.virt_us));
  h = fold(h, static_cast<std::uint64_t>(rep.rebuild_us));
  for (const auto& samples : rep.latency_us) {
    h = fold(h, samples.size());
    for (std::int64_t s : samples) h = fold(h, static_cast<std::uint64_t>(s));
  }
  for (const auto& [name, value] : rep.layer) {
    for (char c : name) h = fold(h, static_cast<unsigned char>(c));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    h = fold(h, bits);
  }
  return fold(h, rep.attempted ^ (rep.failed << 32));
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void write_spans(const std::string& path, const Options& opt,
                 const std::string& env, std::uint64_t dig,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"env\":{%s},"
               "\"virt_digest\":\"%016llx\",\"spans\":[",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               env.c_str(), static_cast<unsigned long long>(dig));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"class\":"
                 "\"%s\",\"client\":%d",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 json_escape(s.name).c_str(), s.cls.c_str(), s.client);
    if (s.virt_start_us >= 0) {
      std::fprintf(f, ",\"virt_start_us\":%lld,\"virt_end_us\":%lld",
                   static_cast<long long>(s.virt_start_us),
                   static_cast<long long>(s.virt_end_us));
    } else {
      std::fprintf(f, ",\"wall_start_s\":%.9f,\"wall_end_s\":%.9f",
                   s.wall_start_s, s.wall_end_s);
    }
    std::fputc('}', f);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// One reported metric.  The table shows every one; the result line holds
/// the gated ones (BENCHMARK.json end_to_end) with --trace 0 and the others
/// (per_layer) with --trace 1.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  ///< virtual, wall, host or count
  bool gated;
  bool applies = true;    ///< false: the workload does not run it (n/a, 0)
  std::string note = {};  ///< table only
};

/// Wall-clock samples are reported as their minimum: noise from other work
/// on the host only ever adds time, so the best of many samples is what
/// the code costs, and it moves far less with the host's load than a
/// median does.
double best(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

void print_table(const std::vector<Metric>& metrics) {
  std::printf("%-26s %16s  %-6s %-8s\n", "metric", "value", "unit", "clock");
  for (const Metric& m : metrics) {
    if (m.applies) {
      std::printf("%-26s %16.6f  %-6s %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.clock.c_str(), m.note.c_str());
    } else {
      std::printf("%-26s %16s  %-6s %-8s %s\n", m.name.c_str(), "n/a",
                  m.unit.c_str(), m.clock.c_str(), m.note.c_str());
    }
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, bool gated) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (m.gated != gated) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.applies ? m.value : 0.0, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Unit of a per-layer count from its name.
std::string layer_unit(const std::string& name) {
  static const std::map<std::string, std::string> kUnits = {
      {"sim.remote_bytes", "bytes"}, {"disk.util_mean", "1"},
      {"disk.util_max", "1"},        {"efs.cache_hit_rate", "1"},
      {"sim.stale_wake_frac", "1"},  {"tools.sort.local_s", "s"},
      {"tools.sort.merge_s", "s"}};
  if (auto u = kUnits.find(name); u != kUnits.end()) return u->second;
  if (name.size() > 3 && name.substr(name.size() - 3) == "_us") return "us";
  return "count";
}

/// Share of the run's elapsed time spent on set-up-only reps.
constexpr double kSetupShare = 0.25;

int run(const Options& opt) {
  using WorkloadFn = void (*)(Harness&);
  const std::map<std::string, WorkloadFn> workloads = {
      {"sort_p64", sort_p64},
      {"client_mix", client_mix},
      {"parity_rebuild", parity_rebuild}};
  auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  // Pin the environment: record every knob, refuse to measure if any is set.
  std::string env_json, env_text;
  bool pinned = true;
  for (const char* name : kPinnedEnv) {
    const char* value = std::getenv(name);
    if (value != nullptr) pinned = false;
    env_json += std::string(env_json.empty() ? "" : ",") + "\"" + name +
                "\":" + (value ? "\"" + json_escape(value) + "\"" : "null");
    env_text += std::string(" ") + name + "=" + (value ? value : "<unset>");
  }
  std::printf("env:%s\n", env_text.c_str());
  if (!pinned) {
    std::fprintf(stderr,
                 "refusing a measured run: unset the BRIDGE_* knobs above\n");
    return 2;
  }

  // Full reps until --seconds of host time have passed (at least three; four
  // when traced, which alternates untraced and traced reps so the tracing
  // overhead is measured under the same load).  After each full rep come
  // set-up-only reps until they have used kSetupShare of the elapsed time,
  // so set-up is sampled many times, spread over the whole run.  Only the
  // first rep and the last traced one keep their latency samples, so memory
  // does not grow with the number of reps.
  std::optional<Rep> first, traced;
  std::vector<Span> kept_spans;
  std::vector<double> setup, build, load, wall, traced_wall, capture;
  std::vector<std::string> errors, check_failures;
  std::uint64_t attempted = 0, failed = 0;
  std::error_code mkdir_error;
  std::filesystem::create_directories(kOutDir, mkdir_error);
  auto tally = [&](const Rep& rep, const Harness& h) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const auto& e : rep.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    for (const auto& f : h.check_failures()) check_failures.push_back(f);
    setup.push_back(rep.build_s + rep.load_s);
    build.push_back(rep.build_s);
    load.push_back(rep.load_s);
  };
  const std::size_t min_reps = opt.trace ? 4 : 3;
  std::size_t reps = 0;
  double setup_only_s = 0;
  auto run_start = WallClock::now();
  while (reps < min_reps || wall_since(run_start) < opt.seconds) {
    bool is_traced = opt.trace && reps % 2 == 1;
    {
      Rep rep;
      SpanLog spans(is_traced);
      Harness h(opt, is_traced, /*setup_only=*/false, rep, spans);
      it->second(h);
      h.capture(std::string(kOutDir) + "/" + opt.workload + ".obs.json");
      rep.digest = digest(rep);
      tally(rep, h);
      (is_traced ? traced_wall : wall).push_back(rep.wall_s);
      // Same seed => same virtual results, traced or not (obs costs no
      // virtual time).  A difference is a determinism bug and fails the run.
      if (first && rep.digest != first->digest) {
        check_failures.push_back("virtual digest differs between reps");
      }
      if (is_traced) {
        capture.push_back(rep.capture_s);
        rep.spans += spans.spans().size();
        kept_spans = spans.spans();
        traced = std::move(rep);
      } else if (!first) {
        first = std::move(rep);
      }
    }  // this rep's machine is torn down before any other is built
    ++reps;

    while (setup_only_s < kSetupShare * wall_since(run_start)) {
      auto t0 = WallClock::now();
      {
        Rep setup_rep;
        SpanLog no_spans(false);
        Harness sh(opt, false, /*setup_only=*/true, setup_rep, no_spans);
        it->second(sh);
        tally(setup_rep, sh);
      }  // the machine is torn down here, inside the set-up-only share
      setup_only_s += wall_since(t0);
    }
    if (reps >= 200) break;
  }

  // ---- metrics, built once for the table and the result line ----
  // Untraced and traced reps have one digest, so `first` speaks for every
  // virtual number of the run, and `shown` adds the traced-only layers.
  const Rep& shown = traced ? *traced : *first;
  std::vector<Metric> metrics;
  auto samples_note = [](std::size_t n) {
    return "(" + std::to_string(n) + " samples)";
  };
  metrics.push_back({"virt_s", static_cast<double>(first->virt_us) / 1e6, "s",
                     "virtual", true});
  for (int c = 0; c < kClassCount; ++c) {
    const auto& samples = first->latency_us[c];
    bool run_here = samples.size() >= kMinClassSamples;
    std::string base = std::string("virt_") + kClassName[c];
    std::string note = samples_note(samples.size()) +
                       (run_here ? "" : ": class not run");
    metrics.push_back({base + "_p50_ms", percentile_us(samples, 0.5) / 1e3,
                       "ms", "virtual", false, run_here, note});
    metrics.push_back({base + "_p99_ms", percentile_us(samples, 0.99) / 1e3,
                       "ms", "virtual", false, run_here, note});
  }
  metrics.push_back({"virt_rebuild_s",
                     static_cast<double>(first->rebuild_us) / 1e6, "s",
                     "virtual", false, first->rebuild_us >= 0});
  double failed_frac = attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 1.0;
  metrics.push_back({"failed_op_frac", failed_frac, "1", "count", false, true,
                     "(" + std::to_string(failed) + " of " +
                         std::to_string(attempted) + ")"});
  metrics.push_back({"wall_s", best(wall), "s", "wall", false, true,
                     "(best of " + std::to_string(wall.size()) +
                         " untraced reps)"});
  metrics.push_back({"setup_s", best(setup), "s", "wall", true, true,
                     "(best of " + std::to_string(setup.size()) +
                         " set-ups; median " + std::to_string(median(setup)) +
                         ")"});
  metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", "host", true});
  if (opt.trace) {
    for (const auto& [name, value] : shown.layer) {
      bool is_time = name.ends_with("_s") || name.ends_with("_us");
      metrics.push_back({name, value, layer_unit(name),
                         is_time ? "virtual" : "count", false});
    }
    for (int c = 0; c < kClassCount; ++c) {
      metrics.push_back({std::string("client.") + kClassName[c] + "_samples",
                         static_cast<double>(first->latency_us[c].size()),
                         "count", "count", false});
    }
    double events = shown.layer.at("sim.events");
    metrics.push_back({"sim.wall_ns_per_event",
                       events > 0 ? best(wall) * 1e9 / events : 0, "ns",
                       "wall", false});
    metrics.push_back({"obs.trace_overhead",
                       best(wall) > 0 ? best(traced_wall) / best(wall) : 0,
                       "1", "wall", false});
    metrics.push_back({"obs.trace_spans", static_cast<double>(shown.spans),
                       "count", "count", false});
    metrics.push_back({"obs.capture_wall_s", best(capture), "s", "wall",
                       false});
    metrics.push_back({"bench.setup.build_s", best(build), "s", "wall",
                       false});
    metrics.push_back({"bench.setup.load_s", best(load), "s", "wall", false});
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
  }

  // ---- human-readable report ----
  std::printf("workload %s  seed %llu  reps %zu (%zu traced) + %zu set-up "
              "only  backend %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              reps, traced_wall.size(), setup.size() - reps,
              first->backend.c_str());
  std::printf("virt_digest %016llx\n",
              static_cast<unsigned long long>(first->digest));
  print_table(metrics);
  std::printf("per-rep wall_s:");
  for (double w : wall) std::printf(" %.3f", w);
  std::printf("\nper-set-up setup_s:");
  for (double s : setup) std::printf(" %.3f", s);
  std::printf("\n");
  if (opt.trace && shown.identity_checked) {
    const auto& L = shown.layer;
    std::printf("stage identity: exclusive %.0f us - fan-out overlap %.0f us "
                "+ client remainder %.0f us = %.0f us (client clock); ledger "
                "client_wait %.0f us\n",
                exclusive_stage_us(L), fanout_overlap_us(L),
                L.at("client.remainder_us"),
                exclusive_stage_us(L) - fanout_overlap_us(L) +
                    L.at("client.remainder_us"),
                L.at("client.client_wait_us"));
  }
  for (const auto& e : errors) std::printf("FAILED: %s\n", e.c_str());
  for (const auto& e : check_failures) std::printf("CHECK FAILED: %s\n", e.c_str());
  if (opt.trace) {
    write_spans(std::string(kOutDir) + "/" + opt.workload + ".spans.json", opt,
                env_json, first->digest, kept_spans);
  }

  bool correct = failed == 0 && check_failures.empty();
  print_result(correct, attempted, failed, metrics, /*gated=*/!opt.trace);
  return correct ? 0 : 1;
}

}  // namespace bench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB.  Left dynamic, it
  // rises after the first large free, and whether a new machine's disk
  // images then come from recycled heap or from fresh pages depends on
  // what the previous rep left behind: set-up time jumped between about
  // 20 and 43 ms on parity_rebuild.  Pinned, every disk image is mapped
  // fresh, as in a new process, and every set-up pays the same cost.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  bench::Options opt;
  if (!bench::parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bridge_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  return bench::run(opt);
}
