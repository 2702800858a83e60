// Ablation A8: the centralized Bridge Server as a bottleneck (§4.1).
//
// "In our implementation the Bridge Server is a single centralized process
// ... If requests to the server are frequent enough to cause a bottleneck,
// the same functionality could be provided by a distributed collection of
// processes.  Our work so far has focused mainly upon the tool-based use of
// Bridge, in which case access to the central server occurs only when files
// are opened."
//
// We drive N concurrent naive readers through the server and watch aggregate
// throughput bend, then run the same aggregate workload tool-style (direct
// LFS access) where the server is only touched at startup.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/buffered_stream.hpp"
#include "src/tools/copy.hpp"

namespace bridge::bench {
namespace {

/// When each client of a run started and finished.
struct Completions {
  explicit Completions(std::uint32_t clients)
      : started(clients), done(clients) {}

  /// First start to last finish: the aggregate rates divide by this.
  [[nodiscard]] double makespan_s() const {
    return (last_done() - first_start()).sec();
  }
  /// Mean over clients of first start to the client's own finish.
  [[nodiscard]] double mean_finish_s() const {
    sim::SimTime t0 = first_start();
    double sum = 0;
    for (auto t : done) sum += (t - t0).sec();
    return done.empty() ? 0 : sum / static_cast<double>(done.size());
  }
  /// `volume` units over the makespan.
  [[nodiscard]] double rate(double volume) const {
    double seconds = makespan_s();
    return seconds <= 0 ? 0 : volume / seconds;
  }

  std::vector<sim::SimTime> started, done;

 private:
  [[nodiscard]] sim::SimTime first_start() const {
    return *std::min_element(started.begin(), started.end());
  }
  [[nodiscard]] sim::SimTime last_done() const {
    return *std::max_element(done.begin(), done.end());
  }
};

/// A naive or pipelined read run: the aggregate rate, and the mean reader's
/// finish.  The rate rewards the last reader's finish only; the mean shows
/// what the other readers gain when the server runs short charges first.
struct ReadRun {
  double rec_per_sec;
  double mean_finish_s;
};

/// N clients each sequentially read their own file through the server.
ReadRun naive_aggregate(std::uint32_t p, std::uint32_t clients,
                        std::uint64_t records_each) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(2 * clients * records_each / p + 64));
  // A large cache isolates the server effect from multi-stream cache thrash.
  cfg.efs.cache.capacity_blocks = 512;
  core::BridgeInstance inst(cfg);
  for (std::uint32_t c = 0; c < clients; ++c) {
    fill_random_file(inst, "f" + std::to_string(c), records_each, c);
  }
  // All readers spawn at the same (post-fill) virtual instant; throughput is
  // measured from that instant to the last reader's completion.
  Completions runs(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_client("reader" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      runs.started[c] = ctx.now();
                      auto open = client.open("f" + std::to_string(c));
                      if (!open.is_ok()) return;
                      for (std::uint64_t i = 0; i < records_each; ++i) {
                        if (!client.seq_read(open.value().session).is_ok()) {
                          return;
                        }
                      }
                      runs.done[c] = ctx.now();
                    });
  }
  inst.run();
  return {runs.rate(static_cast<double>(clients) *
                   static_cast<double>(records_each)),
          runs.mean_finish_s()};
}

/// The same naive workload through the pipelined path: each reader pulls its
/// file through a BufferedFileStream, so one round trip moves a window of
/// blocks and the server fans the window out to every LFS concurrently.
ReadRun pipelined_aggregate(std::uint32_t p, std::uint32_t clients,
                            std::uint64_t records_each) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(2 * clients * records_each / p + 64));
  cfg.efs.cache.capacity_blocks = 512;
  core::BridgeInstance inst(cfg);
  for (std::uint32_t c = 0; c < clients; ++c) {
    fill_random_file(inst, "f" + std::to_string(c), records_each, c);
  }
  Completions runs(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_client("piped" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      runs.started[c] = ctx.now();
                      auto open = client.open("f" + std::to_string(c));
                      if (!open.is_ok()) return;
                      core::BufferedFileStream stream(client,
                                                      open.value().session);
                      for (std::uint64_t i = 0; i < records_each; ++i) {
                        auto r = stream.read();
                        if (!r.is_ok() || r.value().eof) return;
                      }
                      runs.done[c] = ctx.now();
                    });
  }
  inst.run();
  return {runs.rate(static_cast<double>(clients) *
                   static_cast<double>(records_each)),
          runs.mean_finish_s()};
}

/// The same total volume scanned tool-style: per-file scan tools whose inner
/// loops never touch the server.
double tool_aggregate_rec_per_sec(std::uint32_t p, std::uint32_t clients,
                                  std::uint64_t records_each) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(2 * clients * records_each / p + 64));
  cfg.efs.cache.capacity_blocks = 512;
  core::BridgeInstance inst(cfg);
  for (std::uint32_t c = 0; c < clients; ++c) {
    fill_random_file(inst, "f" + std::to_string(c), records_each, c);
  }
  Completions runs(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_client("tool" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      runs.started[c] = ctx.now();
                      tools::CopyOptions options;
                      options.filter_factory = [] {
                        return std::unique_ptr<tools::BlockFilter>(
                            std::make_unique<tools::ChecksumFilter>());
                      };
                      auto result = tools::run_scan_tool(
                          ctx, client, "f" + std::to_string(c), options);
                      if (result.is_ok()) runs.done[c] = ctx.now();
                    });
  }
  inst.run();
  return runs.rate(static_cast<double>(clients) *
                   static_cast<double>(records_each));
}

/// The same naive aggregate with the directory distributed across k Bridge
/// Servers (RoutedBridgeClient): §4.1's "distributed collection".
double routed_aggregate_rec_per_sec(std::uint32_t p, std::uint32_t servers,
                                    std::uint32_t clients,
                                    std::uint64_t records_each) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(2 * clients * records_each / p + 64));
  cfg.efs.cache.capacity_blocks = 512;
  cfg.num_bridge_servers = servers;
  core::BridgeInstance inst(cfg);
  // Fill through the router so every file lands on its home server.
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "fill" + std::to_string(c),
        [&, c](sim::Context&, core::RoutedBridgeClient& client) {
          std::string name = "f" + std::to_string(c);
          if (!client.create(name).is_ok()) return;
          auto open = client.open(name);
          if (!open.is_ok()) return;
          for (std::uint64_t i = 0; i < records_each; ++i) {
            if (!client.seq_write(open.value().session, keyed_record(i))
                     .is_ok()) {
              return;
            }
          }
        });
    inst.run();
  }
  Completions runs(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "reader" + std::to_string(c),
        [&, c](sim::Context& ctx, core::RoutedBridgeClient& client) {
          runs.started[c] = ctx.now();
          auto open = client.open("f" + std::to_string(c));
          if (!open.is_ok()) return;
          for (std::uint64_t i = 0; i < records_each; ++i) {
            if (!client.seq_read(open.value().session).is_ok()) return;
          }
          runs.done[c] = ctx.now();
        });
  }
  inst.run();
  return runs.rate(static_cast<double>(clients) *
                   static_cast<double>(records_each));
}

/// Write-heavy namespace workload through k routed servers: each client
/// creates its own files and streams a few records into each.  create/open
/// carry the big server CPU charges (136 ms / 77 ms), so with one server the
/// aggregate serializes behind its CPU and with k servers it scales nearly
/// k-fold — the name hash spreads the files across homes.
double routed_write_heavy_files_per_sec(std::uint32_t p, std::uint32_t servers,
                                        std::uint32_t clients,
                                        std::uint32_t files_each,
                                        std::uint64_t records_each) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(
             2 * clients * files_each * records_each / p + 64));
  cfg.efs.cache.capacity_blocks = 512;
  cfg.num_bridge_servers = servers;
  core::BridgeInstance inst(cfg);
  Completions runs(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "writer" + std::to_string(c),
        [&, c](sim::Context& ctx, core::RoutedBridgeClient& client) {
          runs.started[c] = ctx.now();
          for (std::uint32_t f = 0; f < files_each; ++f) {
            std::string name =
                "w" + std::to_string(c) + "_" + std::to_string(f);
            if (!client.create(name).is_ok()) return;
            auto open = client.open(name);
            if (!open.is_ok()) return;
            for (std::uint64_t i = 0; i < records_each; ++i) {
              if (!client.seq_write(open.value().session, keyed_record(i))
                       .is_ok()) {
                return;
              }
            }
          }
          runs.done[c] = ctx.now();
        });
  }
  inst.run();
  return runs.rate(static_cast<double>(clients) *
                   static_cast<double>(files_each));
}

/// Mixed namespace workload: create, write, rename (local and cross-server),
/// random read, periodic global listing, remove — the distributed-directory
/// write path end to end.  Returns aggregate namespace+data ops per second.
double routed_mixed_ops_per_sec(std::uint32_t p, std::uint32_t servers,
                                std::uint32_t clients,
                                std::uint32_t iterations) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(4 * clients * iterations / p + 64));
  cfg.efs.cache.capacity_blocks = 512;
  cfg.num_bridge_servers = servers;
  core::BridgeInstance inst(cfg);
  Completions runs(clients);
  std::vector<std::uint64_t> ops(clients, 0);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "mixed" + std::to_string(c),
        [&, c](sim::Context& ctx, core::RoutedBridgeClient& client) {
          runs.started[c] = ctx.now();
          for (std::uint32_t i = 0; i < iterations; ++i) {
            std::string tmp =
                "tmp" + std::to_string(c) + "_" + std::to_string(i);
            std::string fin =
                "fin" + std::to_string(c) + "_" + std::to_string(i);
            if (!client.create(tmp).is_ok()) return;
            auto open = client.open(tmp);
            if (!open.is_ok()) return;
            for (std::uint64_t b = 0; b < 2; ++b) {
              if (!client.seq_write(open.value().session, keyed_record(b))
                       .is_ok()) {
                return;
              }
            }
            auto renamed = client.rename(tmp, fin);
            if (!renamed.is_ok()) return;
            if (!client.random_read(renamed.value(), 0).is_ok()) return;
            ops[c] += 6;  // create + open + 2 writes + rename + read
            if (i % 4 == 3) {
              if (!client.list("fin" + std::to_string(c)).is_ok()) return;
              ++ops[c];
            }
            if (i % 2 == 1) {
              if (!client.remove(fin).is_ok()) return;
              ++ops[c];
            }
          }
          runs.done[c] = ctx.now();
        });
  }
  inst.run();
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  return runs.rate(static_cast<double>(total));
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 128);
  std::uint32_t p = static_cast<std::uint32_t>(flag_value(argc, argv, "p", 8));
  JsonReporter json(argc, argv);

  print_header("Ablation A8: central Bridge Server saturation (section 4.1)");
  std::printf("p = %u LFS nodes, %llu records per client\n\n", p,
              static_cast<unsigned long long>(records));
  std::printf("%8s | %18s | %18s | %18s | %s\n", "clients",
              "naive (via server)", "pipelined (many)", "tool (direct LFS)",
              "pipe/naive");
  std::printf("---------+--------------------+--------------------+"
              "--------------------+----------\n");
  std::vector<std::pair<double, double>> finishes;
  for (std::uint32_t clients : {1u, 2u, 4u, 8u}) {
    ReadRun naive = naive_aggregate(p, clients, records);
    ReadRun piped = pipelined_aggregate(p, clients, records);
    double tool = tool_aggregate_rec_per_sec(p, clients, records);
    std::printf("%8u | %12.0f rec/s | %12.0f rec/s | %12.0f rec/s | %7.1fx\n",
                clients, naive.rec_per_sec, piped.rec_per_sec, tool,
                piped.rec_per_sec / naive.rec_per_sec);
    finishes.push_back({naive.mean_finish_s, piped.mean_finish_s});
    json.emit("ablation_server_bottleneck",
              {{"p", p},
               {"clients", clients},
               {"records", static_cast<double>(records)},
               {"naive_rec_per_sec", naive.rec_per_sec},
               {"naive_mean_finish_s", naive.mean_finish_s},
               {"pipelined_rec_per_sec", piped.rec_per_sec},
               {"pipelined_mean_finish_s", piped.mean_finish_s},
               {"tool_rec_per_sec", tool}});
  }
  std::printf("\nmean reader finish (s from the common start): the rates\n"
              "above divide by the LAST reader's finish\n");
  std::printf("%8s | %18s | %18s\n", "clients", "naive", "pipelined");
  std::printf("---------+--------------------+-------------------\n");
  for (std::size_t i = 0; i < finishes.size(); ++i) {
    std::printf("%8u | %16.2f s | %16.2f s\n", 1u << i, finishes[i].first,
                finishes[i].second);
  }
  std::printf("\ndistributing the directory (8 naive clients, k servers,\n"
              "RoutedBridgeClient):\n");
  std::printf("%8s | %18s\n", "servers", "naive aggregate");
  std::printf("---------+-------------------\n");
  for (std::uint32_t servers : {1u, 2u, 4u}) {
    double rate = routed_aggregate_rec_per_sec(p, servers, 8, records);
    std::printf("%8u | %12.0f rec/s\n", servers, rate);
    json.emit("ablation_server_bottleneck_routed",
              {{"p", p},
               {"servers", servers},
               {"clients", 8},
               {"records", static_cast<double>(records)},
               {"naive_rec_per_sec", rate}});
  }
  std::printf("\nwrite-heavy and mixed namespace workloads (8 clients,\n"
              "k servers, RoutedBridgeClient):\n");
  std::printf("%8s | %18s | %18s\n", "servers", "write-heavy",
              "mixed namespace");
  std::printf("---------+--------------------+-------------------\n");
  for (std::uint32_t servers : {1u, 2u, 4u}) {
    double write_heavy = routed_write_heavy_files_per_sec(p, servers, 8, 6, 4);
    double mixed = routed_mixed_ops_per_sec(p, servers, 8, 6);
    std::printf("%8u | %11.1f file/s | %12.1f op/s\n", servers, write_heavy,
                mixed);
    json.emit("ablation_server_bottleneck_routed_write",
              {{"p", p},
               {"servers", servers},
               {"clients", 8},
               {"files_per_sec", write_heavy}});
    json.emit("ablation_server_bottleneck_routed_mixed",
              {{"p", p},
               {"servers", servers},
               {"clients", 8},
               {"ops_per_sec", mixed}});
  }
  std::printf(
      "\nshape checks: naive aggregate throughput bends as clients are\n"
      "added - every block squeezes through one server process and pays\n"
      "its CPU serially, though the server overlaps different requests'\n"
      "LFS round trips - while the tool path stays ahead because the\n"
      "server is touched only at open time.  The server runs the shortest\n"
      "charge first, so a reader's reads overtake the other readers' 77 ms\n"
      "Opens: readers finish earlier on average (mean finish) while the\n"
      "last one, reading alone at the end, sets the rate.  The pipelined\n"
      "rows show the\n"
      "vectored ops lifting the single-client ceiling (a window of blocks\n"
      "per round trip keeps all p disks busy).  Partitioning the directory\n"
      "across k servers splits the server CPU k ways and lifts the ceiling\n"
      "again: both section 4.1 answers, demonstrated.\n");
  return 0;
}
