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
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/buffered_stream.hpp"
#include "src/tools/copy.hpp"

namespace bridge::bench {
namespace {

/// N clients each sequentially read their own file through the server.
double naive_aggregate_rec_per_sec(std::uint32_t p, std::uint32_t clients,
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
  std::vector<sim::SimTime> started(clients), done(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_client("reader" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      started[c] = ctx.now();
                      auto open = client.open("f" + std::to_string(c));
                      if (!open.is_ok()) return;
                      for (std::uint64_t i = 0; i < records_each; ++i) {
                        if (!client.seq_read(open.value().session).is_ok()) {
                          return;
                        }
                      }
                      done[c] = ctx.now();
                    });
  }
  inst.run();
  sim::SimTime start_min = started[0], end_max{0};
  for (auto t : started) start_min = std::min(start_min, t);
  for (auto t : done) end_max = std::max(end_max, t);
  double seconds = (end_max - start_min).sec();
  return seconds <= 0 ? 0
                      : static_cast<double>(clients) *
                            static_cast<double>(records_each) / seconds;
}

/// The same naive workload through the pipelined path: each reader pulls its
/// file through a BufferedFileStream, so one round trip moves a window of
/// blocks and the server fans the window out to every LFS concurrently.
double pipelined_aggregate_rec_per_sec(std::uint32_t p, std::uint32_t clients,
                                       std::uint64_t records_each) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(2 * clients * records_each / p + 64));
  cfg.efs.cache.capacity_blocks = 512;
  core::BridgeInstance inst(cfg);
  for (std::uint32_t c = 0; c < clients; ++c) {
    fill_random_file(inst, "f" + std::to_string(c), records_each, c);
  }
  std::vector<sim::SimTime> started(clients), done(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_client("piped" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      started[c] = ctx.now();
                      auto open = client.open("f" + std::to_string(c));
                      if (!open.is_ok()) return;
                      core::BufferedFileStream stream(client,
                                                      open.value().session);
                      for (std::uint64_t i = 0; i < records_each; ++i) {
                        auto r = stream.read();
                        if (!r.is_ok() || r.value().eof) return;
                      }
                      done[c] = ctx.now();
                    });
  }
  inst.run();
  sim::SimTime start_min = started[0], end_max{0};
  for (auto t : started) start_min = std::min(start_min, t);
  for (auto t : done) end_max = std::max(end_max, t);
  double seconds = (end_max - start_min).sec();
  return seconds <= 0 ? 0
                      : static_cast<double>(clients) *
                            static_cast<double>(records_each) / seconds;
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
  std::vector<sim::SimTime> started(clients), done(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_client("tool" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      started[c] = ctx.now();
                      tools::CopyOptions options;
                      options.filter_factory = [] {
                        return std::unique_ptr<tools::BlockFilter>(
                            std::make_unique<tools::ChecksumFilter>());
                      };
                      auto result = tools::run_scan_tool(
                          ctx, client, "f" + std::to_string(c), options);
                      if (result.is_ok()) done[c] = ctx.now();
                    });
  }
  inst.run();
  sim::SimTime start_min = started[0], end_max{0};
  for (auto t : started) start_min = std::min(start_min, t);
  for (auto t : done) end_max = std::max(end_max, t);
  double seconds = (end_max - start_min).sec();
  return seconds <= 0 ? 0
                      : static_cast<double>(clients) *
                            static_cast<double>(records_each) / seconds;
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
  std::vector<sim::SimTime> started(clients), done(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "reader" + std::to_string(c),
        [&, c](sim::Context& ctx, core::RoutedBridgeClient& client) {
          started[c] = ctx.now();
          auto open = client.open("f" + std::to_string(c));
          if (!open.is_ok()) return;
          for (std::uint64_t i = 0; i < records_each; ++i) {
            if (!client.seq_read(open.value().session).is_ok()) return;
          }
          done[c] = ctx.now();
        });
  }
  inst.run();
  sim::SimTime start_min = started[0], end_max{0};
  for (auto t : started) start_min = std::min(start_min, t);
  for (auto t : done) end_max = std::max(end_max, t);
  double seconds = (end_max - start_min).sec();
  return seconds <= 0 ? 0
                      : static_cast<double>(clients) *
                            static_cast<double>(records_each) / seconds;
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
  std::vector<sim::SimTime> started(clients), done(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "writer" + std::to_string(c),
        [&, c](sim::Context& ctx, core::RoutedBridgeClient& client) {
          started[c] = ctx.now();
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
          done[c] = ctx.now();
        });
  }
  inst.run();
  sim::SimTime start_min = started[0], end_max{0};
  for (auto t : started) start_min = std::min(start_min, t);
  for (auto t : done) end_max = std::max(end_max, t);
  double seconds = (end_max - start_min).sec();
  return seconds <= 0 ? 0
                      : static_cast<double>(clients) *
                            static_cast<double>(files_each) / seconds;
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
  std::vector<sim::SimTime> started(clients), done(clients);
  std::vector<std::uint64_t> ops(clients, 0);
  for (std::uint32_t c = 0; c < clients; ++c) {
    inst.run_routed_client(
        "mixed" + std::to_string(c),
        [&, c](sim::Context& ctx, core::RoutedBridgeClient& client) {
          started[c] = ctx.now();
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
          done[c] = ctx.now();
        });
  }
  inst.run();
  sim::SimTime start_min = started[0], end_max{0};
  for (auto t : started) start_min = std::min(start_min, t);
  for (auto t : done) end_max = std::max(end_max, t);
  double seconds = (end_max - start_min).sec();
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  return seconds <= 0 ? 0 : static_cast<double>(total) / seconds;
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
  for (std::uint32_t clients : {1u, 2u, 4u, 8u}) {
    double naive = naive_aggregate_rec_per_sec(p, clients, records);
    double piped = pipelined_aggregate_rec_per_sec(p, clients, records);
    double tool = tool_aggregate_rec_per_sec(p, clients, records);
    std::printf("%8u | %12.0f rec/s | %12.0f rec/s | %12.0f rec/s | %7.1fx\n",
                clients, naive, piped, tool, piped / naive);
    json.emit("ablation_server_bottleneck",
              {{"p", p},
               {"clients", clients},
               {"records", static_cast<double>(records)},
               {"naive_rec_per_sec", naive},
               {"pipelined_rec_per_sec", piped},
               {"tool_rec_per_sec", tool}});
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
      "server is touched only at open time.  The pipelined rows show the\n"
      "vectored ops lifting the single-client ceiling (a window of blocks\n"
      "per round trip keeps all p disks busy).  Partitioning the directory\n"
      "across k servers splits the server CPU k ways and lifts the ceiling\n"
      "again: both section 4.1 answers, demonstrated.\n");
  return 0;
}
