// Ablation A10: recovery engine — rebuilding a failed LFS.
//
// §6 stops at "replication helps, but only at very high cost"; it never asks
// how long repair takes.  This bench measures the recovery engine added with
// the parity/mirror extensions: after a single-LFS failure, every block the
// failed LFS held is re-derived from the survivors and written to the
// repaired disk.  Two modes of the same engine are compared:
//   - per-block: one RPC per block (an n=1 kReadMany or kWriteMany), strictly
//                sequential (the pre-pipeline baseline)
//   - vectored:  kReadMany/kWriteMany windows with every surviving LFS's
//                stream in flight concurrently
// Rebuild time should drop by roughly the stripe width, since the XOR
// sources that the per-block path visits in turn all answer at once.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/replication.hpp"

namespace bridge::bench {
namespace {

using core::BridgeClient;
using core::BridgeInstance;

struct Numbers {
  std::uint64_t blocks = 0;         ///< data blocks the file holds
  std::uint64_t blocks_rebuilt = 0; ///< constituent blocks re-created
  double rebuild_ms = 0;            ///< wall-clock (virtual) rebuild time
  bool verified = false;            ///< every block read back correctly
};

/// Build a parity file of `records` blocks on a fresh p-LFS instance, fail
/// LFS `victim`, bring the disk back, and run the recovery engine.
Numbers run(std::uint32_t p, std::uint64_t records, bool vectored,
            std::uint32_t window) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(4 * records / p + 128));
  BridgeInstance inst(cfg);
  Numbers out;

  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    if (!parity.is_ok()) return;
    std::uint32_t width = parity.value().data_width();
    std::uint64_t written = 0;
    while (written + width <= records) {
      std::vector<std::vector<std::byte>> stripe;
      for (std::uint32_t i = 0; i < width; ++i) {
        stripe.push_back(keyed_record(written + i));
      }
      if (!parity.value().append_stripe(stripe).is_ok()) return;
      written += width;
    }
    out.blocks = written;
  });
  inst.run();

  // The failure: LFS 1 dies, then comes back blank-for-our-purposes (the
  // rebuild discards whatever survived) and the engine restores it.
  const std::uint32_t victim = 1;
  inst.lfs(victim).disk().fail();
  inst.lfs(victim).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    if (!parity.is_ok()) return;
    core::RebuildOptions options;
    options.vectored = vectored;
    options.window_blocks = window;
    auto t0 = ctx.now();
    auto report = parity.value().rebuild_lfs(victim, options);
    if (!report.is_ok()) {
      std::fprintf(stderr, "rebuild failed: %s\n",
                   report.status().to_string().c_str());
      return;
    }
    out.rebuild_ms = (ctx.now() - t0).ms();
    out.blocks_rebuilt = report.value().blocks_rebuilt;
  });
  inst.run();

  // Read everything back through the normal (non-degraded) path.
  inst.run_client("verifier", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    if (!parity.is_ok()) return;
    for (std::uint64_t i = 0; i < out.blocks; ++i) {
      bool reconstructed = false;
      auto r = parity.value().read(i, &reconstructed);
      if (!r.is_ok() || reconstructed || r.value() != keyed_record(i)) return;
    }
    out.verified = true;
  });
  inst.run();
  return out;
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 360);
  std::uint32_t window =
      static_cast<std::uint32_t>(flag_value(argc, argv, "window", 32));
  JsonReporter json(argc, argv);

  print_header("Ablation A10: recovery engine (rebuild a failed LFS)");
  std::printf("%llu data blocks per run; LFS 1 fails, is repaired, and is\n"
              "rebuilt from the surviving stripes (window = %u blocks)\n\n",
              static_cast<unsigned long long>(records), window);
  std::printf("   p   blocks  rebuilt   per-block ms   vectored ms   speedup\n");
  std::printf("  --   ------  -------   ------------   -----------   -------\n");
  for (std::uint32_t p : {4u, 8u, 16u}) {
    auto per_block = run(p, records, /*vectored=*/false, window);
    auto vectored = run(p, records, /*vectored=*/true, window);
    double speedup = vectored.rebuild_ms > 0
                         ? per_block.rebuild_ms / vectored.rebuild_ms
                         : 0.0;
    std::printf("  %2u   %6llu  %7llu   %12.1f   %11.1f   %6.2fx%s\n", p,
                static_cast<unsigned long long>(per_block.blocks),
                static_cast<unsigned long long>(per_block.blocks_rebuilt),
                per_block.rebuild_ms, vectored.rebuild_ms, speedup,
                per_block.verified && vectored.verified ? ""
                                                        : "  [VERIFY FAILED]");
    json.emit("ablation_recovery",
              {{"p", p},
               {"blocks", static_cast<double>(per_block.blocks)},
               {"blocks_rebuilt", static_cast<double>(per_block.blocks_rebuilt)},
               {"per_block_ms", per_block.rebuild_ms},
               {"vectored_ms", vectored.rebuild_ms},
               {"speedup", speedup},
               {"verified",
                per_block.verified && vectored.verified ? 1.0 : 0.0}});
  }
  std::printf(
      "\nshape checks: vectored rebuild should win by roughly the surviving\n"
      "stripe width (all XOR sources stream concurrently), growing with p;\n"
      "both modes must leave a disk image every block reads back from.\n");
  return 0;
}
