#include "src/core/replication.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <span>

#include "src/core/bridge_block.hpp"
#include "src/core/interleave.hpp"
#include "src/util/logging.hpp"

namespace bridge::core {

namespace {

/// Open `name`, creating it (width = all LFSs) if absent.
util::Result<FileMeta> open_or_create(BridgeApi& client,
                                      const std::string& name) {
  auto open = client.open(name);
  if (open.is_ok()) return open.value().meta;
  if (open.status().code() != util::ErrorCode::kNotFound) return open.status();
  if (auto created = client.create(name); !created.is_ok()) {
    return created.status();
  }
  auto reopened = client.open(name);
  if (!reopened.is_ok()) return reopened.status();
  return reopened.value().meta;
}

/// Local blocks held at round-robin offset `o` of a `width`-wide file with
/// `size` global blocks.
constexpr std::uint32_t offset_count(std::uint64_t size, std::uint32_t width,
                                     std::uint32_t o) {
  return static_cast<std::uint32_t>(size / width) +
         (o < size % width ? 1u : 0u);
}

using Payloads = std::vector<std::vector<std::byte>>;

/// A run-of-one read of file `id`, checked to be global block `global_no`.
util::Result<UnwrappedBlock> unwrap_one(util::Result<Payloads> read,
                                        efs::FileId id,
                                        std::uint64_t global_no) {
  if (!read.is_ok()) return read.status();
  auto payload = efs::ReadManyResponse{std::move(read).value()}.take_one();
  if (!payload.is_ok()) return payload.status();
  return unwrap_block(payload.value(), id, global_no);
}

/// Read local block `local_block` of `meta`'s constituent on `lfs`, which
/// must hold global block `global_no`.
util::Result<UnwrappedBlock> read_block(efs::EfsClient& lfs,
                                        const FileMeta& meta,
                                        std::uint32_t local_block,
                                        std::uint64_t global_no) {
  return unwrap_one(lfs.read_many(meta.lfs_file_id, {local_block}),
                    meta.lfs_file_id, global_no);
}

util::Result<std::vector<std::byte>> read_unwrapped(efs::EfsClient& lfs,
                                                    const FileMeta& meta,
                                                    std::uint32_t local_block,
                                                    std::uint64_t global_no) {
  auto block = read_block(lfs, meta, local_block, global_no);
  if (!block.is_ok()) return block.status();
  return std::move(block.value().user_data);
}

/// Best-effort compensating truncate used on write/rebuild error paths.  The
/// caller is already failing the operation, so a rollback error must not win
/// over the write error it compensates for — but it must not vanish either:
/// a failed rollback means the constituent's length no longer matches this
/// file's bookkeeping, and the next read past the torn tail will see it.
void rollback_truncate(efs::EfsClient& lfs, efs::FileId id, std::uint32_t len,
                       const char* where) {
  if (auto r = lfs.truncate(id, len); !r.is_ok()) {
    util::LogMessage(util::LogLevel::kError, "replication")
        << where << ": rollback truncate to " << len
        << " blocks failed for lfs file " << id
        << "; constituent may retain a torn tail: " << r.status().to_string();
  }
}

/// Number `payloads` as consecutive local blocks starting at `lo`.
std::vector<efs::BlockWrite> run_at(std::uint32_t lo,
                                    std::vector<std::vector<std::byte>> payloads) {
  std::vector<efs::BlockWrite> writes;
  writes.reserve(payloads.size());
  for (auto& payload : payloads) {
    writes.push_back({lo++, std::move(payload)});
  }
  return writes;
}

/// A spare/repaired LFS starts from scratch: whatever survives of the old
/// constituent is truncated away (every lost block gets a fresh free marker,
/// so stale content cannot mask a broken rebuild) and the rebuild re-appends
/// from zero.  Truncate's track-coalesced frees make this far cheaper than a
/// per-block delete.  Given the reply to the kTruncate to 0, this creates a
/// constituent that was missing entirely.
util::Status finish_reset(efs::EfsClient& lfs, efs::FileId id,
                          util::Result<efs::TruncateResponse> truncated) {
  if (truncated.is_ok() ||
      truncated.status().code() != util::ErrorCode::kNotFound) {
    return truncated.status();
  }
  return lfs.create(id);
}

/// Posts an Info for `id` on `lfs` whose completion records the
/// constituent's size in `size`, or leaves it empty if the LFS failed.
void post_size(sim::AsyncBatch& batch, efs::EfsClient& lfs, efs::FileId id,
               std::optional<std::uint32_t>& size) {
  lfs.info(batch, id, [&size](util::Result<efs::InfoResponse> info) {
    if (info.is_ok()) size = info.value().size_blocks;
    return util::ok_status();
  });
}

std::vector<std::uint32_t> local_range(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> locals;
  locals.reserve(hi - lo);
  for (std::uint32_t l = lo; l < hi; ++l) locals.push_back(l);
  return locals;
}

void xor_into(std::vector<std::byte>& acc, std::span<const std::byte> payload) {
  for (std::size_t b = 0; b < payload.size(); ++b) acc[b] ^= payload[b];
}

/// XOR accumulator for one stripe's data blocks: the payload XOR, the XOR of
/// their lengths, and how many were folded — a parity block's three parts.
struct StripeFold {
  std::vector<std::byte> acc = std::vector<std::byte>(efs::kUserDataBytes);
  std::uint32_t length_xor = 0;
  std::uint32_t fill = 0;

  void add(std::span<const std::byte> payload) {
    xor_into(acc, payload);
    length_xor ^= static_cast<std::uint32_t>(payload.size());
    ++fill;
  }
};

/// A stripe's lost data block: `fold` holds its surviving data blocks, the
/// parity block supplies the rest of the XOR and, in its length word, the
/// lost block's exact length.
util::Result<std::vector<std::byte>> recover_block(
    StripeFold fold, const UnwrappedBlock& parity) {
  xor_into(fold.acc, parity.user_data);
  std::uint32_t len = parity.header.reserved0 ^ fold.length_xor;
  if (len > efs::kUserDataBytes) {
    return util::corrupt("reconstructed length out of range");
  }
  fold.acc.resize(len);
  return std::move(fold.acc);
}

// --- Rebuild engine ---------------------------------------------------------
//
// Every rebuild streams the same way; a caller only describes its work: the
// surviving constituents to read, the constituents to re-create on the
// repaired LFS, and how one window's surviving blocks become the lost ones.

/// A surviving constituent the rebuild reads.  Its local block l must carry
/// global_block_no `l * stride + offset`; any other header is corruption.
struct RebuildSource {
  efs::EfsClient* lfs;
  efs::FileId id;
  std::uint32_t count;  ///< local blocks to stream
  std::uint32_t stride;
  std::uint32_t offset;
};

/// A constituent on the repaired LFS, re-created as `count` local blocks.
struct RebuildTarget {
  efs::FileId id;
  std::uint32_t count;
};

/// Turns window [lo, hi)'s checked source runs (runs[i] holds source i's
/// blocks from lo up to its count) into one wrapped run per target, each
/// covering the target's blocks from lo up to its count.
using Reconstruct = std::function<util::Result<std::vector<Payloads>>(
    std::uint32_t lo, std::uint32_t hi,
    const std::vector<std::vector<UnwrappedBlock>>& runs)>;

/// Re-create `targets` on `repaired` from `sources`, window by window.  The
/// targets are reset first (truncated to zero, or created if missing).  A
/// failed window write truncates every target back to the window start, so a
/// retry resumes from a clean boundary.
util::Result<RebuildReport> stream_rebuild(
    sim::Context& ctx, sim::RpcClient& rpc, efs::EfsClient& repaired,
    const std::vector<RebuildSource>& sources,
    const std::vector<RebuildTarget>& targets, const RebuildOptions& options,
    const Reconstruct& reconstruct) {
  std::uint32_t window = std::max<std::uint32_t>(options.window_blocks, 1);
  std::uint32_t todo = 0;
  for (const auto& target : targets) todo = std::max(todo, target.count);
  // Blocks window `lo` covers of a constituent holding `count` blocks.
  auto run_len = [&](std::uint32_t count, std::uint32_t lo) {
    std::uint32_t hi = std::min({count, todo, lo + window});
    return hi > lo ? hi - lo : 0u;
  };

  RebuildReport report;
  if (todo == 0 || !options.vectored) {
    for (const auto& target : targets) {
      auto truncated = repaired.truncate(target.id, 0);
      auto st = finish_reset(repaired, target.id, std::move(truncated));
      if (!st.is_ok()) return st;
    }
    if (todo == 0) return report;
  }

  // Check every surviving block's header, then reconstruct the window.
  auto rebuild_window = [&](std::uint32_t lo, const std::vector<Payloads>& raw)
      -> util::Result<std::vector<Payloads>> {
    std::vector<std::vector<UnwrappedBlock>> runs(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto& source = sources[i];
      if (raw[i].size() != run_len(source.count, lo)) {
        return util::corrupt("LFS returned a short vectored read");
      }
      for (std::uint32_t l = lo; l < lo + raw[i].size(); ++l) {
        auto block = unwrap_block(
            raw[i][l - lo], source.id,
            static_cast<std::uint64_t>(l) * source.stride + source.offset);
        if (!block.is_ok()) return block.status();
        runs[i].push_back(std::move(block).value());
        ++report.blocks_read;
      }
    }
    return reconstruct(lo, std::min(todo, lo + window), runs);
  };
  auto rollback = [&](std::uint32_t lo) {
    for (const auto& target : targets) {
      rollback_truncate(repaired, target.id, lo, "rebuild_lfs");
    }
  };

  if (options.vectored) {
    // Double-buffered streaming: each batch carries the previous window's
    // reconstructed writes together with the NEXT window's surviving reads,
    // so the repaired LFS lands data while the survivors stream ahead.  The
    // resets ride in batch 0 (they busy only the repaired LFS, the reads
    // only the survivors — no reason to serialize).
    sim::AsyncBatch batch(rpc);
    std::vector<Payloads> raw(sources.size());  ///< the window being read
    auto post_reads = [&](std::uint32_t lo) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto& source = sources[i];
        raw[i].clear();
        auto n = run_len(source.count, lo);
        if (n == 0) continue;
        source.lfs->read_many(batch, source.id, local_range(lo, lo + n),
                              [&raw, i](util::Result<Payloads> run) {
                                if (!run.is_ok()) return run.status();
                                raw[i] = std::move(run).value();
                                return util::ok_status();
                              });
      }
    };
    // The writes in flight: the window they start at, their blocks and the
    // first of their failures.
    std::uint32_t pending_lo = 0;
    std::uint64_t pending_blocks = 0;
    util::Status write_status = util::ok_status();
    auto note_write = [&write_status](util::Status st) {
      if (write_status.is_ok()) write_status = st;
      return st;
    };
    // Wait for the batch; a failed write rolls the targets back to the
    // start of its window.
    auto drain = [&]() -> util::Status {
      auto st = batch.wait_all_ok();
      if (!write_status.is_ok()) {
        rollback(pending_lo);
        return write_status;
      }
      if (!st.is_ok()) return st;
      if (pending_blocks > 0) {
        report.blocks_rebuilt += pending_blocks;
        ++report.windows;
        pending_blocks = 0;
      }
      return util::ok_status();
    };

    for (const auto& target : targets) {
      auto reset = [&repaired, id = target.id](
                       util::Result<efs::TruncateResponse> truncated) {
        return finish_reset(repaired, id, std::move(truncated));
      };
      repaired.truncate(batch, target.id, 0, reset);
    }
    post_reads(0);
    for (std::uint32_t lo = 0; lo < todo; lo += window) {
      sim::ScopedSpan window_span(ctx, "rebuild.window");
      if (auto st = drain(); !st.is_ok()) return st;
      auto runs = rebuild_window(lo, raw);
      if (!runs.is_ok()) return runs.status();
      for (std::size_t t = 0; t < targets.size(); ++t) {
        auto& run = runs.value()[t];
        if (run.empty()) continue;
        pending_blocks += run.size();
        repaired.write_many(batch, targets[t].id, run_at(lo, std::move(run)),
                            note_write);
      }
      pending_lo = lo;
      if (lo + window < todo) post_reads(lo + window);
    }
    // Drain the final window's writes.
    if (auto st = drain(); !st.is_ok()) return st;
    return report;
  }

  // Reference path: one RPC per block, strictly sequential, reading local
  // block l of every source before block l + 1.
  for (std::uint32_t lo = 0; lo < todo; lo += window) {
    sim::ScopedSpan window_span(ctx, "rebuild.window");
    std::vector<Payloads> raw(sources.size());
    for (std::uint32_t l = lo; l < std::min(todo, lo + window); ++l) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (l >= lo + run_len(sources[i].count, lo)) continue;
        auto block = sources[i].lfs->read(sources[i].id, l);
        if (!block.is_ok()) return block.status();
        raw[i].push_back(std::move(block).value());
      }
    }
    auto runs = rebuild_window(lo, raw);
    if (!runs.is_ok()) return runs.status();

    util::Status write_status = util::ok_status();
    std::uint64_t written = 0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const auto& run = runs.value()[t];
      for (std::size_t i = 0; i < run.size() && write_status.is_ok(); ++i) {
        write_status = repaired.write(
            targets[t].id, lo + static_cast<std::uint32_t>(i), run[i]);
      }
      written += run.size();
    }
    if (!write_status.is_ok()) {
      rollback(lo);
      return write_status;
    }
    report.blocks_rebuilt += written;
    ++report.windows;
  }
  return report;
}

}  // namespace

// --- MirroredFile -----------------------------------------------------------

MirroredFile::MirroredFile(sim::Context& ctx, tools::ToolEnv env,
                           FileMeta primary, FileMeta mirror)
    : ctx_(&ctx),
      env_(std::move(env)),
      primary_(std::move(primary)),
      mirror_(std::move(mirror)) {
  rpc_ = std::make_unique<sim::RpcClient>(ctx);
  lfs_ = env_.make_lfs_clients(*rpc_);
  size_ = primary_.size_blocks;
}

util::Result<MirroredFile> MirroredFile::open(sim::Context& ctx,
                                              BridgeApi& client,
                                              const std::string& name) {
  auto env = tools::discover(client);
  if (!env.is_ok()) return env.status();
  if (env.value().num_lfs() < 2) {
    return util::invalid_argument("mirroring needs at least 2 LFSs");
  }
  auto primary = open_or_create(client, name);
  if (!primary.is_ok()) return primary.status();
  auto mirror = open_or_create(client, name + "!mirror");
  if (!mirror.is_ok()) return mirror.status();
  MirroredFile file(ctx, std::move(env).value(), std::move(primary).value(),
                    std::move(mirror).value());
  if (auto st = file.derive_size(); !st.is_ok()) return st;
  return file;
}

util::Status MirroredFile::derive_size() {
  std::uint32_t p = env_.num_lfs();
  // Primary constituent i's size, then mirror constituent i's.
  std::vector<std::optional<std::uint32_t>> sizes(2 * p);
  sim::AsyncBatch batch(*rpc_);
  for (std::uint32_t i = 0; i < p; ++i) {
    post_size(batch, *lfs_[i], primary_.lfs_file_id, sizes[i]);
  }
  for (std::uint32_t i = 0; i < p; ++i) {
    post_size(batch, *lfs_[i], mirror_.lfs_file_id, sizes[p + i]);
  }
  (void)batch.wait_all();  // every completion is ok; a gap is in `sizes`
  std::uint64_t size = 0;
  for (std::uint32_t o = 0; o < p; ++o) {
    std::uint32_t home = (primary_.start_lfs + o) % p;
    std::uint32_t partner = (home + p / 2) % p;
    auto constituent = sizes[home] ? sizes[home] : sizes[p + partner];
    if (!constituent) {
      return util::unavailable("double failure: cannot derive mirrored size");
    }
    size += *constituent;
  }
  size_ = size;
  return util::ok_status();
}

util::Status MirroredFile::append(std::span<const std::byte> data) {
  return append_many({std::vector<std::byte>(data.begin(), data.end())});
}

util::Status MirroredFile::append_many(
    const std::vector<std::vector<std::byte>>& blocks) {
  if (blocks.empty()) return util::ok_status();
  std::uint32_t p = env_.num_lfs();

  // Group the run per constituent: blocks homed on LFS j join j's primary
  // group, their mirror copies join ((j + p/2) mod p)'s mirror group.
  struct Group {
    std::vector<efs::BlockWrite> writes;
  };
  std::vector<Group> primary_groups(p), mirror_groups(p);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    std::uint64_t n = size_ + i;
    auto home = striped_placement(n, p, primary_.start_lfs, p);
    std::uint32_t mirror_lfs = (home.lfs_index + p / 2) % p;
    auto wrapped_primary = wrap_block(primary_.owner(), n, blocks[i]);
    if (!wrapped_primary.is_ok()) return wrapped_primary.status();
    auto wrapped_mirror = wrap_block(mirror_.owner(), n, blocks[i]);
    if (!wrapped_mirror.is_ok()) return wrapped_mirror.status();
    // The mirror file lays its blocks out with the same local numbering but
    // shifted start, so block n's mirror local number equals the home's.
    primary_groups[home.lfs_index].writes.push_back(
        {home.local_block, std::move(wrapped_primary).value()});
    mirror_groups[mirror_lfs].writes.push_back(
        {home.local_block, std::move(wrapped_mirror).value()});
  }

  // One request per constituent touched, all in flight together.
  struct Issued {
    std::uint32_t lfs = 0;
    efs::FileId id = 0;
  };
  sim::AsyncBatch batch(*rpc_);
  std::vector<Issued> issued;
  for (std::uint32_t j = 0; j < p; ++j) {
    if (!primary_groups[j].writes.empty()) {
      issued.push_back({j, primary_.lfs_file_id});
      lfs_[j]->write_many(batch, primary_.lfs_file_id,
                          std::move(primary_groups[j].writes));
    }
    if (!mirror_groups[j].writes.empty()) {
      issued.push_back({j, mirror_.lfs_file_id});
      lfs_[j]->write_many(batch, mirror_.lfs_file_id,
                          std::move(mirror_groups[j].writes));
    }
  }
  if (auto first_error = batch.wait_all_ok(); !first_error.is_ok()) {
    // Compensate: roll every touched constituent back to its pre-run length
    // (kTruncate is a no-op for any whose write never landed).  A truncate
    // aimed at the failed LFS itself fails too — nothing was written there.
    for (const auto& entry : issued) {
      std::uint32_t o = entry.id == primary_.lfs_file_id
                            ? (entry.lfs + p - primary_.start_lfs % p) % p
                            : ((entry.lfs + p - p / 2) % p + p -
                               primary_.start_lfs % p) %
                                  p;
      rollback_truncate(*lfs_[entry.lfs], entry.id, offset_count(size_, p, o),
                        "MirroredFile::append_many");
    }
    return first_error;
  }
  size_ += blocks.size();
  return util::ok_status();
}

util::Result<std::vector<std::byte>> MirroredFile::read(std::uint64_t n,
                                                        bool* used_mirror) {
  if (used_mirror != nullptr) *used_mirror = false;
  if (n >= size_) return util::invalid_argument("read past EOF");
  std::uint32_t p = env_.num_lfs();
  auto home = striped_placement(n, p, primary_.start_lfs, p);
  auto primary = read_unwrapped(*lfs_[home.lfs_index], primary_,
                                home.local_block, n);
  if (primary.is_ok()) return primary;
  if (primary.status().code() != util::ErrorCode::kUnavailable) return primary;
  std::uint32_t mirror_lfs = (home.lfs_index + p / 2) % p;
  if (used_mirror != nullptr) *used_mirror = true;
  return read_unwrapped(*lfs_[mirror_lfs], mirror_, home.local_block, n);
}

util::Result<RebuildReport> MirroredFile::rebuild_lfs(
    std::uint32_t failed_idx, RebuildOptions options) {
  std::uint32_t p = env_.num_lfs();
  if (failed_idx >= p) return util::invalid_argument("no such LFS");

  // LFS f held two constituents: the primary blocks homed on f (offset o_f,
  // mirrored on partner = f + p/2) and the mirror copies of the blocks homed
  // on g = f - p/2 (offset o_g).  Source i is the surviving copy of target i.
  std::uint32_t o_f = (failed_idx + p - primary_.start_lfs % p) % p;
  std::uint32_t partner = (failed_idx + p / 2) % p;
  std::uint32_t g = (failed_idx + p - p / 2) % p;
  std::uint32_t o_g = (g + p - primary_.start_lfs % p) % p;
  std::uint32_t primary_count = offset_count(size_, p, o_f);
  std::uint32_t mirror_count = offset_count(size_, p, o_g);
  std::vector<RebuildSource> sources = {
      {lfs_[partner].get(), mirror_.lfs_file_id, primary_count, p, o_f},
      {lfs_[g].get(), primary_.lfs_file_id, mirror_count, p, o_g}};
  std::vector<RebuildTarget> targets = {{primary_.lfs_file_id, primary_count},
                                        {mirror_.lfs_file_id, mirror_count}};
  // Re-wrap each surviving copy for the constituent being rebuilt.
  auto rewrap = [&](std::uint32_t, std::uint32_t,
                    const std::vector<std::vector<UnwrappedBlock>>& runs)
      -> util::Result<std::vector<Payloads>> {
    std::vector<Payloads> out(2);
    for (std::size_t t = 0; t < out.size(); ++t) {
      const FileMeta& meta = t == 0 ? primary_ : mirror_;
      for (const auto& block : runs[t]) {
        auto wrapped = wrap_block(meta.owner(), block.header.global_block_no,
                                  block.user_data);
        if (!wrapped.is_ok()) return wrapped.status();
        out[t].push_back(std::move(wrapped).value());
      }
    }
    return out;
  };
  return stream_rebuild(*ctx_, *rpc_, *lfs_[failed_idx], sources, targets,
                        options, rewrap);
}

// --- ParityFile -------------------------------------------------------------

ParityFile::ParityFile(sim::Context& ctx, tools::ToolEnv env, FileMeta data,
                       FileMeta parity)
    : ctx_(&ctx),
      env_(std::move(env)),
      data_(std::move(data)),
      parity_(std::move(parity)) {
  rpc_ = std::make_unique<sim::RpcClient>(ctx);
  lfs_ = env_.make_lfs_clients(*rpc_);
  size_ = data_.size_blocks;
}

util::Result<ParityFile> ParityFile::open(sim::Context& ctx,
                                          BridgeApi& client,
                                          const std::string& name) {
  auto env = tools::discover(client);
  if (!env.is_ok()) return env.status();
  if (env.value().num_lfs() < 3) {
    return util::invalid_argument("parity needs at least 3 LFSs");
  }
  std::uint32_t data_width = env.value().num_lfs() - 1;
  auto open = client.open(name);
  FileMeta data;
  if (open.is_ok()) {
    data = open.value().meta;
  } else if (open.status().code() == util::ErrorCode::kNotFound) {
    CreateOptions options;
    options.width = data_width;
    options.start_lfs = 0;
    if (auto created = client.create(name, options); !created.is_ok()) {
      return created.status();
    }
    auto reopened = client.open(name);
    if (!reopened.is_ok()) return reopened.status();
    data = reopened.value().meta;
  } else {
    return open.status();
  }
  // Parity lives as a width-1 file on the last LFS.
  auto parity_open = client.open(name + "!parity");
  FileMeta parity;
  if (parity_open.is_ok()) {
    parity = parity_open.value().meta;
  } else if (parity_open.status().code() == util::ErrorCode::kNotFound) {
    CreateOptions options;
    options.width = 1;
    options.start_lfs = data_width;
    if (auto created = client.create(name + "!parity", options);
        !created.is_ok()) {
      return created.status();
    }
    auto reopened = client.open(name + "!parity");
    if (!reopened.is_ok()) return reopened.status();
    parity = reopened.value().meta;
  } else {
    return parity_open.status();
  }
  ParityFile file(ctx, std::move(env).value(), std::move(data),
                  std::move(parity));
  if (auto st = file.derive_size(); !st.is_ok()) return st;
  return file;
}

util::Status ParityFile::derive_size() {
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  // Data constituent o's size, then the parity constituent's.
  std::vector<std::optional<std::uint32_t>> sizes(width + 1);
  sim::AsyncBatch batch(*rpc_);
  for (std::uint32_t o = 0; o < width; ++o) {
    post_size(batch, *lfs_[(data_.start_lfs + o) % total], data_.lfs_file_id,
              sizes[o]);
  }
  post_size(batch, *lfs_[parity_lfs_index()], parity_.lfs_file_id,
            sizes[width]);
  (void)batch.wait_all();  // every completion is ok; a gap is in `sizes`

  std::uint64_t known_sum = 0;
  std::uint32_t unknown = 0;
  for (std::uint32_t o = 0; o < width; ++o) {
    if (sizes[o]) {
      known_sum += *sizes[o];
    } else {
      ++unknown;
    }
  }
  if (unknown == 0) {
    size_ = known_sum;
    return util::ok_status();
  }
  if (unknown > 1) {
    return util::unavailable("double failure: cannot derive parity size");
  }
  // One data constituent is unreachable: the parity file knows the stripe
  // count, and the last parity block's fill word pins the exact size.
  if (!sizes[width]) {
    return util::unavailable("double failure: cannot derive parity size");
  }
  std::uint32_t stripes = *sizes[width];
  if (stripes == 0) {
    size_ = 0;
    return util::ok_status();
  }
  auto last = read_block(*lfs_[parity_lfs_index()], parity_, stripes - 1,
                         stripes - 1);
  if (!last.is_ok()) return last.status();
  std::uint32_t fill = last.value().header.reserved1;
  if (fill == 0 || fill > width) {
    return util::corrupt("parity fill word out of range");
  }
  size_ = static_cast<std::uint64_t>(stripes - 1) * width + fill;
  return util::ok_status();
}

util::Status ParityFile::append_stripe(
    const std::vector<std::vector<std::byte>>& blocks) {
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  if (blocks.empty() || blocks.size() > width) {
    return util::invalid_argument("stripe must hold 1..p-1 blocks");
  }
  if (size_ % width != 0) {
    return util::invalid_argument("previous stripe incomplete");
  }
  std::uint32_t stripe = static_cast<std::uint32_t>(size_ / width);

  // Build the whole stripe first: wrapped data blocks plus the parity block,
  // whose reserved words carry the XOR of the payload lengths and the fill
  // count (what reconstruction needs to return short blocks byte-identical).
  StripeFold parity;
  std::vector<std::vector<std::byte>> wrapped(blocks.size());
  std::vector<std::uint32_t> data_lfs(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].size() > efs::kUserDataBytes) {
      return util::invalid_argument("block too large");
    }
    std::uint64_t n = size_ + i;
    auto placement = striped_placement(n, width, data_.start_lfs, total);
    auto w = wrap_block(data_.owner(), n, blocks[i]);
    if (!w.is_ok()) return w.status();
    wrapped[i] = std::move(w).value();
    data_lfs[i] = placement.lfs_index;
    parity.add(blocks[i]);
  }
  auto parity_wrapped = wrap_block(parity_.owner(), stripe, parity.acc,
                                   parity.length_xor, parity.fill);
  if (!parity_wrapped.is_ok()) return parity_wrapped.status();

  // Every data block of a stripe lives on a distinct LFS: one write per
  // LFS, data and parity all in flight together.
  sim::AsyncBatch batch(*rpc_);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    lfs_[data_lfs[i]]->write_many(batch, data_.lfs_file_id,
                                  {{stripe, std::move(wrapped[i])}});
  }
  lfs_[parity_lfs_index()]->write_many(
      batch, parity_.lfs_file_id,
      {{stripe, std::move(parity_wrapped).value()}});
  if (auto first_error = batch.wait_all_ok(); !first_error.is_ok()) {
    // Compensate: every constituent of this stripe rolls back to `stripe`
    // local blocks — no torn stripe whose parity silently XORs garbage.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      rollback_truncate(*lfs_[data_lfs[i]], data_.lfs_file_id, stripe,
                        "ParityFile::append_stripe");
    }
    rollback_truncate(*lfs_[parity_lfs_index()], parity_.lfs_file_id, stripe,
                      "ParityFile::append_stripe");
    return first_error;
  }
  size_ += blocks.size();
  return util::ok_status();
}

util::Result<std::vector<std::byte>> ParityFile::read(std::uint64_t n,
                                                      bool* reconstructed) {
  if (reconstructed != nullptr) *reconstructed = false;
  if (n >= size_) return util::invalid_argument("read past EOF");
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  auto placement = striped_placement(n, width, data_.start_lfs, total);
  auto direct = read_unwrapped(*lfs_[placement.lfs_index], data_,
                               placement.local_block, n);
  if (direct.is_ok()) return direct;
  if (direct.status().code() != util::ErrorCode::kUnavailable) return direct;

  // Reconstruct: gather the stripe's surviving data blocks and the parity
  // block in one concurrent round, then XOR.
  if (reconstructed != nullptr) *reconstructed = true;
  std::uint64_t stripe = n / width;
  std::uint64_t stripe_first = stripe * width;
  std::uint64_t stripe_end = std::min<std::uint64_t>(stripe_first + width,
                                                     size_);
  StripeFold fold;
  std::optional<UnwrappedBlock> parity;
  sim::AsyncBatch batch(*rpc_);
  for (std::uint64_t m = stripe_first; m < stripe_end; ++m) {
    if (m == n) continue;
    auto sibling_place = striped_placement(m, width, data_.start_lfs, total);
    auto fold_in = [this, &fold, m](util::Result<Payloads> raw) {
      if (!raw.is_ok()) {
        return util::unavailable("double failure: cannot reconstruct");
      }
      auto sibling = unwrap_one(std::move(raw), data_.lfs_file_id, m);
      if (!sibling.is_ok()) return sibling.status();
      fold.add(sibling.value().user_data);
      return util::ok_status();
    };
    lfs_[sibling_place.lfs_index]->read_many(
        batch, data_.lfs_file_id, {sibling_place.local_block}, fold_in);
  }
  auto take_parity = [this, &parity, stripe](util::Result<Payloads> raw) {
    auto block = unwrap_one(std::move(raw), parity_.lfs_file_id, stripe);
    if (!block.is_ok()) return block.status();
    parity = std::move(block).value();
    return util::ok_status();
  };
  lfs_[parity_lfs_index()]->read_many(batch, parity_.lfs_file_id,
                                      {static_cast<std::uint32_t>(stripe)},
                                      take_parity);
  if (auto st = batch.wait_all_ok(); !st.is_ok()) return st;
  if (parity->header.reserved1 != stripe_end - stripe_first) {
    return util::corrupt("parity fill word disagrees with file size");
  }
  return recover_block(std::move(fold), *parity);
}

util::Result<RebuildReport> ParityFile::rebuild_lfs(std::uint32_t failed_idx,
                                                    RebuildOptions options) {
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  if (failed_idx >= total) return util::invalid_argument("no such LFS");
  auto stripes = static_cast<std::uint32_t>((size_ + width - 1) / width);
  // Data block l at offset o is global block l * width + o.
  std::vector<RebuildSource> sources;
  for (std::uint32_t o = 0; o < width; ++o) {
    sources.push_back({lfs_[(data_.start_lfs + o) % total].get(),
                       data_.lfs_file_id, offset_count(size_, width, o), width,
                       o});
  }
  auto fold_window = [](std::uint32_t lo, std::uint32_t hi,
                        std::span<const std::vector<UnwrappedBlock>> runs) {
    std::vector<StripeFold> folds(hi - lo);
    for (const auto& run : runs) {
      for (std::size_t j = 0; j < run.size(); ++j) {
        folds[j].add(run[j].user_data);
      }
    }
    return folds;
  };

  if (failed_idx == parity_lfs_index()) {
    // Parity block s is the fold of stripe s's data blocks.
    auto recompute = [&](std::uint32_t lo, std::uint32_t hi,
                         const std::vector<std::vector<UnwrappedBlock>>& runs)
        -> util::Result<std::vector<Payloads>> {
      auto folds = fold_window(lo, hi, runs);
      Payloads out;
      for (std::uint32_t s = lo; s < hi; ++s) {
        const auto& fold = folds[s - lo];
        auto wrapped = wrap_block(parity_.owner(), s, fold.acc,
                                  fold.length_xor, fold.fill);
        if (!wrapped.is_ok()) return wrapped.status();
        out.push_back(std::move(wrapped).value());
      }
      return std::vector<Payloads>{std::move(out)};
    };
    return stream_rebuild(*ctx_, *rpc_, *lfs_[failed_idx], sources,
                          {{parity_.lfs_file_id, stripes}}, options,
                          recompute);
  }

  std::uint32_t o_f = (failed_idx + total - data_.start_lfs % total) % total;
  if (o_f >= width) {
    return util::invalid_argument("LFS holds no data constituent");
  }
  // The surviving data constituents, then the parity (block s is stripe s).
  sources.erase(sources.begin() + o_f);
  sources.push_back({lfs_[parity_lfs_index()].get(), parity_.lfs_file_id,
                     stripes, 1, 0});
  auto reconstruct = [&](std::uint32_t lo, std::uint32_t hi,
                         const std::vector<std::vector<UnwrappedBlock>>& runs)
      -> util::Result<std::vector<Payloads>> {
    auto folds = fold_window(lo, hi, std::span(runs.data(), runs.size() - 1));
    Payloads out;
    for (std::uint32_t s = lo; s < hi; ++s) {
      auto block = recover_block(std::move(folds[s - lo]), runs.back()[s - lo]);
      if (!block.is_ok()) return block.status();
      auto wrapped =
          wrap_block(data_.owner(), static_cast<std::uint64_t>(s) * width + o_f,
                     block.value());
      if (!wrapped.is_ok()) return wrapped.status();
      out.push_back(std::move(wrapped).value());
    }
    return std::vector<Payloads>{std::move(out)};
  };
  return stream_rebuild(*ctx_, *rpc_, *lfs_[failed_idx], sources,
                        {{data_.lfs_file_id, offset_count(size_, width, o_f)}},
                        options, reconstruct);
}

}  // namespace bridge::core
