#include "src/tools/sort/token_merge.hpp"

#include <map>

#include "src/efs/client.hpp"
#include "src/sim/rpc.hpp"

namespace bridge::tools {

namespace {
constexpr std::size_t kTokenWireBytes = 48;
constexpr std::size_t kRecordWireBytes = 1000;
}  // namespace

struct TokenMerge::Shared {
  std::vector<std::shared_ptr<sim::Channel<MergeToken>>> tokens;
  std::vector<std::shared_ptr<sim::Channel<WriterMessage>>> writers;
};

TokenMerge::TokenMerge(sim::Context& ctx, const ToolEnv& env, core::FileMeta a,
                       core::FileMeta b, core::FileMeta dst, SortTuning tuning)
    : shared_(std::make_shared<Shared>()),
      env_(&env),
      a_(std::move(a)),
      b_(std::move(b)),
      dst_(std::move(dst)),
      tuning_(tuning) {
  std::uint32_t p = env_->num_lfs();
  std::uint32_t t = a_.width + b_.width;
  // Reader i's token channel lives on that reader's LFS node.
  for (std::uint32_t g = 0; g < t; ++g) {
    bool in_a = g < a_.width;
    const core::FileMeta& meta = in_a ? a_ : b_;
    std::uint32_t ridx = in_a ? g : g - a_.width;
    sim::NodeId node = env_->lfs_node((meta.start_lfs + ridx) % p);
    shared_->tokens.push_back(
        ctx.runtime().make_channel<MergeToken>(node));
  }
  for (std::uint32_t wdx = 0; wdx < t; ++wdx) {
    sim::NodeId node = env_->lfs_node((dst_.start_lfs + wdx) % p);
    shared_->writers.push_back(
        ctx.runtime().make_channel<WriterMessage>(node));
  }
}

void TokenMerge::kick(sim::Context& ctx) {
  MergeToken start;
  start.start = true;
  ctx.send(*shared_->tokens[0], start, kTokenWireBytes);
}

void TokenMerge::launch(WorkerGroup<MergeWorkerResult>& group) {
  const ToolEnv& env = *env_;
  std::uint32_t p = env.num_lfs();
  std::uint32_t wa = a_.width;
  std::uint32_t wb = b_.width;
  std::uint32_t t = wa + wb;

  // --- Readers. ---
  for (std::uint32_t g = 0; g < t; ++g) {
    bool in_a = g < wa;
    const core::FileMeta meta = in_a ? a_ : b_;
    std::uint32_t base = in_a ? 0 : wa;        // first reader of my file
    std::uint32_t other_first = in_a ? wa : 0;  // first reader of other file
    std::uint32_t ridx = g - base;
    std::uint32_t ring_next = base + (ridx + 1) % meta.width;
    std::uint32_t lfs = (meta.start_lfs + ridx) % p;
    std::uint64_t local_count = meta.size_blocks / meta.width +
                                (ridx < meta.size_blocks % meta.width ? 1 : 0);
    auto shared = shared_;
    SortTuning tuning = tuning_;
    sim::Address service = env.lfs_service(lfs);

    group.spawn(
        env.lfs_node(lfs), "merge-rd" + std::to_string(g),
        [shared, meta, g, ring_next, other_first, local_count, tuning, service,
         t, ridx](sim::Context& ctx) -> util::Result<MergeWorkerResult> {
          sim::RpcClient rpc(ctx);
          efs::EfsClient efs(rpc, service);
          // in.head(): this reader's least unwritten record.
          ConstituentReader in(efs, meta.lfs_file_id, local_count, meta.width,
                               ridx);
          auto send_token = [&](std::uint32_t target, MergeToken token) {
            ctx.send(*shared->tokens[target], token, kTokenWireBytes);
          };
          auto send_record = [&](std::uint64_t seq) {
            WriterMessage message;
            message.seq = seq;
            message.payload = *in.head();
            ctx.send(*shared->writers[seq % t], std::move(message),
                     kRecordWireBytes);
          };
          auto broadcast_done = [&](std::uint64_t final_seq) {
            for (auto& writer : shared->writers) {
              WriterMessage end;
              end.end = true;
              end.final_seq = final_seq;
              ctx.send(*writer, std::move(end), kTokenWireBytes);
            }
            MergeToken shutdown;
            shutdown.shutdown = true;
            for (std::uint32_t i = 0; i < shared->tokens.size(); ++i) {
              if (i != g) send_token(i, shutdown);
            }
          };

          if (auto st = in.advance(); !st.is_ok()) return st;

          while (true) {
            MergeToken token = shared->tokens[g]->recv();
            ctx.charge(tuning.token_cpu);
            if (token.shutdown) break;
            if (token.start) {
              MergeToken out;
              out.originator = g;
              out.seq = 0;
              if (in.head() == nullptr) {
                out.end = true;
              } else {
                out.key = record_key(*in.head());
              }
              send_token(other_first, out);
              continue;
            }
            if (token.end) {
              if (in.head() == nullptr) {
                // Both inputs exhausted: merge complete.
                broadcast_done(token.seq);
                break;
              }
              send_record(token.seq);
              ++token.seq;
              send_token(ring_next, token);
              if (auto st = in.advance(); !st.is_ok()) return st;
              continue;
            }
            // Usual case.
            if (in.head() == nullptr) {
              MergeToken out;
              out.end = true;
              out.originator = g;
              out.seq = token.seq;
              send_token(token.originator, out);
              continue;
            }
            if (record_key(*in.head()) <= token.key) {
              send_record(token.seq);
              ++token.seq;
              send_token(ring_next, token);
              if (auto st = in.advance(); !st.is_ok()) return st;
            } else {
              MergeToken out;
              out.key = record_key(*in.head());
              out.originator = g;
              out.seq = token.seq;
              send_token(token.originator, out);
            }
          }
          return MergeWorkerResult{local_count};
        });
  }

  // --- Writers. ---
  for (std::uint32_t wdx = 0; wdx < t; ++wdx) {
    std::uint32_t lfs = (dst_.start_lfs + wdx) % p;
    auto shared = shared_;
    core::FileMeta dst = dst_;
    SortTuning tuning = tuning_;
    sim::Address service = env.lfs_service(lfs);

    group.spawn(
        env.lfs_node(lfs), "merge-wr" + std::to_string(wdx),
        [shared, dst, wdx, t, tuning, service](sim::Context& ctx)
            -> util::Result<MergeWorkerResult> {
          MergeWorkerResult result;
          sim::RpcClient rpc(ctx);
          efs::EfsClient efs(rpc, service);
          ConstituentWriter out(efs, dst.owner(), wdx, kSortWindow);

          std::map<std::uint64_t, std::vector<std::byte>> pending;
          bool total_known = false;
          std::uint64_t my_total = 0;
          while (true) {
            WriterMessage message = shared->writers[wdx]->recv();
            ctx.charge(tuning.record_cpu);
            if (message.end) {
              total_known = true;
              my_total = message.final_seq / t +
                         (wdx < message.final_seq % t ? 1 : 0);
            } else {
              pending.emplace(message.seq / t, std::move(message.payload));
            }
            // Append every contiguous record we now hold; records may arrive
            // out of order across senders.  The writer flushes a window at a
            // time, so the records put, not written(), say what comes next.
            while (!pending.empty() &&
                   pending.begin()->first == result.records) {
              auto node = pending.extract(pending.begin());
              if (auto st = out.put(node.mapped()); !st.is_ok()) return st;
              ++result.records;
            }
            if (total_known && result.records >= my_total) break;
          }
          if (auto st = out.finish(); !st.is_ok()) return st;
          return result;
        });
  }
}

}  // namespace bridge::tools
