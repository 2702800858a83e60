// BufferedFileStream: client-side prefetch window + write-behind batching
// over the vectored naive-view ops.
//
// The naive interface of §4.1 moves one block per client<->server round trip,
// so a sequential scan runs at one-disk speed no matter how many LFSs hold
// the file.  This adapter keeps the naive programming model (read the next
// block / append a block) but pipelines underneath: reads arrive a window at
// a time via kSeqReadMany and writes are gathered into kSeqWriteMany runs,
// letting the server keep all p disks in flight for one client.
//
// The window can self-tune (options.adaptive): every time the consumer
// drains a whole window sequentially the next request doubles, up to
// kMaxRunBlocks, so long scans converge on maximal runs without the caller
// picking a size; a seek() — or a failed read, the client-visible stall —
// collapses it back to min_window, so random-access phases pay for small
// transfers only.  With adaptive off the window is fixed at read_window,
// exactly the earlier behavior.
//
// Ordering: the stream flushes pending writes before any read, so a program
// that interleaves reads and writes observes exactly what the synchronous
// single-block calls would have produced.  A failed flush keeps the pending
// blocks buffered (the server commits runs whole or not at all), so the
// caller can free space and retry, or drop the stream.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/core/client.hpp"
#include "src/efs/layout.hpp"

namespace bridge::core {

struct BufferedStreamOptions {
  /// Blocks requested per prefetch (clamped to kMaxRunBlocks by the server).
  /// With adaptive on this is only the starting size.
  std::uint32_t read_window = 16;
  /// Pending appends that trigger an automatic flush.
  std::uint32_t write_batch = 16;
  /// Self-tune the read window (grow on sequential drains, shrink on seeks
  /// and read failures).
  bool adaptive = false;
  std::uint32_t min_window = 4;             ///< floor after a seek
  std::uint32_t max_window = kMaxRunBlocks; ///< growth ceiling
};

class BufferedFileStream {
 public:
  BufferedFileStream(BridgeClient& api, std::uint64_t session,
                     BufferedStreamOptions options = {})
      : api_(&api), session_(session), options_(options) {
    if (options_.read_window == 0) options_.read_window = 1;
    if (options_.write_batch == 0) options_.write_batch = 1;
    if (options_.min_window == 0) options_.min_window = 1;
    options_.max_window = std::clamp(options_.max_window, options_.min_window,
                                     kMaxRunBlocks);
    window_size_ = std::clamp(options_.read_window, options_.min_window,
                              options_.max_window);
  }

  /// Next sequential block, served from the prefetch window (refilled by one
  /// vectored read when empty).  Mirrors seq_read semantics exactly,
  /// including the eof-marked response at end of file.
  util::Result<SeqReadResponse> read() {
    if (auto st = flush(); !st.is_ok()) return st;
    if (window_pos_ >= window_.size()) {
      // The consumer drained an entire window without seeking: double the
      // next one.  A short window (EOF-capped refill) stops the growth.
      if (options_.adaptive && !window_.empty() &&
          window_.size() >= window_size_) {
        window_size_ = std::min(window_size_ * 2, options_.max_window);
      }
      // Refill.  Always re-ask the server rather than caching an EOF: the
      // file may have grown (e.g. through this very stream's writes).
      auto run = api_->seq_read_many(session_, window_size_);
      if (!run.is_ok()) {
        // A failed vectored read is the client-visible stall: back off so
        // the retry asks for less.
        if (options_.adaptive) {
          window_size_ = std::max(window_size_ / 2, options_.min_window);
        }
        return run.status();
      }
      if (run.value().blocks.empty()) {
        SeqReadResponse eof;
        eof.eof = true;
        eof.block_no = run.value().first_block_no;
        return eof;
      }
      window_ = std::move(run.value().blocks);
      window_first_ = run.value().first_block_no;
      window_pos_ = 0;
    }
    SeqReadResponse resp;
    resp.block_no = window_first_ + window_pos_;
    resp.data = std::move(window_[window_pos_]);
    ++window_pos_;
    return resp;
  }

  /// Reposition the read cursor to `block_no` (clamped to the file size).
  /// Pending writes are flushed first and the prefetch window is dropped, so
  /// the next read() returns exactly block `block_no` as the server sees the
  /// file.  Returns the cursor after the seek.
  util::Result<std::uint64_t> seek(std::uint64_t block_no) {
    if (auto st = flush(); !st.is_ok()) return st;
    window_.clear();
    window_pos_ = 0;
    auto cursor = api_->seq_seek(session_, block_no);
    if (!cursor.is_ok()) return cursor;
    if (options_.adaptive) window_size_ = options_.min_window;
    return cursor;
  }

  /// Append one block (write-behind: batched until write_batch blocks are
  /// pending, then pushed as one vectored run).
  util::Status write(std::span<const std::byte> data) {
    if (data.size() > efs::kUserDataBytes) {
      return util::invalid_argument("payload exceeds 960 bytes");
    }
    if (pending_.empty()) pending_.reserve(options_.write_batch);
    pending_.emplace_back(data.begin(), data.end());
    if (pending_.size() >= options_.write_batch) return flush();
    return util::ok_status();
  }

  /// Move-in overload for callers that already own the block: the payload is
  /// adopted, not copied (the hot append path builds its record and hands it
  /// straight over).
  util::Status write(std::vector<std::byte>&& data) {
    if (data.size() > efs::kUserDataBytes) {
      return util::invalid_argument("payload exceeds 960 bytes");
    }
    if (pending_.empty()) pending_.reserve(options_.write_batch);
    pending_.push_back(std::move(data));
    if (pending_.size() >= options_.write_batch) return flush();
    return util::ok_status();
  }

  /// Push every pending append as one run.  On failure the blocks stay
  /// pending and the file is untouched (the run fails whole server-side).
  util::Status flush() {
    if (pending_.empty()) return util::ok_status();
    auto resp = api_->seq_write_many(session_, pending_);
    if (!resp.is_ok()) return resp.status();
    pending_.clear();
    return util::ok_status();
  }

  [[nodiscard]] std::uint64_t session() const noexcept { return session_; }
  [[nodiscard]] std::size_t pending_writes() const noexcept {
    return pending_.size();
  }
  /// Blocks the next refill will request (the adaptive controller's state).
  [[nodiscard]] std::uint32_t current_window() const noexcept {
    return window_size_;
  }

 private:
  BridgeClient* api_;
  std::uint64_t session_;
  BufferedStreamOptions options_;
  std::uint32_t window_size_ = 1;  ///< next refill size

  std::vector<std::vector<std::byte>> window_;  ///< prefetched blocks
  std::uint64_t window_first_ = 0;              ///< global no of window_[0]
  std::size_t window_pos_ = 0;                  ///< next unconsumed slot

  std::vector<std::vector<std::byte>> pending_;  ///< write-behind buffer
};

}  // namespace bridge::core
