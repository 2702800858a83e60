// Typed, latency-aware message channel.
//
// A Channel<T> is an unbounded FIFO of timestamped items.  send() enqueues an
// item that becomes visible at `now + latency`; recv() blocks the calling
// simulated process until an item has arrived.  Channels are the only
// inter-process communication primitive in the simulation; the byte-level
// Mailbox used for RPC is a Channel<Envelope>.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/sim/scheduler.hpp"
#include "src/sim/time.hpp"
#include "src/sim/timed_queue.hpp"

namespace bridge::sim {

template <typename T>
class Channel {
 public:
  /// `node` is the location of the receiving end; the Runtime uses it to
  /// compute message latency.
  Channel(Scheduler& sched, NodeId node) : sched_(sched), node_(node) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Undelivered items still hold race-detector clock snapshots; release
  /// them so tearing down an abandoned channel does not leak tokens.
  ~Channel() {
    while (!items_.empty()) {
      sched_.race_on_drop(items_.top().race_token);
      items_.pop();
    }
  }

  [[nodiscard]] NodeId node() const noexcept { return node_; }

  /// Enqueue `value`, visible to receivers at now + latency.  Callable from
  /// any simulated process (or the controller before run()).
  ///
  /// Deliveries are FIFO per sender: a message never overtakes an earlier
  /// message from the same process, even if its modeled latency is smaller
  /// (smaller payloads would otherwise leapfrog large ones, which real
  /// per-source FIFO links do not do).
  void send(T value, SimTime latency = SimTime(0)) {
    SimTime at = sched_.now() + latency;
    Process* sender = sched_.current();
    ProcessId sender_id = sender == nullptr ? 0 : sender->id();
    auto [it, inserted] = last_delivery_.try_emplace(sender_id, at);
    if (!inserted) {
      at = std::max(at, it->second);
      it->second = at;
    }
    // Happens-before edge for the race detector: the item carries a snapshot
    // of the sender's vector clock, joined into the receiver's on delivery.
    std::uint64_t race_token = sched_.race_on_send();
    items_.push(Item{at, next_seq_++, std::move(value), race_token});
    // Wake every parked receiver at the delivery time; stale-epoch filtering
    // makes redundant wakes harmless.
    for (Process* waiter : waiters_) {
      sched_.schedule_wake(*waiter, at);
    }
  }

  /// Block until an item is available, then return it.
  T recv() {
    Process* self = sched_.current();
    while (true) {
      if (!items_.empty() && items_.top().at <= sched_.now()) {
        T value = std::move(items_.top().value);
        sched_.race_on_recv(items_.top().race_token);
        items_.pop();
        return value;
      }
      waiters_.push_back(self);
      if (!items_.empty()) {
        // An item is in flight; make sure somebody wakes us when it lands.
        sched_.schedule_wake(*self, items_.top().at);
      }
      sched_.park_current();
      remove_waiter(self);
    }
  }

  /// Receive with a deadline: blocks until an item is available or `timeout`
  /// of virtual time has elapsed, whichever is first.  Returns nullopt on
  /// timeout.  Used by workers that must not park forever when a controller
  /// abandons them.
  std::optional<T> recv_for(SimTime timeout) {
    Process* self = sched_.current();
    SimTime deadline = sched_.now() + timeout;
    while (true) {
      if (!items_.empty() && items_.top().at <= sched_.now()) {
        T value = std::move(items_.top().value);
        sched_.race_on_recv(items_.top().race_token);
        items_.pop();
        return value;
      }
      if (sched_.now() >= deadline) return std::nullopt;
      waiters_.push_back(self);
      // Wake at the earlier of the next delivery and the deadline.
      SimTime wake_at = deadline;
      if (!items_.empty() && items_.top().at < wake_at) {
        wake_at = items_.top().at;
      }
      sched_.schedule_wake(*self, wake_at);
      sched_.park_current();
      remove_waiter(self);
    }
  }

  /// Non-blocking receive of an already-delivered item.
  std::optional<T> try_recv() {
    if (!items_.empty() && items_.top().at <= sched_.now()) {
      T value = std::move(items_.top().value);
      sched_.race_on_recv(items_.top().race_token);
      items_.pop();
      return value;
    }
    return std::nullopt;
  }

  /// Number of items enqueued (delivered or still in flight).
  [[nodiscard]] std::size_t pending() const { return items_.size(); }

 private:
  struct Item {
    SimTime at;
    std::uint64_t seq;
    T value;
    std::uint64_t race_token = 0;  ///< sender clock snapshot (0 = none)
  };

  void remove_waiter(Process* self) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == self) {
        waiters_.erase(it);
        return;
      }
    }
  }

  Scheduler& sched_;
  NodeId node_;
  TimedMinQueue<Item> items_;
  std::vector<Process*> waiters_;
  std::unordered_map<ProcessId, SimTime> last_delivery_;  ///< per-sender FIFO
  std::uint64_t next_seq_ = 0;
};

}  // namespace bridge::sim
