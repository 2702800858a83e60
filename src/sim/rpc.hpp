// Request/reply messaging over mailboxes.
//
// Every Bridge and EFS service is a simulated process that owns a Mailbox (a
// Channel of byte Envelopes) and serves typed requests.  The wire format is
// produced by util::serde, so payloads are genuine byte strings — nothing is
// smuggled through shared pointers except the mailbox addresses themselves.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/serde.hpp"
#include "src/util/status.hpp"

namespace bridge::sim {

class Mailbox;

/// Location of a service: its mailbox plus the node it lives on (the node
/// determines message latency).
struct Address {
  Mailbox* box = nullptr;
  NodeId node = 0;

  [[nodiscard]] bool valid() const noexcept { return box != nullptr; }
  friend bool operator==(const Address& a, const Address& b) noexcept {
    return a.box == b.box;
  }
};

/// One message.  `type` identifies the request/reply kind (each protocol
/// defines its own enum); `correlation` matches replies to calls.
///
/// Two observability fields ride along (set by post(), free on the modeled
/// wire): `trace` is the sender's trace context so servers can parent their
/// service spans under the caller's span, and `sent_at` is the virtual send
/// time so receivers can split queue wait from service time.
struct Envelope {
  std::uint32_t type = 0;
  std::uint64_t correlation = 0;
  Address reply_to;
  std::vector<std::byte> payload;
  obs::TraceContext trace;
  SimTime sent_at{0};
};

/// Modeled fixed wire overhead of an envelope (headers, addressing).
inline constexpr std::size_t kEnvelopeOverheadBytes = 24;

/// Serialize an Address into a payload.  Within the simulation an address is
/// a capability (mailbox pointer + node); on a real network this would be a
/// host/port pair.  The Get Info reply and parallel-open worker lists carry
/// these.
void encode_address(util::Writer& w, const Address& addr);
Address decode_address(util::Reader& r);

class Mailbox : public Channel<Envelope> {
 public:
  using Channel<Envelope>::Channel;
  [[nodiscard]] Address address() noexcept { return Address{this, node()}; }
};

inline void encode_address(util::Writer& w, const Address& addr) {
  w.u64(reinterpret_cast<std::uintptr_t>(addr.box));
  w.u32(addr.node);
}

inline Address decode_address(util::Reader& r) {
  Address addr;
  addr.box = reinterpret_cast<Mailbox*>(static_cast<std::uintptr_t>(r.u64()));
  addr.node = r.u32();
  return addr;
}

/// Deliver `env` to `dst`, modeling latency and accounting traffic.  The
/// sender's trace context and the virtual send time are stamped on the
/// envelope here, so every RPC boundary propagates them for free.
inline void post(const Context& ctx, const Address& dst, Envelope env) {
  std::size_t bytes = env.payload.size() + kEnvelopeOverheadBytes;
  SimTime latency =
      ctx.runtime().topology().message_latency(ctx.node(), dst.node, bytes);
  ctx.runtime().account_message(ctx.node(), dst.node, bytes);
  env.sent_at = ctx.now();
  obs::Tracer& tracer = ctx.runtime().tracer();
  if (tracer.enabled()) env.trace = tracer.current_context(ctx.pid());
  // Request attribution rides on every envelope regardless of tracing: the
  // receiver adopts the id so its queue/service time lands on the right
  // ledger row.  Free on the modeled wire (kEnvelopeOverheadBytes is fixed).
  env.trace.request_id = ctx.runtime().stages().active_request(ctx.pid());
  dst.box->send(std::move(env), latency);
}

/// Reply payloads carry a status prefix followed by the response body.
inline std::vector<std::byte> make_reply_payload(
    const util::Status& status, std::span<const std::byte> body = {}) {
  util::Writer w(body.size() + 16);
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str(status.message());
  w.raw(body);
  return std::move(w).take();
}

/// Split a reply payload back into status + body bytes.
inline util::Result<std::vector<std::byte>> parse_reply_payload(
    std::span<const std::byte> payload) {
  util::Reader r(payload);
  auto code = static_cast<util::ErrorCode>(r.u8());
  std::string message = r.str();
  if (code != util::ErrorCode::kOk) {
    return util::Status(code, std::move(message));
  }
  auto rest = r.raw(r.remaining());
  return std::vector<std::byte>(rest.begin(), rest.end());
}

/// Server-side helper: send a status+body reply for `request`.
inline void send_reply(const Context& ctx, const Envelope& request,
                       const util::Status& status,
                       std::span<const std::byte> body = {}) {
  if (!status.is_ok()) {
    // Error replies are rare enough to account per occurrence: the USE
    // report's "errors" column and the flight recorder both read them.
    ctx.runtime()
        .metrics()
        .counter("rpc.n" + std::to_string(ctx.node()) + ".error_replies")
        .add(1);
    ctx.runtime().flight().record(ctx.now().us(), ctx.node(), "rpc.error",
                                  status.to_string());
  }
  Envelope reply;
  reply.type = request.type;
  reply.correlation = request.correlation;
  reply.payload = make_reply_payload(status, body);
  post(ctx, request.reply_to, std::move(reply));
}

/// Client-side call helper.  Each client process stacks one of these; it owns
/// the reply mailbox for the lifetime of the process.
class RpcClient {
 public:
  explicit RpcClient(Context& ctx)
      : ctx_(ctx),
        reply_box_(ctx.runtime().scheduler(), ctx.node()),
        wait_us_(&ctx.runtime().metrics().histogram(
            "rpc.n" + std::to_string(ctx.node()) + ".wait_us")) {}

  /// Issue `type(request_bytes)` to `service` and block for the reply.
  /// Returns the reply body, or the error status the server sent.
  util::Result<std::vector<std::byte>> call(const Address& service,
                                            std::uint32_t type,
                                            std::span<const std::byte> request) {
    // Root span for the round trip: if the caller has no span open this
    // starts a fresh trace, and the callee's spans parent under it.
    ScopedSpan span(ctx_, "rpc.call");
    std::uint64_t corr = next_correlation_++;
    Envelope env;
    env.type = type;
    env.correlation = corr;
    env.reply_to = reply_box_.address();
    env.payload.assign(request.begin(), request.end());
    post(ctx_, service, std::move(env));
    return wait_reply(corr);
  }

  /// Fire-and-forget request carrying this client's reply address (the
  /// callee may reply later; pair with wait_reply).
  std::uint64_t call_async(const Address& service, std::uint32_t type,
                           std::span<const std::byte> request) {
    std::uint64_t corr = next_correlation_++;
    Envelope env;
    env.type = type;
    env.correlation = corr;
    env.reply_to = reply_box_.address();
    env.payload.assign(request.begin(), request.end());
    post(ctx_, service, std::move(env));
    return corr;
  }

  /// Block for the reply to a specific call_async correlation id.  Replies
  /// to other outstanding calls that arrive first are stashed, not dropped.
  util::Result<std::vector<std::byte>> wait_reply(std::uint64_t correlation) {
    for (auto it = stash_.begin(); it != stash_.end(); ++it) {
      if (it->correlation == correlation) {
        Envelope reply = std::move(*it);
        stash_.erase(it);
        return parse_reply_payload(reply.payload);
      }
    }
    // Blocked time per node: a bridge server's reply waits measure how long
    // it spent blocked on its LFS calls, which the report subtracts from its
    // service time to get the server's own (exclusive) busy share.
    std::int64_t wait_start_us = ctx_.now().us();
    while (true) {
      Envelope reply = reply_box_.recv();
      if (reply.correlation != correlation) {
        stash_.push_back(std::move(reply));
        continue;
      }
      wait_us_->record(
          static_cast<std::uint64_t>(ctx_.now().us() - wait_start_us));
      return parse_reply_payload(reply.payload);
    }
  }

  [[nodiscard]] Address reply_address() noexcept { return reply_box_.address(); }
  [[nodiscard]] Context& context() const noexcept { return ctx_; }

 private:
  Context& ctx_;
  Mailbox reply_box_;
  obs::Histogram* wait_us_;
  std::vector<Envelope> stash_;
  std::uint64_t next_correlation_ = 1;
};

/// Fan-out helper: issue N calls, then collect the replies — which may
/// arrive in any order — without correlation bookkeeping at the call site.
///
/// A call may carry a completion: it takes the call's reply and returns a
/// status.  wait_all() first waits for every reply, inside one
/// rpc.batch_wait span, and only then runs the completions, in issue order
/// and outside the span — so the CPU a completion charges lands after the
/// slowest reply.  Element i of its result is call i's reply or, for a call
/// with a completion, that completion's status (an empty body when ok).
///
/// Every reply is drained, so an error in one call never leaves stray
/// replies queued against the client for a later operation to trip over.
/// A batch destroyed with calls in flight drains them (without running
/// their completions), unless its process is unwinding from teardown and
/// cannot park again.  A teardown that comes while the destructor drains
/// unwinds out of it, so the destructor may throw.
class AsyncBatch {
 public:
  using Reply = util::Result<std::vector<std::byte>>;
  using Completion = std::function<util::Status(Reply)>;

  explicit AsyncBatch(RpcClient& rpc) : rpc_(&rpc) {}
  AsyncBatch(const AsyncBatch&) = delete;
  AsyncBatch& operator=(const AsyncBatch&) = delete;
  ~AsyncBatch() noexcept(false) {
    if (std::uncaught_exceptions() > 0) return;
    for (const auto& call : calls_) {
      (void)rpc_->wait_reply(call.correlation);  // its owner has moved on
    }
  }

  /// Issue one call; returns its index within the batch.
  std::size_t call(const Address& service, std::uint32_t type,
                   std::span<const std::byte> request, Completion done = {}) {
    calls_.push_back(
        {rpc_->call_async(service, type, request), std::move(done)});
    return calls_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return calls_.size(); }

  /// Block until every reply has arrived, then run the completions.
  std::vector<Reply> wait_all() {
    std::vector<Reply> results;
    results.reserve(calls_.size());
    {
      // The gap between the fan-out and the slowest reply.
      ScopedSpan span(rpc_->context(), "rpc.batch_wait");
      for (const auto& call : calls_) {
        results.push_back(rpc_->wait_reply(call.correlation));
      }
    }
    std::vector<Call> calls = std::move(calls_);
    calls_.clear();  // a completion may issue into the batch again
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (!calls[i].done) continue;
      util::Status st = calls[i].done(std::move(results[i]));
      results[i] = st.is_ok() ? Reply(std::vector<std::byte>{}) : Reply(st);
    }
    return results;
  }

  /// wait_all(), reporting the first failure among replies and completions
  /// (ok if all succeeded).
  util::Status wait_all_ok() {
    util::Status first = util::ok_status();
    for (auto& result : wait_all()) {
      if (!result.is_ok() && first.is_ok()) first = result.status();
    }
    return first;
  }

 private:
  struct Call {
    std::uint64_t correlation;
    Completion done;
  };

  RpcClient* rpc_;
  std::vector<Call> calls_;
};

}  // namespace bridge::sim
