#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/wire.h"
#include "serve/wire_binary.h"
#include "util/net.h"
#include "util/status.h"

/// \file client_channel.h
/// \brief ClientChannel: one pipelined data connection speaking the
/// SelNetServer submit contract, over either wire framing.
///
/// This is the client core the RemoteShard data path is built on (and what
/// the bench harness drives for wire throughput): every Call serializes its
/// request with an internal correlation tag and returns; one reader thread
/// matches replies — arriving in ANY order, the remote scheduler batches
/// across requests — back to their pending completions by tag, restoring
/// the caller's own tag before the completion fires.
///
/// Framing: Connect performs the hello negotiation. A server that acks
/// binary gets length-prefixed frames both ways (wire_binary.h); an older
/// server's unknown-cmd error reply is a clean fallback to JSON lines, so a
/// mixed-version fleet interoperates during rollout. The negotiated framing
/// is fixed for the connection's lifetime.
///
/// Writes are flush-combined: concurrent Calls append to one pending-bytes
/// queue and exactly one caller drains it per burst, so N threads submitting
/// simultaneously cost a handful of write syscalls, not N. CallMany
/// registers and serializes a whole batch before queueing — one syscall for
/// a pipelined burst.
///
/// Failure taxonomy (identical to the RemoteShard contract — see
/// remote_shard.h for the full retry-vs-fail discussion), delivered through
/// the completion's exception_ptr:
///   * RemoteError(kUnavailable)     — never sent / remote shed it.
///   * RemoteError(kIoError)         — connection died with it in flight.
///   * RemoteError(kDeadlineExceeded)— no reply within recv_timeout_ms.
///   * RemoteError(kNotFound)        — remote lacks the route.
///   * OverloadError(kDeadlineExpired) — the request's own deadline passed.
/// Every accepted Call fires its completion exactly once; a timed-out
/// entry's late reply finds no pending entry and is discarded.

namespace selnet::serve {

/// \brief Typed wire/transport failure, carrying the util::StatusCode the
/// failover layer keys its retry decision on.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(util::StatusCode code, const std::string& msg)
      : std::runtime_error(msg), code_(code) {}

  util::StatusCode code() const { return code_; }

 private:
  util::StatusCode code_;
};

/// \brief Where the peer lives and how to talk to it.
struct ClientChannelConfig {
  std::string address = "127.0.0.1";
  uint16_t port = 0;
  /// Framing to ask for in the hello. kJson skips the hello entirely
  /// (byte-compatible with pre-negotiation servers).
  WireProto preferred_proto = WireProto::kBinary;
  /// Per-request reply bound: a submitted request with no reply after this
  /// long fails with RemoteError(kDeadlineExceeded) (gray-peer detector).
  /// <= 0 disables the bound — only the request's own deadline applies.
  int recv_timeout_ms = 2000;
  /// Bound on the hello round trip during Connect.
  int hello_timeout_ms = 5000;
};

/// \brief One pipelined request/reply connection (the SelNetServer submit
/// contract over the wire). Thread-safe: any thread may Call concurrently.
class ClientChannel {
 public:
  explicit ClientChannel(const ClientChannelConfig& cfg);
  ~ClientChannel();

  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  const ClientChannelConfig& config() const { return cfg_; }

  /// \brief "address:port", for error messages and reports.
  std::string endpoint() const;

  /// \brief (Re)dial, negotiate the framing, and start the reader. Any
  /// previous connection is torn down first (its in-flight requests fail
  /// with kIoError). kUnavailable when the peer is not accepting.
  util::Status Connect();

  /// \brief Drop the connection; every pending completion fires with
  /// RemoteError(kIoError). Idempotent.
  void Close();

  /// \brief True between a successful Connect and the first transport
  /// failure (or Close). False fails Call immediately with kUnavailable —
  /// the owner decides reconnect policy.
  bool up() const { return up_.load(std::memory_order_acquire); }

  /// \brief The framing this connection negotiated (meaningful while up).
  WireProto proto() const { return proto_; }

  /// \brief Pipelined submit: serialize + queue the request and return. The
  /// completion fires exactly once, from this thread (immediate failure or
  /// transport loss) or the reader thread (reply, timeout, disconnect).
  void Call(EstimateRequest req, SelNetServer::ResponseFn done);

  /// \brief Submit a batch: every request is registered and serialized up
  /// front, then the whole burst is queued as one contiguous write.
  void CallMany(std::vector<SelNetServer::Submission> batch);

  /// \brief Requests currently awaiting a reply (tests, reports).
  size_t pending() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    SelNetServer::ResponseFn done;
    uint64_t caller_tag = 0;
    /// Earliest of the request's own deadline and the recv-timeout bound
    /// (epoch = unbounded).
    Clock::time_point expires{};
    /// The expiry above IS the request's deadline — deliver OverloadError,
    /// not a retryable timeout.
    bool expiry_is_request_deadline = false;
    /// The caller's trace, when sampled: the remote's stage block merges
    /// into it as the remote_* stages at completion.
    std::shared_ptr<RequestTrace> trace;
    /// Submit time — remote_wire is completion minus this.
    Clock::time_point sent{};
  };

  void ReaderLoop();
  /// Match one JSON reply line to its pending entry and complete it.
  void HandleLine(const std::string& line);
  /// Match one binary frame to its pending entry and complete it.
  void HandleFrame(const FrameHeader& hdr, const char* payload);
  /// The shared completion path: restore the caller tag, merge the trace,
  /// map the status onto the failure taxonomy, fire exactly once.
  void CompleteReply(uint64_t wire_tag, EstimateResponse resp,
                     util::Status st);
  /// Fail every pending entry with RemoteError(code, msg) and mark the
  /// channel down. Callbacks run outside the lock.
  void FailAllPending(util::StatusCode code, const std::string& msg);
  /// Drain the write queue (flush-combining: the caller that set writing_).
  /// False on transport failure.
  bool FlushQueued();

  ClientChannelConfig cfg_;

  mutable std::mutex mu_;  ///< pending_, next_tag_, fd_ lifecycle.
  /// Serializes socket writes and pins fd_ across one write: Close closes
  /// the descriptor only under this lock, so a writer that re-validates fd_
  /// while holding it can never race a close (or a reused fd number). Lock
  /// order where both are held: write_mu_ -> mu_.
  std::mutex write_mu_;
  util::Fd fd_;
  std::map<uint64_t, Pending> pending_;
  uint64_t next_tag_ = 1;  ///< 0 means "untagged" on the wire; never issued.
  bool reader_stop_ = false;

  std::atomic<bool> up_{false};
  /// Negotiated framing. Written by Connect before the reader starts (no
  /// concurrent Calls are valid mid-Connect), constant afterwards.
  WireProto proto_ = WireProto::kJson;
  /// Bytes read past the hello reply, handed to the reader's buffer.
  std::string seed_;
  /// When the reader's current (or next) poll wakes on its own: the
  /// earliest pending expiry, or one recv timeout after it went idle (a new
  /// recv-timeout expiry is never earlier, so only an earlier request
  /// deadline needs a nudge). Guarded by mu_.
  Clock::time_point armed_expiry_ = Clock::time_point::max();
  util::WakePipe wake_;  ///< Call -> reader: an expiry precedes armed_expiry_.
  std::thread reader_;

  /// Flush-combined write queue: Call appends; the first appender of a
  /// burst becomes the flusher and swap-drains until empty.
  std::mutex wq_mu_;
  std::string wq_;
  bool writing_ = false;
};

}  // namespace selnet::serve
