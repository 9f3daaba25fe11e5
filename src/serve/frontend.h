#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/request.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "serve/wire.h"
#include "serve/wire_binary.h"
#include "util/net.h"
#include "util/status.h"

/// \file frontend.h
/// \brief NetFrontend: the network request layer over the serving stack.
///
/// Completes the serving story end to end:
///
///   client socket --> NetFrontend (poll loops) --> ShardedRegistry router
///       --> shard's SelNetServer --> BatchScheduler --> batched kernel
///       <-- EstimateResponse completion <-- (serialized) <-- write queue
///
/// Protocol: every connection starts as one JSON object per line (wire.h);
/// a hello exchange may switch it to the length-prefixed binary framing
/// (wire_binary.h) — both framings carry the same commands and error
/// taxonomy, and mixed JSON/binary connections coexist on one frontend.
/// The frontend owns `num_loops` event-loop threads, each multiplexing its
/// share of the connections through poll(); all model work happens on the
/// serving pools — a loop only parses requests, submits them, and flushes
/// completed responses, so the wire layer adds microseconds, not
/// milliseconds. With one loop (the default) behavior is exactly the
/// single-threaded frontend's. With more, either loop 0 accepts and deals
/// connections round-robin to the others (the sharded-acceptor default) or,
/// with `so_reuseport`, every loop owns its own SO_REUSEPORT listener and
/// the kernel balances accepts. Estimates decoded in one read round — JSON
/// lines and binary frames alike — reach the backend as ONE batch, so a
/// pipelining client's burst pays one scheduler lock, not one per request;
/// an admin command first flushes the estimates decoded before it.
///
/// Backpressure, per connection: at most `max_inflight_per_conn` submitted
/// requests may be unanswered at once. At the cap the loop simply stops
/// READING that socket (its POLLIN interest is dropped); the kernel's TCP
/// window then pushes back on the client. Responses drain -> reading
/// resumes. One greedy client therefore cannot queue unbounded work into a
/// shard, and well-behaved connections on the same frontend keep flowing.
///
/// Failure semantics (client input never kills the server):
///   * malformed JSON / unknown field / bad shape -> {"error":...} reply,
///     connection stays open;
///   * unknown model route -> {"error":...} reply (the registry's NotFound
///     text), connection stays open;
///   * overload shed (admission rejection, expired deadline) -> structured
///     {"error":...,"code":<shed reason>} reply, connection stays open. The
///     shard's admission check runs synchronously inside the backend submit
///     on this loop thread, at the end of the read round — a shed request
///     never touches a scheduler queue or a pool worker;
///   * request line longer than `max_line_bytes` -> error reply, connection
///     closed (a runaway writer, not a typo);
///   * client disconnect with responses in flight -> completions for that
///     connection are discarded under its lock; nothing dangles.
///
/// Shutdown: Stop() closes the listener, stops reading request bytes, waits
/// up to `drain_timeout_s` for in-flight responses to be computed AND
/// flushed to their sockets, then closes every connection and joins the
/// loop. Accepted work is answered; nothing new is admitted.

namespace selnet::serve {

struct AdminRequest;

/// \brief Frontend policy knobs.
struct FrontendConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read back via NetFrontend::port().
  size_t max_connections = 128;    ///< Beyond this, accepts are refused.
  size_t max_line_bytes = 1 << 20; ///< Oversized-request cutoff (1 MiB).
  size_t max_inflight_per_conn = 128;  ///< Backpressure cap.
  /// Second backpressure bound: stop reading a connection whose unflushed
  /// response bytes exceed this (a client that sends but never reads would
  /// otherwise grow the write queue without limit — inflight drains the
  /// moment the backend answers, so the inflight cap alone cannot see it).
  size_t max_write_backlog_bytes = 4 << 20;
  double drain_timeout_s = 10.0;   ///< Stop() waits this long for in-flight.
  /// Event-loop threads. 1 (the default) is the classic single-threaded
  /// frontend. More loops split the connections: each conn is owned by
  /// exactly one loop for its whole life, so every per-conn invariant
  /// (ordering, backpressure, drain) is still single-threaded.
  size_t num_loops = 1;
  /// With num_loops > 1: give every loop its own SO_REUSEPORT listener on
  /// the same port (kernel balances accepts) instead of the default sharded
  /// acceptor (loop 0 accepts and deals round-robin). Ignored when the
  /// platform lacks SO_REUSEPORT — the frontend falls back to the acceptor.
  bool so_reuseport = false;
};

/// \brief Point-in-time frontend counters.
struct FrontendStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< Over max_connections.
  uint64_t connections_dropped = 0;  ///< Peer reset / write failure (orderly
                                     ///  client EOFs do not count).
  uint64_t requests = 0;             ///< Lines successfully parsed+submitted.
  uint64_t responses = 0;  ///< Responses completed and queued to their
                           ///  socket (the peer may still vanish before the
                           ///  bytes flush).
  uint64_t parse_errors = 0;         ///< Malformed request lines.
  uint64_t request_errors = 0;       ///< Submitted but failed (bad route…).
  uint64_t oversized = 0;            ///< Lines over max_line_bytes.
  uint64_t backpressure_stalls = 0;  ///< Times a conn hit the inflight cap.
  uint64_t admin_requests = 0;       ///< {"cmd":...} lines answered.
  // Receiver-side state-transfer counters (the xfer_* admin family).
  uint64_t transfer_frames = 0;    ///< Frames accepted (CRC verified).
  uint64_t transfer_bytes = 0;     ///< Decoded payload bytes accepted.
  uint64_t transfer_crc_rejections = 0;  ///< Frame / whole-payload CRC fails.
  uint64_t transfer_installs = 0;  ///< xfer_commit publishes that stuck.
};

/// \brief Line-delimited JSON-over-TCP frontend for one serving backend.
class NetFrontend {
 public:
  /// \brief Serve a single server (no sharding).
  NetFrontend(const FrontendConfig& cfg, SelNetServer* server);
  /// \brief Serve a shard fleet (requests route by their model field).
  NetFrontend(const FrontendConfig& cfg, ShardedRegistry* registry);
  ~NetFrontend();

  NetFrontend(const NetFrontend&) = delete;
  NetFrontend& operator=(const NetFrontend&) = delete;

  /// \brief OK once the listener is bound and the loop is running; the bind
  /// error otherwise (port in use, bad address…).
  util::Status status() const;

  /// \brief The bound port (resolves an ephemeral request).
  uint16_t port() const { return port_; }

  /// \brief Graceful drain + stop (idempotent; also run by the destructor).
  void Stop();

  FrontendStats Stats() const;

  /// \brief The backend's fleet StatsSnapshot with the frontend's own encode
  /// histogram merged in — exactly what {"cmd":"stats"} serializes. Empty
  /// snapshot when the backend has no snapshot hook.
  StatsSnapshot FleetSnapshot() const;

  /// \brief StatsToJson(FleetSnapshot()).
  std::string StatsJson() const;

  /// \brief The full {"cmd":"metrics"} exposition text: the fleet snapshot
  /// rendered Prometheus-style (RenderStatsExposition), the frontend's own
  /// selnet_frontend_* / selnet_transfer_rx_* series, and the backend's
  /// registry text when the hook is set. Passes util::LintExposition.
  std::string MetricsText() const;

 private:
  struct Conn;

  /// The type-erased serving backend: how to submit one read round's
  /// decoded estimates, how to scrape a fleet StatsSnapshot
  /// ({"cmd":"stats"}), how to list retained slow spans ({"cmd":"slow"}),
  /// and the trace-sampling rate the frontend applies to wire requests (so
  /// the decode stage is captured before the server sees the request). Built
  /// fully-formed BEFORE the loop threads start, so a loop never races a
  /// half-initialized frontend.
  struct Backend {
    /// Per-request semantics (admission, deadlines, errors) are those of
    /// SubmitWith; a SelNetServer backend enqueues the whole round's
    /// scheduler rows under one lock (SelNetServer::SubmitMany).
    std::function<void(std::vector<SelNetServer::Submission>)> submit;
    std::function<StatsSnapshot()> snapshot;
    std::function<std::vector<SpanRecord>()> slow;
    /// Install a state-transferred model (the xfer_commit admin command):
    /// deserialize SaveModel-format bytes and publish under the route,
    /// returning the assigned version.
    std::function<util::Result<uint64_t>(const std::string& model,
                                         const std::string& bytes)>
        install;
    size_t trace_sample_every = 0;
    /// Prometheus-style registry text appended to the {"cmd":"metrics"}
    /// reply — a coordinator's health/failover/transfer series
    /// (ShardedRegistry::MetricsText). Null = the reply carries only the
    /// snapshot-derived and frontend-level series.
    std::function<std::string()> metrics;
    /// JSON array body for {"cmd":"events"} (the coordinator's health /
    /// transfer flight recorder). Null = the command gets an error reply.
    std::function<std::string()> events;
    /// Node identity stamped into FleetSnapshot when the backend's snapshot
    /// does not already carry one (plain SelNetServer backends; a
    /// ShardedRegistry stamps its own configured node_id).
    std::string node_id;
  };

  NetFrontend(const FrontendConfig& cfg, Backend backend);
  static Backend BackendFor(SelNetServer* server);
  static Backend BackendFor(ShardedRegistry* registry);

  /// Per-loop state that response completions touch. Held by shared_ptr and
  /// captured (via its Conn) into every completion: if Stop() times out with
  /// responses still in flight, a late completion lands on this, never on a
  /// destroyed frontend.
  struct LoopShared {
    util::WakePipe wake;
    /// Wake-arming: the loop sets `armed` just before polling; a completion
    /// only pays the pipe-write syscall if it observes (and clears) the
    /// armed flag. A burst of completions then costs ONE wakeup, not one
    /// syscall per response.
    std::atomic<bool> armed{false};
    /// Completion-side wakeup (see `armed`).
    void Wake() {
      if (armed.exchange(false, std::memory_order_acq_rel)) wake.Notify();
    }
  };

  /// One event loop: its thread, its connections, and (acceptor loop or
  /// SO_REUSEPORT mode) its listener. Everything here except `shared` and
  /// the handoff queue is touched only by the owning loop thread.
  struct LoopState {
    size_t index = 0;
    util::TcpListener listener;  ///< Valid on loop 0, or on all with reuseport.
    std::shared_ptr<LoopShared> shared;
    std::vector<std::shared_ptr<Conn>> conns;
    /// Connections accepted by another loop, awaiting adoption (sharded
    /// acceptor mode). Producer: loop 0. Consumer: this loop, each round.
    std::mutex handoff_mu;
    std::vector<std::shared_ptr<Conn>> handoff;
    /// Loop-thread-only position for 1-in-N decode-stage sampling.
    uint64_t trace_seq = 0;
    std::thread thread;  ///< Started last.
  };

  void Start();
  void Loop(LoopState* loop);
  void AcceptNew(LoopState* loop);
  /// Parse+submit buffered input for one connection, first pulling fresh
  /// socket bytes when `read_socket` (false on the stalled-conn re-scan:
  /// reading there would defeat the stop-reading backpressure). Dispatches
  /// on the connection's negotiated framing, re-dispatching mid-buffer when
  /// a hello flips it. Returns false when the connection is finished (EOF,
  /// oversize, error).
  bool HandleReadable(LoopState* loop, const std::shared_ptr<Conn>& conn,
                      bool read_socket);
  /// Consume complete JSON lines from the read buffer. False = close.
  bool ProcessJsonBuffer(LoopState* loop, const std::shared_ptr<Conn>& conn);
  /// Consume complete binary frames from the read buffer. False = close.
  bool ProcessBinaryBuffer(LoopState* loop, const std::shared_ptr<Conn>& conn);
  /// The backpressure gate both framings check before each line/frame: true
  /// (counting a stall on the transition) while the connection is at its
  /// inflight cap or write-backlog bound.
  bool Stalled(const std::shared_ptr<Conn>& conn);
  /// Enqueue the oversized-line error reply and mark the conn to close once
  /// it flushes (buffered request bytes are dropped).
  void RejectOversized(const std::shared_ptr<Conn>& conn);
  /// Flush as much of the write queue as the socket accepts. False = drop.
  bool HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Decode one JSON line: an admin line is answered inline, an estimate is
  /// appended to `batch` (a malformed one gets an error reply).
  void DecodeLine(LoopState* loop, const std::shared_ptr<Conn>& conn,
                  std::string line,
                  std::vector<SelNetServer::Submission>* batch);
  /// Decode one binary estimate frame into `batch` (or queue an error frame
  /// on decode failure). `now` anchors its relative deadline.
  void DecodeFrame(LoopState* loop, const std::shared_ptr<Conn>& conn,
                   const FrameHeader& hdr, const char* payload,
                   std::chrono::steady_clock::time_point now,
                   std::vector<SelNetServer::Submission>* batch);
  /// 1-in-N decode-stage sampling; null for the untraced majority.
  std::shared_ptr<RequestTrace> SampleTrace(LoopState* loop);
  /// The tail both framings share for a decoded estimate: attach the trace
  /// (sampled, or asked for by the wire), count it in flight, and append it
  /// with its completion to the read round's batch.
  void Enqueue(const std::shared_ptr<Conn>& conn, EstimateRequest req,
               WireProto proto, std::shared_ptr<RequestTrace> trace,
               std::chrono::steady_clock::time_point decode_start,
               std::vector<SelNetServer::Submission>* batch);
  /// Hand the requests decoded so far to the backend (one submit call) and
  /// empty `batch`.
  void FlushBatch(std::vector<SelNetServer::Submission>* batch);
  /// Build the completion that serializes + enqueues one response in the
  /// connection's negotiated framing.
  SelNetServer::ResponseFn MakeCompletion(
      const std::shared_ptr<Conn>& conn, uint64_t tag, WireProto proto,
      std::shared_ptr<RequestTrace> traced, bool wire_traced);
  /// Parse + dispatch one admin line, returning the reply line (no
  /// newline/framing) — shared by both framings. A throwing handler fails
  /// the command, never the loop thread.
  std::string AdminReplyFor(const std::shared_ptr<Conn>& conn,
                            const std::string& line);
  /// Route one parsed admin command to its handler; returns the reply line.
  std::string DispatchAdmin(const std::shared_ptr<Conn>& conn,
                            const AdminRequest& admin);
  /// One xfer_* state-transfer step against this connection's assembler;
  /// returns the reply line (ack or error).
  std::string HandleTransfer(const std::shared_ptr<Conn>& conn,
                             const AdminRequest& admin);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  bool DrainComplete(LoopState* loop);

  FrontendConfig cfg_;
  Backend backend_;
  uint16_t port_ = 0;
  util::Status bind_status_;

  /// Frontend-wide counters completions touch (conn-agnostic; per-conn
  /// completion state lives in each Conn's LoopShared).
  struct Shared {
    std::atomic<uint64_t> responses{0};
    std::atomic<uint64_t> request_errors{0};
    /// Encode (response serialization) latency of TRACED requests. Lives
    /// here because completions never touch the frontend itself; merged into
    /// the fleet snapshot's encode stage at scrape time.
    util::LatencyHistogram encode_hist;
  };
  std::shared_ptr<Shared> shared_;

  std::vector<std::unique_ptr<LoopState>> loops_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mu_;  ///< Serializes Stop() callers.

  // Loop-thread counters (atomic: with num_loops > 1 several loops bump
  // them; Stats() reads them from anywhere).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> oversized_{0};
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> admin_requests_{0};
  std::atomic<uint64_t> xfer_frames_{0};
  std::atomic<uint64_t> xfer_bytes_{0};
  std::atomic<uint64_t> xfer_crc_rejects_{0};
  std::atomic<uint64_t> xfer_installs_{0};
  /// Live connection count across all loops (max_connections is global).
  std::atomic<size_t> conn_count_{0};
  /// Sharded-acceptor round-robin cursor (loop 0 only, atomic for safety).
  std::atomic<uint64_t> accept_rr_{0};
  /// True when every loop owns a SO_REUSEPORT listener (accepts stay on the
  /// accepting loop); false = loop 0 deals connections round-robin.
  bool per_loop_listeners_ = false;
};

/// \brief One typed request for NetClient::Call — the versioned client
/// surface. `cmd` selects the command (wire.h registry); kEstimate reads
/// `estimate`, everything else reads the relevant `admin` fields (tag, the
/// xfer_* transfer fields…). The negotiated framing is applied underneath.
struct ClientCall {
  Command cmd = Command::kEstimate;
  EstimateRequest estimate;
  AdminRequest admin;
};

/// \brief The typed reply for NetClient::Call. Which fields are meaningful
/// depends on the command: kEstimate fills `estimate`; admin commands fill
/// `body` (the raw reply line) and, where the reply has structure, `text`
/// (kMetrics exposition), `stats` (kStatsWire), or `version` (ack replies —
/// health, xfer_commit). Server-side errors surface as the returned Status
/// (StatusFromWireError taxonomy), never as a reply field.
struct ClientReply {
  EstimateResponse estimate;
  std::string body;
  std::string text;
  StatsSnapshot stats;
  uint64_t version = 0;
};

/// \brief Minimal blocking client for the wire protocol (tests, the demo's
/// client mode, and the bench harness).
///
/// One request at a time: Call writes one request and blocks for ONE reply.
/// Pipelining clients should use ClientChannel (client_channel.h), which
/// correlates tagged out-of-order replies on one connection.
///
/// A fresh connection speaks JSON lines; Hello() negotiates the binary
/// framing when the server supports it and falls back to JSON against older
/// servers (the unknown-cmd error reply leaves the connection open).
class NetClient {
 public:
  NetClient() = default;

  util::Status Connect(const std::string& address, uint16_t port);

  /// \brief Drop the connection (if any) and dial the last Connect address
  /// again, discarding any half-read line. kUnavailable when the peer is not
  /// accepting (safe to retry after backoff — see util/backoff.h), kIoError
  /// otherwise. The caller owns the retry loop and its delays.
  util::Status Reconnect();

  void Close() { fd_.Close(); }
  bool connected() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// \brief Bound every subsequent receive: ReadLine (and the calls built on
  /// it) returns kDeadlineExceeded if no full line arrives within `ms`
  /// milliseconds of the call. 0 (the default) blocks forever. The clock
  /// starts at each ReadLine entry, not per read() — a server trickling
  /// bytes cannot extend it. On timeout the connection remains usable and
  /// any partial line stays buffered; a late reply is picked up by the next
  /// read (or discarded with Close()).
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_ = ms; }
  int recv_timeout_ms() const { return recv_timeout_ms_; }

  /// \brief Negotiate the wire framing for this connection. Sends the hello
  /// line; on a binary ack every subsequent Call speaks binary frames. An
  /// older server's unknown-cmd error reply is a clean JSON fallback (OK
  /// status, proto() stays kJson); only transport failures return non-OK.
  /// Reconnect resets the framing to JSON.
  util::Status Hello(WireProto preferred = WireProto::kBinary,
                     uint8_t max_version = kWireVersion);

  /// \brief The framing this connection currently speaks.
  WireProto proto() const { return proto_; }

  /// \brief ONE typed round trip: serialize `call` in the negotiated
  /// framing, send, await and parse the reply. This is the client surface
  /// for every command except kHello (negotiate with Hello()). A server-side
  /// error reply to an estimate surfaces as the returned Status.
  util::Result<ClientReply> Call(const ClientCall& call);

  /// \brief Send raw bytes (failure-path tests craft malformed input).
  util::Status SendRaw(const std::string& bytes);

  /// \brief Block until one full line arrives (without the '\n').
  util::Result<std::string> ReadLine();

  /// \brief Block until one full binary frame arrives; returns its payload
  /// with the header in `*hdr`. Same timeout contract as ReadLine.
  util::Result<std::string> ReadFrame(FrameHeader* hdr);

 private:
  /// Fill rbuf_ until `need` buffered bytes exist (frame reads).
  util::Status FillBuffer(size_t need);
  /// One admin round trip in the negotiated framing; returns the reply line.
  util::Result<std::string> AdminRoundtrip(const std::string& line,
                                           uint64_t tag);

  util::Fd fd_;
  std::string rbuf_;  ///< Bytes past the last consumed line/frame.
  int recv_timeout_ms_ = 0;  ///< 0 = no receive bound.
  std::string address_;      ///< Last Connect target, for Reconnect.
  uint16_t port_ = 0;
  WireProto proto_ = WireProto::kJson;  ///< Negotiated framing (Hello).
};

}  // namespace selnet::serve
