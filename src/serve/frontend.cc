#include "serve/frontend.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/admission.h"
#include "serve/remote_shard.h"
#include "serve/state_transfer.h"
#include "serve/wire.h"
#include "util/base64.h"
#include "util/logging.h"

namespace selnet::serve {

using util::Result;
using util::Status;

namespace {

/// Client-safe text for a failed request's error reply.
std::string ErrorText(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "request failed";
  }
}

/// True when the failure is a typed route-not-found. Serialized with code
/// "not_found" so a remote router can tell "this replica doesn't hold the
/// route" (retryable: another replica may) from a deterministic request
/// failure — without string-matching the message.
bool IsNotFound(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const RouteNotFoundError&) {
    return true;
  } catch (const RemoteError& e) {
    return e.code() == util::StatusCode::kNotFound;
  } catch (...) {
    return false;
  }
}

}  // namespace

/// One accepted connection. The owning loop thread has exclusive use of
/// fd/rbuf/proto; `mu` guards the fields that completion callbacks (pool
/// workers) touch. Held by shared_ptr so a completion arriving after the
/// connection died writes into a harmless orphan instead of freed memory.
struct NetFrontend::Conn {
  util::Fd fd;
  std::string rbuf;  ///< Loop-thread only: bytes before the next line/frame.
  /// Negotiated framing (loop-thread only: flipped by the hello handler,
  /// read by the input dispatch; completions get the value they were built
  /// with and never look here).
  WireProto proto = WireProto::kJson;
  /// Owning loop's completion-side wakeup. Set before the conn is visible
  /// to any loop, constant afterwards.
  std::shared_ptr<LoopShared> loop;

  std::mutex mu;
  std::string wbuf;       ///< Serialized response bytes awaiting the socket.
  size_t wbuf_off = 0;    ///< Flushed prefix of wbuf.
  size_t inflight = 0;    ///< Submitted, not yet completed.
  bool closed = false;    ///< Loop dropped it; completions must discard.
  bool close_after_flush = false;  ///< Oversize: deliver the error, then close.
  bool stalled = false;   ///< Currently parked at the inflight cap.
  bool orderly = false;   ///< Finished cleanly (EOF / server-initiated close),
                          ///  not a peer reset — keeps the dropped counter
                          ///  meaning what it says.

  /// In-progress state transfer on this connection (loop-thread only, like
  /// rbuf). Dies with the connection: a sender that vanishes mid-transfer
  /// leaks nothing and publishes nothing.
  TransferAssembler xfer;
};

// The delegating constructors build the whole Backend BEFORE the real
// constructor starts the loop threads — assigning hooks after delegation
// would race the already-running loops.
NetFrontend::Backend NetFrontend::BackendFor(SelNetServer* server) {
  Backend b;
  b.submit = [server](std::vector<SelNetServer::Submission> batch) {
    server->SubmitMany(std::move(batch));
  };
  b.snapshot = [server] { return server->stats().Snapshot(); };
  b.slow = [server] { return server->stats().SlowSpans(); };
  b.install = [server](const std::string& model, const std::string& bytes) {
    return server->PublishFromBytes(model, bytes, "state transfer");
  };
  b.trace_sample_every = server->config().trace_sample_every;
  return b;
}

NetFrontend::Backend NetFrontend::BackendFor(ShardedRegistry* registry) {
  Backend b;
  b.submit = [registry](std::vector<SelNetServer::Submission> batch) {
    for (SelNetServer::Submission& s : batch) {
      registry->SubmitWith(std::move(s.req), std::move(s.done));
    }
  };
  b.snapshot = [registry] { return registry->AggregateSnapshot(); };
  b.slow = [registry] { return registry->SlowSpans(); };
  b.install = [registry](const std::string& model, const std::string& bytes) {
    return registry->PublishFromBytes(model, bytes, "state transfer");
  };
  b.trace_sample_every = registry->config().server.trace_sample_every;
  b.metrics = [registry] { return registry->MetricsText(); };
  b.events = [registry] { return registry->EventsJson(); };
  b.node_id = registry->config().node_id;
  return b;
}

NetFrontend::NetFrontend(const FrontendConfig& cfg, SelNetServer* server)
    : NetFrontend(cfg, BackendFor(server)) {}

NetFrontend::NetFrontend(const FrontendConfig& cfg, ShardedRegistry* registry)
    : NetFrontend(cfg, BackendFor(registry)) {}

NetFrontend::NetFrontend(const FrontendConfig& cfg, Backend backend)
    : cfg_(cfg), backend_(std::move(backend)),
      shared_(std::make_shared<Shared>()) {
  if (cfg_.num_loops == 0) cfg_.num_loops = 1;
  per_loop_listeners_ = cfg_.so_reuseport && cfg_.num_loops > 1;
  util::TcpListener primary;
  bind_status_ = primary.Listen(cfg_.bind_address, cfg_.port, 64,
                                per_loop_listeners_);
  if (per_loop_listeners_ && !bind_status_.ok()) {
    // No SO_REUSEPORT here (or the kernel refused): fall back to the
    // sharded acceptor rather than failing the frontend.
    per_loop_listeners_ = false;
    bind_status_ = primary.Listen(cfg_.bind_address, cfg_.port, 64, false);
  }
  if (!bind_status_.ok()) return;
  port_ = primary.port();
  if (backend_.node_id.empty()) {
    // Default process identity: the bound endpoint. A shard_node's scraped
    // snapshot then names itself without any extra configuration.
    backend_.node_id = cfg_.bind_address + ":" + std::to_string(port_);
  }
  loops_.reserve(cfg_.num_loops);
  for (size_t i = 0; i < cfg_.num_loops; ++i) {
    auto loop = std::make_unique<LoopState>();
    loop->index = i;
    loop->shared = std::make_shared<LoopShared>();
    if (!loop->shared->wake.valid()) {
      bind_status_ = Status::IOError("NetFrontend: wake pipe unavailable");
      loops_.clear();
      return;
    }
    if (i == 0) {
      loop->listener = std::move(primary);
    } else if (per_loop_listeners_) {
      Status st = loop->listener.Listen(cfg_.bind_address, port_, 64, true);
      if (!st.ok()) {
        bind_status_ = st;
        loops_.clear();
        return;
      }
    }
    loops_.push_back(std::move(loop));
  }
  // Threads start only after every LoopState exists: loop 0's acceptor may
  // hand a connection to any other loop on its first round.
  for (auto& loop : loops_) {
    LoopState* lp = loop.get();
    lp->thread = std::thread([this, lp] { Loop(lp); });
  }
}

NetFrontend::~NetFrontend() { Stop(); }

Status NetFrontend::status() const { return bind_status_; }

void NetFrontend::Stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_.load()) return;
  stopping_.store(true);
  for (auto& loop : loops_) loop->shared->wake.Notify();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  stopped_.store(true);
}

FrontendStats NetFrontend::Stats() const {
  FrontendStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_refused = refused_.load(std::memory_order_relaxed);
  s.connections_dropped = dropped_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = shared_->responses.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.request_errors = shared_->request_errors.load(std::memory_order_relaxed);
  s.oversized = oversized_.load(std::memory_order_relaxed);
  s.backpressure_stalls = stalls_.load(std::memory_order_relaxed);
  s.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  s.transfer_frames = xfer_frames_.load(std::memory_order_relaxed);
  s.transfer_bytes = xfer_bytes_.load(std::memory_order_relaxed);
  s.transfer_crc_rejections = xfer_crc_rejects_.load(std::memory_order_relaxed);
  s.transfer_installs = xfer_installs_.load(std::memory_order_relaxed);
  return s;
}

StatsSnapshot NetFrontend::FleetSnapshot() const {
  StatsSnapshot snap;
  if (backend_.snapshot) snap = backend_.snapshot();
  // The backend never sees encode (serialization happens in the completion,
  // after the server closed the span); merge the frontend's own histogram
  // into that stage so the wire view covers the full pipeline.
  util::HistogramSnapshot encode = shared_->encode_hist.Snapshot();
  if (!encode.empty()) {
    if (snap.stage_hists.size() < kNumStages) {
      snap.stage_hists.resize(kNumStages);
    }
    snap.stage_hists[size_t(Stage::kEncode)].Merge(encode);
  }
  if (snap.node_id.empty()) snap.node_id = backend_.node_id;
  return snap;
}

std::string NetFrontend::StatsJson() const {
  return StatsToJson(FleetSnapshot());
}

std::string NetFrontend::MetricsText() const {
  std::string text;
  if (backend_.snapshot) text += RenderStatsExposition(FleetSnapshot());
  const FrontendStats fs = Stats();
  auto counter = [&text](const char* name, const char* labels, uint64_t v) {
    text += name;
    text += labels;
    text += ' ';
    text += std::to_string(v);
    text += '\n';
  };
  text += "# TYPE selnet_frontend_connections_total counter\n";
  counter("selnet_frontend_connections_total", "{event=\"accepted\"}",
          fs.connections_accepted);
  counter("selnet_frontend_connections_total", "{event=\"refused\"}",
          fs.connections_refused);
  counter("selnet_frontend_connections_total", "{event=\"dropped\"}",
          fs.connections_dropped);
  text += "# TYPE selnet_frontend_requests_total counter\n";
  counter("selnet_frontend_requests_total", "", fs.requests);
  text += "# TYPE selnet_frontend_responses_total counter\n";
  counter("selnet_frontend_responses_total", "", fs.responses);
  text += "# TYPE selnet_frontend_parse_errors_total counter\n";
  counter("selnet_frontend_parse_errors_total", "", fs.parse_errors);
  text += "# TYPE selnet_frontend_request_errors_total counter\n";
  counter("selnet_frontend_request_errors_total", "", fs.request_errors);
  text += "# TYPE selnet_frontend_backpressure_stalls_total counter\n";
  counter("selnet_frontend_backpressure_stalls_total", "",
          fs.backpressure_stalls);
  text += "# TYPE selnet_frontend_admin_requests_total counter\n";
  counter("selnet_frontend_admin_requests_total", "", fs.admin_requests);
  text += "# TYPE selnet_transfer_rx_frames_total counter\n";
  counter("selnet_transfer_rx_frames_total", "", fs.transfer_frames);
  text += "# TYPE selnet_transfer_rx_bytes_total counter\n";
  counter("selnet_transfer_rx_bytes_total", "", fs.transfer_bytes);
  text += "# TYPE selnet_transfer_rx_crc_rejections_total counter\n";
  counter("selnet_transfer_rx_crc_rejections_total", "",
          fs.transfer_crc_rejections);
  text += "# TYPE selnet_transfer_installs_total counter\n";
  counter("selnet_transfer_installs_total", "", fs.transfer_installs);
  if (backend_.metrics) text += backend_.metrics();
  return text;
}

void NetFrontend::AcceptNew(LoopState* loop) {
  for (;;) {
    util::Fd conn_fd;
    Result<bool> accepted = loop->listener.Accept(&conn_fd);
    if (!accepted.ok() || !accepted.ValueOrDie()) return;
    if (conn_count_.load(std::memory_order_relaxed) >= cfg_.max_connections ||
        stopping_.load()) {
      // Refuse by closing: the client sees EOF immediately instead of a
      // connection that silently never answers.
      refused_.fetch_add(1, std::memory_order_relaxed);
      util::LogDebug("frontend: connection refused (%zu open, cap %zu)",
                     conn_count_.load(std::memory_order_relaxed),
                     cfg_.max_connections);
      continue;
    }
    util::SetNonBlocking(conn_fd.get());
    util::SetNoDelay(conn_fd.get());
    auto conn = std::make_shared<Conn>();
    conn->fd = std::move(conn_fd);
    // Pick the owning loop. With per-loop listeners the kernel already
    // balanced the accept, so it stays here; the sharded acceptor deals
    // round-robin across every loop (including itself).
    LoopState* owner = loop;
    if (!per_loop_listeners_ && loops_.size() > 1) {
      owner = loops_[accept_rr_.fetch_add(1, std::memory_order_relaxed) %
                     loops_.size()]
                  .get();
    }
    conn->loop = owner->shared;
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (owner == loop) {
      loop->conns.push_back(std::move(conn));
    } else {
      {
        std::lock_guard<std::mutex> hl(owner->handoff_mu);
        owner->handoff.push_back(std::move(conn));
      }
      owner->shared->wake.Notify();
    }
    util::LogDebug("frontend: connection accepted (%zu open)",
                   conn_count_.load(std::memory_order_relaxed));
  }
}

std::string NetFrontend::AdminReplyFor(const std::shared_ptr<Conn>& conn,
                                       const std::string& line) {
  admin_requests_.fetch_add(1, std::memory_order_relaxed);
  AdminRequest admin;
  Status parsed = ParseAdminLine(line, &admin);
  if (!parsed.ok()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    return SerializeError(parsed.message(), ExtractTagBestEffort(line));
  }
  try {
    return DispatchAdmin(conn, admin);
  } catch (const std::exception& e) {
    // Admin input is client bytes off an open port; an exception out of a
    // handler (allocation failure on a hostile size, a parser edge) must
    // fail THIS command, not unwind through the loop thread and terminate
    // the process.
    return SerializeError(
        std::string("wire: admin command failed: ") + e.what(), admin.tag);
  }
}

std::string NetFrontend::DispatchAdmin(const std::shared_ptr<Conn>& conn,
                                       const AdminRequest& admin) {
  const CommandInfo* info = FindCommand(admin.cmd);
  if (info == nullptr) {
    return SerializeError("wire: unknown admin cmd '" + admin.cmd + "'",
                          admin.tag);
  }
  // Exhaustive over the registry (no default: -Wswitch flags a Command added
  // without a handler). Every case below serves both framings — the caller
  // owns the line-vs-frame packaging of the returned reply.
  switch (info->cmd) {
    case Command::kEstimate:
      // "estimate" is a data-plane command; it reaches here only when a
      // client literally sends {"cmd":"estimate"}.
      return SerializeError("wire: 'estimate' is not an admin command",
                            admin.tag);
    case Command::kHello: {
      // Framing negotiation. The ack is written in the CURRENT framing (the
      // caller packages it before the flip takes effect on the next input);
      // an unrecognized proto name negotiates down to JSON rather than
      // erroring, so mixed-version fleets roll out cleanly.
      WireProto next = WireProto::kJson;
      uint8_t version = 1;
      if (admin.proto == WireProtoName(WireProto::kBinary)) {
        next = WireProto::kBinary;
        const uint64_t asked =
            admin.max_version == 0 ? 1 : admin.max_version;
        version = uint8_t(std::min<uint64_t>(asked, kWireVersion));
      }
      JsonWriter w;
      w.Field("ok", true);
      w.Field("proto", std::string(WireProtoName(next)));
      w.Field("version", uint64_t(version));
      if (admin.tag != 0) w.Field("tag", admin.tag);
      conn->proto = next;
      return w.Finish();
    }
    case Command::kStats: {
      if (!backend_.snapshot) {
        return SerializeError("wire: no stats backend attached", admin.tag);
      }
      JsonWriter w;
      w.RawField("stats", StatsJson());
      if (admin.tag != 0) w.Field("tag", admin.tag);
      return w.Finish();
    }
    case Command::kSlow: {
      if (!backend_.slow) {
        return SerializeError("wire: no stats backend attached", admin.tag);
      }
      std::string spans = "[";
      std::vector<SpanRecord> slow = backend_.slow();
      for (size_t i = 0; i < slow.size(); ++i) {
        if (i > 0) spans += ",";
        spans += slow[i].ToJson();
      }
      spans += "]";
      JsonWriter w;
      w.RawField("slow", spans);
      if (admin.tag != 0) w.Field("tag", admin.tag);
      return w.Finish();
    }
    case Command::kHealth: {
      // Liveness probe for failover layers: answered on the loop thread, so
      // a healthy-but-busy backend still acks (gray shards are detected by
      // DATA timeouts, not by this).
      JsonWriter w;
      w.Field("ok", true);
      if (admin.tag != 0) w.Field("tag", admin.tag);
      return w.Finish();
    }
    case Command::kMetrics: {
      // The multi-line exposition text travels as ONE JSON string value;
      // JsonQuote escapes the newlines and NetClient::Call restores them.
      JsonWriter w;
      w.Field("metrics", MetricsText());
      if (admin.tag != 0) w.Field("tag", admin.tag);
      return w.Finish();
    }
    case Command::kEvents: {
      if (!backend_.events) {
        return SerializeError("wire: no event ring attached", admin.tag);
      }
      JsonWriter w;
      w.RawField("events", backend_.events());
      if (admin.tag != 0) w.Field("tag", admin.tag);
      return w.Finish();
    }
    case Command::kStatsWire: {
      if (!backend_.snapshot) {
        return SerializeError("wire: no stats backend attached", admin.tag);
      }
      return SerializeStatsWire(FleetSnapshot(), admin.tag);
    }
    case Command::kXferBegin:
    case Command::kXferFrame:
    case Command::kXferCommit:
      return HandleTransfer(conn, admin);
  }
  return SerializeError("wire: unknown admin cmd '" + admin.cmd + "'",
                        admin.tag);
}

std::string NetFrontend::HandleTransfer(const std::shared_ptr<Conn>& conn,
                                        const AdminRequest& admin) {
  if (!backend_.install) {
    return SerializeError("wire: backend does not accept state transfers",
                          admin.tag);
  }
  Status st;
  uint64_t version = 0;
  bool committed = false;
  if (admin.cmd == "xfer_begin") {
    st = conn->xfer.Begin(admin.model, admin.size, admin.frames);
  } else if (admin.cmd == "xfer_frame") {
    Result<std::string> raw = util::Base64Decode(admin.data);
    if (!raw.ok()) {
      conn->xfer.Abort();
      st = raw.status();
    } else {
      const size_t frame_bytes = raw.ValueOrDie().size();
      st = conn->xfer.AddFrame(admin.seq, uint32_t(admin.crc),
                               raw.ValueOrDie());
      if (st.ok()) {
        xfer_frames_.fetch_add(1, std::memory_order_relaxed);
        xfer_bytes_.fetch_add(frame_bytes, std::memory_order_relaxed);
      }
    }
  } else {  // xfer_commit
    Result<std::string> bytes =
        conn->xfer.Commit(admin.model, uint32_t(admin.crc));
    if (!bytes.ok()) {
      st = bytes.status();
    } else {
      // Deserialize + publish on the loop thread: a model install is a
      // publish-time event (milliseconds, not per-request), and running it
      // here keeps the single-writer registry discipline trivially intact.
      Result<uint64_t> v = backend_.install(admin.model, bytes.ValueOrDie());
      if (v.ok()) {
        version = v.ValueOrDie();
        committed = true;
        xfer_installs_.fetch_add(1, std::memory_order_relaxed);
        util::LogDebug("frontend: state transfer installed route '%s' v%llu",
                       admin.model.c_str(),
                       static_cast<unsigned long long>(version));
      } else {
        st = v.status();
      }
    }
  }
  if (!st.ok()) {
    // The assembler types both the per-frame and whole-payload checksum
    // failures kIoError; everything else on this path (bad base64, ordering,
    // size lies) is kInvalidArgument.
    if (st.code() == util::StatusCode::kIoError) {
      xfer_crc_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
    return SerializeError(st.message(), admin.tag);
  }
  JsonWriter w;
  w.Field("ok", true);
  if (committed) w.Field("version", version);
  if (admin.tag != 0) w.Field("tag", admin.tag);
  return w.Finish();
}

SelNetServer::ResponseFn NetFrontend::MakeCompletion(
    const std::shared_ptr<Conn>& conn, uint64_t tag, WireProto proto,
    std::shared_ptr<RequestTrace> traced, bool wire_traced) {
  // The completion may run on a pool worker, on the loop thread itself (a
  // cache hit resolves inline under the submit), or after this frontend is
  // gone if Stop() timed out — so it captures only the shared Conn (which
  // carries its loop's wakeup) and the Shared block, never `this`, and
  // takes no frontend lock. The trace shared_ptr rides along so a sampled
  // request's encode (serialization) time lands in the Shared encode
  // histogram — the server has already closed and flushed the span by the
  // time this runs.
  auto shared = shared_;
  return [shared, conn, tag, proto, traced = std::move(traced), wire_traced](
             EstimateResponse&& resp, std::exception_ptr error) {
    const auto encode_start = std::chrono::steady_clock::now();
    std::string out;
    if (error) {
      // Overload sheds carry a machine-readable code (the ShedReasonName)
      // so clients get a typed rejection without string-matching messages;
      // unknown routes carry "not_found" for the same reason.
      ShedReason reason = ShedReasonFrom(error);
      std::string code;
      if (reason != ShedReason::kNone) {
        code = ShedReasonName(reason);
      } else if (IsNotFound(error)) {
        code = "not_found";
      }
      if (proto == WireProto::kBinary) {
        AppendErrorFrame(&out, ErrorText(error), code, tag);
      } else {
        out = code.empty() ? SerializeError(ErrorText(error), tag)
                           : SerializeError(ErrorText(error), code, tag);
        out += '\n';
      }
    } else {
      if (wire_traced && traced) {
        // The caller asked for the stage block: snapshot the span (the
        // server has already flushed its own copy) and ship every stage —
        // encode is structurally 0 (the block is serialized inside encode),
        // and the remote stages are 0 unless this process itself remoted
        // the request onward.
        SpanRecord span = traced->Finish(resp.model, tag);
        resp.stage_ms.assign(kNumStages, 0.0f);
        for (size_t i = 0; i < kNumStages; ++i) {
          resp.stage_ms[i] = float(span.stage_ms[i]);
        }
      }
      if (proto == WireProto::kBinary) {
        resp.tag = tag;
        AppendResponseFrame(&out, resp);
      } else {
        out = SerializeResponse(resp);
        out += '\n';
      }
    }
    if (traced) {
      shared->encode_hist.Record(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - encode_start)
              .count());
    }
    if (error) shared->request_errors.fetch_add(1, std::memory_order_relaxed);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->inflight > 0) --conn->inflight;
      if (!conn->closed) {
        conn->wbuf += out;
        enqueued = true;
      }
    }
    if (enqueued) shared->responses.fetch_add(1, std::memory_order_relaxed);
    conn->loop->Wake();
  };
}

std::shared_ptr<RequestTrace> NetFrontend::SampleTrace(LoopState* loop) {
  if (backend_.trace_sample_every > 0 &&
      loop->trace_seq++ % backend_.trace_sample_every == 0) {
    return std::make_shared<RequestTrace>();
  }
  return nullptr;
}

void NetFrontend::DecodeLine(LoopState* loop,
                             const std::shared_ptr<Conn>& conn,
                             std::string line,
                             std::vector<SelNetServer::Submission>* batch) {
  // Tolerate CRLF and blank keep-alive lines.
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.pop_back();
  }
  if (line.empty()) return;

  // Admin plane: answered synchronously on the loop thread, off the estimate
  // path — a metrics scrape never queues behind a batch.
  if (LineLooksAdmin(line)) {
    FlushBatch(batch);
    std::string reply = AdminReplyFor(conn, line);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed) {
      conn->wbuf += reply;
      conn->wbuf += '\n';
    }
    return;
  }

  // Decode-stage sampling: the frontend decides BEFORE parsing so the parse
  // itself is on the span; the server honors an attached trace as-is.
  std::shared_ptr<RequestTrace> trace = SampleTrace(loop);
  const auto decode_start = std::chrono::steady_clock::now();
  EstimateRequest req;
  Status parsed = ParseRequestLine(line, &req);
  if (!parsed.ok()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    // Echo the tag even for a line that failed to parse (best-effort scan):
    // a pipelining client correlates replies by tag and must not wait
    // forever on a typo'd request.
    uint64_t tag = ExtractTagBestEffort(line);
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->wbuf += SerializeError(parsed.message(), tag);
    conn->wbuf += '\n';
    return;
  }
  Enqueue(conn, std::move(req), WireProto::kJson, std::move(trace),
          decode_start, batch);
}

void NetFrontend::DecodeFrame(LoopState* loop,
                              const std::shared_ptr<Conn>& conn,
                              const FrameHeader& hdr, const char* payload,
                              std::chrono::steady_clock::time_point now,
                              std::vector<SelNetServer::Submission>* batch) {
  std::shared_ptr<RequestTrace> trace = SampleTrace(loop);
  // Untraced frames share the batch's one clock sample for deadline
  // anchoring; a traced frame pays for a fresh sample so its decode stage
  // is real.
  const auto decode_start = trace ? std::chrono::steady_clock::now() : now;
  EstimateRequest req;
  Status decoded = DecodeRequestPayload(payload, hdr.payload_len, now, &req);
  if (!decoded.ok()) {
    // Well-framed but undecodable payload: typed error with the frame's own
    // tag, connection stays open (framing is intact; the client just sent a
    // bad request).
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed) {
      AppendErrorFrame(&conn->wbuf, decoded.message(), "", hdr.tag);
    }
    return;
  }
  req.tag = hdr.tag;
  Enqueue(conn, std::move(req), WireProto::kBinary, std::move(trace),
          decode_start, batch);
}

void NetFrontend::Enqueue(const std::shared_ptr<Conn>& conn,
                          EstimateRequest req, WireProto proto,
                          std::shared_ptr<RequestTrace> trace,
                          std::chrono::steady_clock::time_point decode_start,
                          std::vector<SelNetServer::Submission>* batch) {
  // A wire-requested trace ("trace":true) is honored regardless of the
  // sampling counter: the caller — a coordinator propagating its own sampled
  // span, or a debugging client — wants THIS request timed, and gets the
  // span's stage block back in the response.
  if (!trace && req.wire_trace) trace = std::make_shared<RequestTrace>();
  if (trace) {
    trace->Observe(Stage::kDecode,
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - decode_start)
                       .count());
    req.trace = trace;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    ++conn->inflight;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t tag = req.tag;
  const bool wire_traced = req.wire_trace;
  SelNetServer::Submission s;
  s.req = std::move(req);
  s.done = MakeCompletion(conn, tag, proto, std::move(trace), wire_traced);
  batch->push_back(std::move(s));
}

void NetFrontend::FlushBatch(std::vector<SelNetServer::Submission>* batch) {
  if (batch->empty()) return;
  backend_.submit(std::move(*batch));
  batch->clear();
}

void NetFrontend::RejectOversized(const std::shared_ptr<Conn>& conn) {
  // A runaway writer, not a typo: deliver the error, drop whatever request
  // bytes are buffered (later lines on this connection are not trusted),
  // and close once the reply flushes. Requests this size are three orders
  // of magnitude past any real query vector.
  oversized_.fetch_add(1, std::memory_order_relaxed);
  util::LogDebug("frontend: oversized request line rejected (cap %zu bytes)",
                 cfg_.max_line_bytes);
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->wbuf += SerializeError(
      "wire: request line exceeds " + std::to_string(cfg_.max_line_bytes) +
          " bytes",
      0);
  conn->wbuf += '\n';
  conn->close_after_flush = true;
  conn->rbuf.clear();
}

bool NetFrontend::HandleReadable(LoopState* loop,
                                 const std::shared_ptr<Conn>& conn,
                                 bool read_socket) {
  if (read_socket) {
    char buf[16384];
    // Bounded work per round: one connection cannot monopolize the loop.
    for (int chunk = 0; chunk < 16; ++chunk) {
      Result<int64_t> n = util::ReadSome(conn->fd.get(), buf, sizeof(buf));
      if (!n.ok()) {
        if (n.status().code() == util::StatusCode::kOutOfRange) {
          break;  // EAGAIN.
        }
        return false;  // Peer reset.
      }
      if (n.ValueOrDie() == 0) {  // Orderly EOF.
        conn->orderly = true;
        return false;
      }
      conn->rbuf.append(buf, size_t(n.ValueOrDie()));
      if (size_t(n.ValueOrDie()) < sizeof(buf)) break;
    }
  }

  for (;;) {
    const WireProto proto = conn->proto;
    const bool keep = proto == WireProto::kJson
                          ? ProcessJsonBuffer(loop, conn)
                          : ProcessBinaryBuffer(loop, conn);
    if (!keep) return false;
    // A hello mid-buffer flipped the framing: whatever bytes follow the
    // hello line/frame belong to the NEW framing — reprocess them (the
    // flip consumed input, so this terminates).
    if (conn->proto == proto) return true;
  }
}

bool NetFrontend::Stalled(const std::shared_ptr<Conn>& conn) {
  // Leftover input stays in rbuf and is re-scanned once responses drain
  // (the poll loop stops reading, TCP pushes back on the peer).
  std::lock_guard<std::mutex> lock(conn->mu);
  const bool capped =
      conn->inflight >= cfg_.max_inflight_per_conn ||
      conn->wbuf.size() - conn->wbuf_off >= cfg_.max_write_backlog_bytes;
  if (capped && !conn->stalled) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->stalled = capped;
  return capped;
}

bool NetFrontend::ProcessJsonBuffer(LoopState* loop,
                                    const std::shared_ptr<Conn>& conn) {
  // A line that outgrew the cap without ever seeing its newline.
  if (conn->rbuf.size() > cfg_.max_line_bytes &&
      conn->rbuf.find('\n') == std::string::npos) {
    RejectOversized(conn);
    return true;  // Keep the conn until the error reply is flushed.
  }

  std::vector<SelNetServer::Submission> batch;
  size_t start = 0;
  while (!Stalled(conn)) {
    size_t nl = conn->rbuf.find('\n', start);
    if (nl == std::string::npos) break;
    if (nl - start > cfg_.max_line_bytes) {
      RejectOversized(conn);  // Clears rbuf; nothing left to erase below.
      start = 0;
      break;
    }
    std::string line = conn->rbuf.substr(start, nl - start);
    start = nl + 1;
    DecodeLine(loop, conn, std::move(line), &batch);
    // A hello just switched this connection to binary frames; the caller
    // re-dispatches the remaining buffer.
    if (conn->proto != WireProto::kJson) break;
  }
  conn->rbuf.erase(0, start);
  FlushBatch(&batch);
  return true;
}

bool NetFrontend::ProcessBinaryBuffer(LoopState* loop,
                                      const std::shared_ptr<Conn>& conn) {
  std::vector<SelNetServer::Submission> batch;
  // One clock sample anchors every deadline decoded this round — a burst of
  // pipelined frames costs one clock read, not one per request.
  const auto now = std::chrono::steady_clock::now();
  size_t start = 0;
  while (conn->proto == WireProto::kBinary && !Stalled(conn)) {
    FrameHeader hdr;
    std::string err;
    const FramePeel peel =
        PeelFrameHeader(conn->rbuf.data() + start, conn->rbuf.size() - start,
                        cfg_.max_line_bytes, &hdr, &err);
    if (peel == FramePeel::kNeedMore) break;
    if (peel == FramePeel::kBad) {
      // Framing is lost (bad magic, bad version, hostile length): one typed
      // error frame with tag 0 — no frame to attribute it to — then close
      // once it flushes. Buffered bytes are dropped; resynchronizing inside
      // a byte stream we no longer trust is not worth the ambiguity.
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      util::LogDebug("frontend: bad binary frame (%s)", err.c_str());
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed) {
          AppendErrorFrame(&conn->wbuf, err, "bad_frame", 0);
          conn->close_after_flush = true;
        }
      }
      conn->rbuf.clear();
      start = 0;
      break;
    }
    const size_t total = kFrameHeaderBytes + size_t(hdr.payload_len);
    if (conn->rbuf.size() - start < total) break;  // Partial payload.
    const char* payload = conn->rbuf.data() + start + kFrameHeaderBytes;
    bool abort = false;
    switch (hdr.type) {
      case FrameType::kEstimate:
        DecodeFrame(loop, conn, hdr, payload, now, &batch);
        break;
      case FrameType::kAdmin: {
        // The admin plane rides binary unchanged: the payload is exactly
        // one JSON admin line, the reply exactly one kAdminReply frame
        // (echoing the request frame's tag in the header).
        FlushBatch(&batch);
        std::string line(payload, hdr.payload_len);
        std::string reply = AdminReplyFor(conn, line);
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed) {
          AppendAdminFrame(&conn->wbuf, FrameType::kAdminReply, hdr.tag,
                           reply);
        }
        break;
      }
      case FrameType::kResponse:
      case FrameType::kError:
      case FrameType::kAdminReply: {
        // Server-to-client types from a client: protocol violation, same
        // policy as a bad frame.
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed) {
          AppendErrorFrame(&conn->wbuf, "wire: unexpected frame type",
                           "bad_frame", hdr.tag);
          conn->close_after_flush = true;
        }
        abort = true;
        break;
      }
    }
    if (abort) {
      conn->rbuf.clear();
      start = 0;
      break;
    }
    start += total;
  }
  conn->rbuf.erase(0, start);
  FlushBatch(&batch);
  return true;
}

bool NetFrontend::HandleWritable(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  while (conn->wbuf_off < conn->wbuf.size()) {
    Result<int64_t> n =
        util::WriteSome(conn->fd.get(), conn->wbuf.data() + conn->wbuf_off,
                        conn->wbuf.size() - conn->wbuf_off);
    if (!n.ok()) return false;  // EPIPE/reset: peer is gone.
    if (n.ValueOrDie() == 0) break;  // Send buffer full; wait for POLLOUT.
    conn->wbuf_off += size_t(n.ValueOrDie());
  }
  if (conn->wbuf_off == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->wbuf_off = 0;
    // Close only once EARLIER requests' responses have also come back and
    // flushed — accepted work is answered even on a connection being closed
    // for a later oversized line. (inflight is read under the same mutex
    // completions decrement it under; a decrement after this check wakes the
    // poller, which re-runs HandleWritable and closes then.)
    if (conn->close_after_flush && conn->inflight == 0) {
      conn->orderly = true;
      return false;
    }
  }
  return true;
}

void NetFrontend::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
  }
  conn->fd.Close();
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
}

bool NetFrontend::DrainComplete(LoopState* loop) {
  for (const auto& conn : loop->conns) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight > 0) return false;
    if (conn->wbuf_off < conn->wbuf.size()) return false;
  }
  return true;
}

void NetFrontend::Loop(LoopState* loop) {
  using Clock = std::chrono::steady_clock;
  bool draining = false;
  Clock::time_point drain_deadline{};
  const std::shared_ptr<LoopShared>& shared = loop->shared;

  for (;;) {
    // Adopt connections the acceptor loop dealt to this one.
    {
      std::lock_guard<std::mutex> hl(loop->handoff_mu);
      for (auto& conn : loop->handoff) loop->conns.push_back(std::move(conn));
      loop->handoff.clear();
    }
    if (!draining && stopping_.load()) {
      // Graceful drain: no new connections, no new request bytes; in-flight
      // responses still compute and flush below.
      draining = true;
      drain_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(cfg_.drain_timeout_s));
      loop->listener.Close();
    }
    if (draining && (DrainComplete(loop) || Clock::now() >= drain_deadline)) {
      break;
    }

    // Arm the wakeup BEFORE reading per-conn write state: a completion that
    // lands after this point either shows up in the entries below or pays
    // the one pipe write that interrupts the poll. A completion burst while
    // we were processing (disarmed) costs zero syscalls.
    shared->armed.store(true, std::memory_order_seq_cst);

    std::vector<util::PollEntry> entries;
    entries.reserve(loop->conns.size() + 2);
    util::PollEntry wake_entry;
    wake_entry.fd = shared->wake.read_fd();
    wake_entry.want_read = true;
    entries.push_back(wake_entry);
    size_t listener_slot = 0;
    if (loop->listener.listening()) {
      util::PollEntry le;
      le.fd = loop->listener.fd();
      le.want_read = true;
      listener_slot = entries.size();
      entries.push_back(le);
    }
    size_t conn_base = entries.size();
    // Entries cover exactly the conns present NOW; AcceptNew below may
    // append more, which are handled starting next round.
    const size_t polled_conns = loop->conns.size();
    for (const auto& conn : loop->conns) {
      util::PollEntry ce;
      ce.fd = conn->fd.get();
      std::lock_guard<std::mutex> lock(conn->mu);
      ce.want_read = !draining && !conn->close_after_flush &&
                     conn->inflight < cfg_.max_inflight_per_conn &&
                     conn->wbuf.size() - conn->wbuf_off <
                         cfg_.max_write_backlog_bytes;
      ce.want_write = conn->wbuf_off < conn->wbuf.size();
      entries.push_back(ce);
    }

    Result<int> ready = util::Poll(&entries, draining ? 10 : 100);
    shared->armed.store(false, std::memory_order_relaxed);
    if (!ready.ok()) break;  // poll() itself failing is unrecoverable here.
    shared->wake.Drain();
    if (loop->listener.listening() && entries[listener_slot].readable) {
      AcceptNew(loop);
    }

    std::vector<std::shared_ptr<Conn>> alive;
    alive.reserve(loop->conns.size());
    for (size_t i = 0; i < polled_conns; ++i) {
      const auto& conn = loop->conns[i];
      const util::PollEntry& e = entries[conn_base + i];
      bool keep = !e.error;
      if (keep && e.readable) {
        keep = HandleReadable(loop, conn, /*read_socket=*/true);
      }
      // A stalled conn's buffered input re-scans once responses drain —
      // WITHOUT touching the socket, so the stop-reading backpressure holds
      // (reading here would let a greedy client grow rbuf unboundedly).
      if (keep && !e.readable && !conn->rbuf.empty()) {
        keep = HandleReadable(loop, conn, /*read_socket=*/false);
      }
      if (keep) keep = HandleWritable(conn);
      if (keep) {
        alive.push_back(conn);
      } else {
        // Only abnormal ends count as drops; an orderly client EOF or a
        // server-initiated close is a healthy disconnect.
        if (!conn->orderly) {
          dropped_.fetch_add(1, std::memory_order_relaxed);
          util::LogDebug("frontend: connection dropped (peer reset)");
        } else {
          util::LogDebug("frontend: connection closed");
        }
        CloseConn(conn);
      }
    }
    // Connections accepted this round (no poll entries yet).
    for (size_t i = polled_conns; i < loop->conns.size(); ++i) {
      alive.push_back(loop->conns[i]);
    }
    loop->conns.swap(alive);
  }

  loop->listener.Close();
  for (const auto& conn : loop->conns) CloseConn(conn);
  loop->conns.clear();
}

// -------------------------------------------------------------- NetClient ---

Status NetClient::Connect(const std::string& address, uint16_t port) {
  Result<util::Fd> fd = util::TcpConnect(address, port);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(fd).ValueOrDie();
  rbuf_.clear();
  address_ = address;
  port_ = port;
  proto_ = WireProto::kJson;  // Fresh connections speak JSON until Hello.
  return Status::OK();
}

Status NetClient::Reconnect() {
  if (port_ == 0) return Status::Internal("NetClient: never connected");
  fd_.Close();
  return Connect(address_, port_);
}

Status NetClient::SendRaw(const std::string& bytes) {
  if (!fd_.valid()) return Status::Internal("NetClient: not connected");
  return util::WriteAll(fd_.get(), bytes.data(), bytes.size());
}

Result<std::string> NetClient::ReadLine() {
  if (!fd_.valid()) return Status::Internal("NetClient: not connected");
  // The receive bound covers the WHOLE line, anchored here: a server that
  // trickles one byte per poll interval cannot stretch it.
  const bool bounded = recv_timeout_ms_ > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(recv_timeout_ms_);
  for (;;) {
    size_t nl = rbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = rbuf_.substr(0, nl);
      rbuf_.erase(0, nl + 1);
      return line;
    }
    if (bounded) {
      auto remaining_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded("NetClient: no response within " +
                                        std::to_string(recv_timeout_ms_) +
                                        " ms");
      }
      // The socket is blocking; poll first so a silent server costs the
      // remaining budget, not forever. A hangup falls through to ReadSome,
      // which reports the EOF / reset as usual.
      std::vector<util::PollEntry> entries(1);
      entries[0].fd = fd_.get();
      entries[0].want_read = true;
      Result<int> ready = util::Poll(&entries, int(remaining_ms));
      if (!ready.ok()) return ready.status();
      if (!entries[0].readable && !entries[0].error) continue;
    }
    char buf[4096];
    Result<int64_t> n = util::ReadSome(fd_.get(), buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (n.ValueOrDie() == 0) {
      return Status::IOError("NetClient: connection closed by server");
    }
    rbuf_.append(buf, size_t(n.ValueOrDie()));
  }
}

Status NetClient::FillBuffer(size_t need) {
  // Same timeout contract as ReadLine, anchored per call.
  const bool bounded = recv_timeout_ms_ > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(recv_timeout_ms_);
  while (rbuf_.size() < need) {
    if (bounded) {
      auto remaining_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded("NetClient: no response within " +
                                        std::to_string(recv_timeout_ms_) +
                                        " ms");
      }
      std::vector<util::PollEntry> entries(1);
      entries[0].fd = fd_.get();
      entries[0].want_read = true;
      Result<int> ready = util::Poll(&entries, int(remaining_ms));
      if (!ready.ok()) return ready.status();
      if (!entries[0].readable && !entries[0].error) continue;
    }
    char buf[4096];
    Result<int64_t> n = util::ReadSome(fd_.get(), buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (n.ValueOrDie() == 0) {
      return Status::IOError("NetClient: connection closed by server");
    }
    rbuf_.append(buf, size_t(n.ValueOrDie()));
  }
  return Status::OK();
}

Result<std::string> NetClient::ReadFrame(FrameHeader* hdr) {
  if (!fd_.valid()) return Status::Internal("NetClient: not connected");
  SEL_RETURN_NOT_OK(FillBuffer(kFrameHeaderBytes));
  std::string err;
  // Replies can be big (a metrics exposition inside an admin frame); the
  // client-side sanity cap only guards against garbage lengths.
  const FramePeel peel =
      PeelFrameHeader(rbuf_.data(), rbuf_.size(), size_t(1) << 26, hdr, &err);
  if (peel != FramePeel::kFrame) {
    return Status::IOError("NetClient: " +
                           (err.empty() ? std::string("short frame") : err));
  }
  SEL_RETURN_NOT_OK(FillBuffer(kFrameHeaderBytes + hdr->payload_len));
  std::string payload = rbuf_.substr(kFrameHeaderBytes, hdr->payload_len);
  rbuf_.erase(0, kFrameHeaderBytes + hdr->payload_len);
  return payload;
}

Status NetClient::Hello(WireProto preferred, uint8_t max_version) {
  if (!fd_.valid()) return Status::Internal("NetClient: not connected");
  if (preferred == WireProto::kJson) {
    proto_ = WireProto::kJson;
    return Status::OK();
  }
  SEL_RETURN_NOT_OK(SendRaw(SerializeHello(preferred, max_version) + "\n"));
  Result<std::string> line = ReadLine();
  if (!line.ok()) return line.status();
  Result<HelloResult> hello = ParseHelloReply(line.ValueOrDie());
  if (!hello.ok()) {
    // An older server answers with an unknown-cmd error and keeps the
    // connection open — that is the designed JSON fallback, not a failure.
    proto_ = WireProto::kJson;
    return Status::OK();
  }
  proto_ = hello.ValueOrDie().proto;
  return Status::OK();
}

Result<std::string> NetClient::AdminRoundtrip(const std::string& line,
                                              uint64_t tag) {
  if (proto_ == WireProto::kBinary) {
    std::string out;
    AppendAdminFrame(&out, FrameType::kAdmin, tag, line);
    SEL_RETURN_NOT_OK(SendRaw(out));
    FrameHeader hdr;
    Result<std::string> payload = ReadFrame(&hdr);
    if (!payload.ok()) return payload.status();
    if (hdr.type == FrameType::kError) {
      std::string code, message;
      SEL_RETURN_NOT_OK(DecodeErrorPayload(payload.ValueOrDie().data(),
                                           payload.ValueOrDie().size(), &code,
                                           &message));
      return StatusFromWireError(code, message);
    }
    if (hdr.type != FrameType::kAdminReply) {
      return Status::IOError("NetClient: unexpected frame type in admin reply");
    }
    return payload;
  }
  SEL_RETURN_NOT_OK(SendRaw(line + "\n"));
  return ReadLine();
}

Result<ClientReply> NetClient::Call(const ClientCall& call) {
  ClientReply reply;
  if (call.cmd == Command::kEstimate) {
    if (proto_ == WireProto::kBinary) {
      std::string out;
      AppendRequestFrame(&out, call.estimate);
      SEL_RETURN_NOT_OK(SendRaw(out));
      FrameHeader hdr;
      Result<std::string> payload = ReadFrame(&hdr);
      if (!payload.ok()) return payload.status();
      if (hdr.type == FrameType::kError) {
        std::string code, message;
        SEL_RETURN_NOT_OK(DecodeErrorPayload(payload.ValueOrDie().data(),
                                             payload.ValueOrDie().size(),
                                             &code, &message));
        return StatusFromWireError(code, message);
      }
      if (hdr.type != FrameType::kResponse) {
        return Status::IOError("NetClient: unexpected frame type in reply");
      }
      SEL_RETURN_NOT_OK(DecodeResponsePayload(payload.ValueOrDie().data(),
                                              payload.ValueOrDie().size(),
                                              &reply.estimate));
      reply.estimate.tag = hdr.tag;
      return reply;
    }
    SEL_RETURN_NOT_OK(SendRaw(SerializeRequest(call.estimate) + "\n"));
    Result<std::string> line = ReadLine();
    if (!line.ok()) return line.status();
    SEL_RETURN_NOT_OK(ParseResponseLine(line.ValueOrDie(), &reply.estimate));
    return reply;
  }
  if (call.cmd == Command::kHello) {
    return Status::Invalid("NetClient: negotiate framing with Hello()");
  }
  // Admin plane: serialize the registry command, round-trip it in the
  // negotiated framing, parse what structure the reply has.
  AdminRequest admin = call.admin;
  admin.cmd = FindCommand(call.cmd)->name;
  Result<std::string> r = AdminRoundtrip(SerializeAdminRequest(admin),
                                         admin.tag);
  if (!r.ok()) return r.status();
  reply.body = std::move(r).ValueOrDie();
  switch (call.cmd) {
    case Command::kMetrics: {
      Result<std::string> text = ParseMetricsReply(reply.body);
      if (!text.ok()) return text.status();
      reply.text = std::move(text).ValueOrDie();
      break;
    }
    case Command::kStatsWire: {
      Result<StatsSnapshot> snap = ParseStatsWireLine(reply.body);
      if (!snap.ok()) return snap.status();
      reply.stats = std::move(snap).ValueOrDie();
      break;
    }
    case Command::kHealth:
    case Command::kXferBegin:
    case Command::kXferFrame:
    case Command::kXferCommit:
      SEL_RETURN_NOT_OK(ParseAckLine(reply.body, &reply.version));
      break;
    default:
      // kStats / kSlow / kEvents: the raw reply line IS the result.
      break;
  }
  return reply;
}

}  // namespace selnet::serve
