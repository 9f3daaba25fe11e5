#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"
#include "serve/serve_stats.h"
#include "util/status.h"

/// \file wire.h
/// \brief The network wire format: the JSON text protocol (one object per
/// line, newline framed), plus the command registry and protocol-negotiation
/// types shared with the binary framing in wire_binary.h.
///
/// Two framings, one protocol. Every connection starts in JSON mode; a
/// client that wants the binary framing sends one hello line
/// ({"cmd":"hello","proto":"binary","max_version":1}) and, on an
/// {"ok":true,"proto":"binary","version":1} ack, both directions switch to
/// the length-prefixed frames of wire_binary.h. A server that predates the
/// hello command answers with the usual unknown-cmd error and keeps the
/// connection open, so a new client falls back to JSON — mixed fleets
/// interop during rollout. JSON stays fully supported as the negotiated
/// debug/compat mode; the command set, error taxonomy, and bit-exact float
/// contract are identical across both framings.
///
/// Request line (client -> server):
///   {"x":[0.1,0.2],"thresholds":[0.5,0.8],"model":"default","tag":7}
///     * `x` — required, the query vector (ServerConfig::dim floats);
///     * `thresholds` — required, 1..K thresholds (sorted ascending buys the
///       monotone-column guarantee, exactly like the in-process API);
///     * `model` — optional registry route (default route when absent);
///     * `tag` — optional uint64, echoed verbatim in the response. Responses
///       on one connection may complete out of order under load; the tag is
///       how a pipelining client matches them up;
///     * `deadline_ms` — optional RELATIVE completion budget in milliseconds,
///       anchored to the server's steady clock at decode time (wall clocks
///       never cross the wire). A non-positive budget is already expired and
///       sheds before any compute;
///     * `trace` — optional bool. `true` asks the server to stage-trace THIS
///       request regardless of its sampling counter and return the timing
///       block below; the caller's `tag` doubles as the trace id. This is
///       how a coordinator's sampled trace propagates to the remote replica
///       that actually served the request.
///
/// Response line (server -> client):
///   {"estimates":[...],"model":"default","version":3,"cache_hits":1,
///    "fast_path":true,"tag":7}
/// A wire-traced request's response additionally carries
/// `"stage_ms":[...]` — one float per serve::Stage in enum order, the
/// answering process's own span (its remote stages and encode are 0).
/// RemoteShard merges this block into the caller's RequestTrace as the
/// remote_queue / remote_predict stages and strips it from the response.
/// plus `"degraded":true` when an overloaded route answered from the cached
/// sweep curve instead of the model; or, when the request failed (malformed
/// JSON, unknown route, bad shape):
///   {"error":"...","tag":7}
/// Overload rejections additionally carry a machine-readable `code` — a
/// ShedReasonName ("queue_full", "priority_shed", "deadline_exceeded",
/// "shutdown") the client maps back to a typed Status without string-matching
/// the human-readable message:
///   {"error":"...","code":"queue_full","tag":7}
///
/// Admin line (client -> server), the metrics/admin plane:
///   {"cmd":"stats","tag":7}   -> {"stats":{...fleet StatsSnapshot...},"tag":7}
///   {"cmd":"slow","tag":7}    -> {"slow":[{...span...},...],"tag":7}
///   {"cmd":"health","tag":7}  -> {"ok":true,"tag":7}
///   {"cmd":"metrics","tag":7} -> {"metrics":"<Prometheus text>","tag":7}
///     (the exposition text travels as ONE JSON string — JsonQuote escapes
///      the newlines; NetClient::Call(kMetrics) unescapes them back)
///   {"cmd":"events","tag":7}  -> {"events":[{...},...],"tag":7}
///     (the coordinator's health/transfer flight-recorder ring)
///   {"cmd":"stats_wire","tag":7} -> a FLAT machine-parseable snapshot: the
///     counters as plain uint fields plus every histogram as one compact
///     string token (util::EncodeHistogramSnapshot) — this is what a
///     coordinator's scrape tick fetches from each remote and bucket-merges
///     into the fleet view (the nested {"cmd":"stats"} reply is for humans
///     and external scrapers; the strict LineParser cannot walk it).
///     Per-route rows do NOT cross this wire — a remote's routes fold into
///     the fleet totals, not the per-route table.
/// `cmd` must be the FIRST field so the frontend can dispatch without
/// attempting an estimate parse (LineLooksAdmin); unknown commands get the
/// usual {"error":...} reply. Admin requests are answered synchronously on
/// the frontend's poll loop — a stats scrape never queues behind estimates.
///
/// State transfer (see state_transfer.h) rides the admin plane as three
/// commands, each answered with an {"ok":true,...} ack or an error:
///   {"cmd":"xfer_begin","model":"r","size":N,"frames":K,"tag":t}
///   {"cmd":"xfer_frame","seq":i,"crc":C,"data":"<base64>","tag":t}
///   {"cmd":"xfer_commit","model":"r","crc":W,"tag":t}
/// The commit ack carries the published version: {"ok":true,"version":V}.
///
/// Floats travel as shortest-round-trip decimals (std::to_chars) and are
/// parsed back with std::from_chars on the raw token, so a served estimate
/// round-trips the wire BIT-IDENTICALLY — the frontend test diffs wire
/// responses against in-process SelNetServer::Submit with EXPECT_EQ.
///
/// The parser is a strict, minimal JSON subset: one object of scalar /
/// flat-array fields, no nesting deeper than the protocol needs, no
/// comments, UTF-8 passed through opaquely. Unknown fields are rejected —
/// a typo'd field name should fail loudly, not silently serve defaults.

namespace selnet::serve {

/// \brief Highest protocol version this build speaks. Version 1 covers the
/// whole command set below plus the binary framing; the hello exchange picks
/// min(client max, server max) per connection.
inline constexpr uint8_t kWireVersion = 1;

/// \brief The framing a connection speaks (selected by the hello exchange;
/// JSON until negotiated otherwise).
enum class WireProto : uint8_t {
  kJson = 0,    ///< Line-delimited JSON (the debug/compat mode).
  kBinary = 1,  ///< Length-prefixed frames (wire_binary.h).
};

const char* WireProtoName(WireProto proto);

/// \brief Every command the protocol knows, shared by the JSON dispatcher,
/// the binary framing, and the typed client surface. Adding a command means
/// adding an enumerator here plus a row in the registry table in wire.cc —
/// the frontend dispatches through an exhaustive switch, so a missing
/// handler is a compile-time warning, not a silent unknown-cmd error.
enum class Command : uint8_t {
  kEstimate = 0,  ///< The data plane (not a {"cmd":...} line; listed so the
                  ///  typed client Call() surface covers both planes).
  kHello,         ///< Protocol negotiation (proto + max_version).
  kStats,         ///< Human/scraper-facing nested fleet snapshot.
  kSlow,          ///< Retained slow-request spans.
  kHealth,        ///< Liveness ack.
  kMetrics,       ///< Prometheus-style exposition text.
  kEvents,        ///< Coordinator flight-recorder ring.
  kStatsWire,     ///< Flat machine-scrape snapshot (coordinator merge).
  kXferBegin,     ///< State transfer: announce size/frames.
  kXferFrame,     ///< State transfer: one CRC'd base64 frame.
  kXferCommit,    ///< State transfer: verify + publish.
};
inline constexpr size_t kNumCommands = 11;

/// \brief One registry row: the wire name and the protocol version that
/// introduced the command (a peer negotiated below it must not send it).
struct CommandInfo {
  Command cmd;
  const char* name;
  uint8_t since_version;
};

/// \brief Look a command up by wire name; null for unknown commands (the
/// caller owns the unknown-cmd error so its text can echo the name).
const CommandInfo* FindCommand(const std::string& name);
/// \brief The registry row for `cmd` (never null; the table is exhaustive).
const CommandInfo* FindCommand(Command cmd);

/// \brief Parse one request line. On error the returned Status carries a
/// client-safe message (no server internals) and `req` is untouched.
util::Status ParseRequestLine(const std::string& line, EstimateRequest* req);

/// \brief Anchor a client's RELATIVE deadline budget at `now`: the one
/// conversion both request decoders (JSON and binary) use. A non-positive
/// budget is already expired (`now`); a budget the steady clock cannot
/// represent saturates to a deadline that never expires; NaN is a typed
/// decode error.
util::Status DeadlineFromBudget(
    double budget_ms, std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point* deadline);

/// \brief One metrics/admin-plane request ({"cmd":"stats"} / {"cmd":"slow"} /
/// {"cmd":"health"} / the xfer_* state-transfer family).
struct AdminRequest {
  std::string cmd;
  uint64_t tag = 0;
  // State-transfer fields; zero/empty except on xfer_* commands.
  std::string model;   ///< Target route (xfer_begin / xfer_commit).
  std::string data;    ///< Base64 frame payload (xfer_frame).
  uint64_t seq = 0;    ///< Frame index (xfer_frame).
  uint64_t crc = 0;    ///< Frame CRC-32 (xfer_frame) / whole-payload CRC-32
                       ///  (xfer_commit).
  uint64_t size = 0;   ///< Total payload bytes (xfer_begin).
  uint64_t frames = 0; ///< Total frame count (xfer_begin).
  // Negotiation fields; empty/zero except on hello.
  std::string proto;        ///< Requested framing ("binary" / "json").
  uint64_t max_version = 0; ///< Highest version the client speaks (0 = 1).
};

/// \brief Serialize an admin request (client side; no trailing newline).
/// Only the fields the command uses are emitted, so a hand-written line and
/// this serializer produce the same bytes.
std::string SerializeAdminRequest(const AdminRequest& req);

/// \brief The negotiated outcome of a hello exchange.
struct HelloResult {
  WireProto proto = WireProto::kJson;
  uint8_t version = 1;
};

/// \brief Build the hello line requesting `preferred` framing.
std::string SerializeHello(WireProto preferred,
                           uint8_t max_version = kWireVersion);

/// \brief Parse the server's hello ack. An {"error":...} reply (an old
/// server that predates hello) surfaces as the typed error Status — callers
/// treat any error as "speak JSON" and keep the connection.
util::Result<HelloResult> ParseHelloReply(const std::string& line);

/// \brief Map a wire error `code` token + message to the typed Status every
/// parser on the client side hands back: deadline_exceeded ->
/// kDeadlineExceeded; queue_full / priority_shed / shutdown -> kUnavailable;
/// not_found -> kNotFound; anything else -> kInternal. One mapping for the
/// JSON and binary framings — the taxonomy is the protocol, not the framing.
util::Status StatusFromWireError(const std::string& code,
                                 const std::string& message);

/// \brief Cheap pre-dispatch: does this line open with a `"cmd"` field? Used
/// by the frontend to route admin lines away from the estimate parser without
/// paying a failed parse per estimate request.
bool LineLooksAdmin(const std::string& line);

/// \brief Parse one admin line (strict: only the AdminRequest fields are
/// accepted; `cmd` is required).
util::Status ParseAdminLine(const std::string& line, AdminRequest* req);

/// \brief Parse an admin ack line. {"ok":true,...} -> OK (with `*version`
/// filled from an optional "version" field when non-null); an {"error":...}
/// reply maps to a typed Status exactly like ParseResponseLine; a line that
/// is neither is kInternal.
util::Status ParseAckLine(const std::string& line, uint64_t* version = nullptr);

/// \brief Serialize a response (no trailing newline; the framing layer owns
/// the '\n').
std::string SerializeResponse(const EstimateResponse& resp);

/// \brief Serialize an error reply for `tag` (no trailing newline).
std::string SerializeError(const std::string& message, uint64_t tag);

/// \brief Serialize a typed error reply: `code` is a machine-readable token
/// (a ShedReasonName for overload sheds) emitted alongside the message;
/// empty `code` degrades to the plain form.
std::string SerializeError(const std::string& message, const std::string& code,
                           uint64_t tag);

/// \brief Best-effort tag recovery from a line that FAILED ParseRequestLine
/// (a raw scan for a `"tag":<digits>` field), so even the error reply for a
/// malformed request can echo the client's correlation tag. Returns 0 when
/// no tag is recoverable.
uint64_t ExtractTagBestEffort(const std::string& line);

/// \brief Serialize a request (client side; no trailing newline).
std::string SerializeRequest(const EstimateRequest& req);

/// \brief Parse one response line into `resp`; a wire-level error reply comes
/// back as a non-OK status carrying the server's message — typed by the
/// reply's `code` when present (deadline_exceeded -> kDeadlineExceeded;
/// queue_full / priority_shed / shutdown -> kUnavailable), kInternal
/// otherwise.
util::Status ParseResponseLine(const std::string& line,
                               EstimateResponse* resp);

/// \brief Serialize the flat machine-scrape form of a snapshot (the
/// {"cmd":"stats_wire"} reply body, tag included when non-zero). Counters
/// become plain uint fields; each histogram becomes one compact string
/// token. Per-route rows, slow spans, and slot tables are NOT carried —
/// they fold into totals or stay local.
std::string SerializeStatsWire(const StatsSnapshot& s, uint64_t tag);

/// \brief Parse a stats_wire reply back into a snapshot (untrusted input:
/// malformed histograms or unknown fields are typed errors, never a crash).
util::Result<StatsSnapshot> ParseStatsWireLine(const std::string& line);

/// \brief Extract the exposition text from a {"metrics":"..."} reply (or the
/// typed error the server sent instead).
util::Result<std::string> ParseMetricsReply(const std::string& line);

/// \brief Append `v` to `out` as the shortest decimal that parses back to
/// exactly `v` (std::to_chars; "nan"/"inf" are never produced by serving but
/// render as null to stay valid JSON).
void AppendFloat(std::string* out, float v);

/// \brief Incremental JSON writer for flat objects — shared by the wire
/// codec and the bench harness's machine-readable gate output.
class JsonWriter {
 public:
  JsonWriter() { out_ = "{"; }

  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, const char* value);
  JsonWriter& Field(const std::string& key, double value);
  JsonWriter& Field(const std::string& key, uint64_t value);
  JsonWriter& Field(const std::string& key, bool value);
  JsonWriter& Field(const std::string& key, const std::vector<float>& values);
  /// \brief Embed `raw` verbatim (a nested object already serialized).
  JsonWriter& RawField(const std::string& key, const std::string& raw);

  /// \brief Close the object and return it.
  std::string Finish();

 private:
  void Key(const std::string& key);

  std::string out_;
  bool first_ = true;
};

/// \brief Escape a string for embedding in a JSON document (adds quotes).
std::string JsonQuote(const std::string& s);

}  // namespace selnet::serve
