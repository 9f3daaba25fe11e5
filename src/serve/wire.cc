#include "serve/wire.h"

#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/metrics.h"

namespace selnet::serve {

using util::Status;

namespace {

/// Strict single-pass tokenizer over one protocol line. The protocol only
/// ever nests one level (arrays of numbers inside the top object), so a full
/// DOM is overkill — the parser walks the object once and dispatches on
/// field name.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  Status Fail(const std::string& msg) const {
    return Status::Invalid("wire: " + msg + " at byte " + std::to_string(i_));
  }

  void SkipSpace() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return i_ >= s_.size();
  }

  /// Parse a quoted string (escapes: \" \\ \/ \n \t \r \b \f; \uXXXX is
  /// rejected — the protocol's strings are routes and error text, ASCII in
  /// practice, and raw UTF-8 passes through unescaped).
  Status String(std::string* out) {
    SkipSpace();
    if (i_ >= s_.size() || s_[i_] != '"') return Fail("expected string");
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return Fail("dangling escape");
      char e = s_[i_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        default: return Fail("unsupported escape");
      }
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;  // Closing quote.
    return Status::OK();
  }

  /// The raw token of a JSON number: [-]digits[.digits][e[+-]digits].
  Status NumberToken(const char** begin, const char** end) {
    SkipSpace();
    size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    size_t digits = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == digits) return Fail("expected number");
    *begin = s_.data() + start;
    *end = s_.data() + i_;
    return Status::OK();
  }

  /// from_chars on the raw token: the shortest-round-trip decimal written by
  /// AppendFloat parses back to the bit-identical float.
  Status Float(float* out) {
    const char* b = nullptr;
    const char* e = nullptr;
    SEL_RETURN_NOT_OK(NumberToken(&b, &e));
    auto [ptr, ec] = std::from_chars(b, e, *out);
    if (ec != std::errc() || ptr != e) return Fail("unparsable number");
    return Status::OK();
  }

  Status Uint(uint64_t* out) {
    const char* b = nullptr;
    const char* e = nullptr;
    SEL_RETURN_NOT_OK(NumberToken(&b, &e));
    auto [ptr, ec] = std::from_chars(b, e, *out);
    if (ec != std::errc() || ptr != e) {
      return Fail("expected unsigned integer");
    }
    return Status::OK();
  }

  Status FloatArray(std::vector<float>* out) {
    if (!Eat('[')) return Fail("expected array");
    out->clear();
    if (Eat(']')) return Status::OK();
    for (;;) {
      float v;
      SEL_RETURN_NOT_OK(Float(&v));
      out->push_back(v);
      if (Eat(']')) return Status::OK();
      if (!Eat(',')) return Fail("expected ',' or ']'");
    }
  }

  Status Bool(bool* out) {
    SkipSpace();
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      *out = true;
      return Status::OK();
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      *out = false;
      return Status::OK();
    }
    return Fail("expected boolean");
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

/// Walk `{ "key": <value>, ... }`, dispatching each field to `on_field`.
template <typename FieldFn>
Status ParseObject(LineParser* p, FieldFn on_field) {
  if (!p->Eat('{')) return p->Fail("expected request object");
  if (!p->Eat('}')) {
    for (;;) {
      std::string key;
      SEL_RETURN_NOT_OK(p->String(&key));
      if (!p->Eat(':')) return p->Fail("expected ':'");
      SEL_RETURN_NOT_OK(on_field(key));
      if (p->Eat('}')) break;
      if (!p->Eat(',')) return p->Fail("expected ',' or '}'");
    }
  }
  if (!p->AtEnd()) return p->Fail("trailing bytes after object");
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------- command registry ---

const char* WireProtoName(WireProto proto) {
  return proto == WireProto::kBinary ? "binary" : "json";
}

namespace {

/// The one place a command's wire name and version live. Order matches the
/// enum so FindCommand(Command) is an index.
constexpr CommandInfo kCommands[kNumCommands] = {
    {Command::kEstimate, "estimate", 1},
    {Command::kHello, "hello", 1},
    {Command::kStats, "stats", 1},
    {Command::kSlow, "slow", 1},
    {Command::kHealth, "health", 1},
    {Command::kMetrics, "metrics", 1},
    {Command::kEvents, "events", 1},
    {Command::kStatsWire, "stats_wire", 1},
    {Command::kXferBegin, "xfer_begin", 1},
    {Command::kXferFrame, "xfer_frame", 1},
    {Command::kXferCommit, "xfer_commit", 1},
};

}  // namespace

const CommandInfo* FindCommand(const std::string& name) {
  for (const CommandInfo& info : kCommands) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

const CommandInfo* FindCommand(Command cmd) {
  const size_t i = size_t(cmd);
  return i < kNumCommands ? &kCommands[i] : nullptr;
}

Status StatusFromWireError(const std::string& code,
                           const std::string& message) {
  // The `code` token types the failure; it deliberately mirrors
  // ShedReasonName so clients never string-match the human message.
  if (code == "deadline_exceeded") return Status::DeadlineExceeded(message);
  if (code == "queue_full" || code == "priority_shed" || code == "shutdown") {
    return Status::Unavailable(message);
  }
  if (code == "not_found") return Status::NotFound(message);
  return Status::Internal(message);
}

void AppendFloat(std::string* out, float v) {
  if (!std::isfinite(v)) {
    out->append("null");  // Estimates are finite; keep the line valid JSON.
    return;
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 32 bytes always suffice for a shortest float.
  out->append(buf, ptr);
}

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\t': out.append("\\t"); break;
      case '\r': out.append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

Status DeadlineFromBudget(double budget_ms,
                          std::chrono::steady_clock::time_point now,
                          std::chrono::steady_clock::time_point* deadline) {
  using Clock = std::chrono::steady_clock;
  // ~31.7 years: far past any request, and far enough below the clock's
  // ~292-year nanosecond range that `now + budget` cannot overflow.
  constexpr double kNeverExpiresMs = 1e12;
  if (std::isnan(budget_ms)) return Status::Invalid("wire: deadline_ms is NaN");
  if (budget_ms >= kNeverExpiresMs) {
    *deadline = Clock::time_point::max();
  } else if (budget_ms <= 0.0) {
    *deadline = now;
  } else {
    *deadline = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(budget_ms));
  }
  return Status::OK();
}

Status ParseRequestLine(const std::string& line, EstimateRequest* req) {
  EstimateRequest parsed;
  bool have_x = false;
  bool have_ts = false;
  LineParser p(line);
  SEL_RETURN_NOT_OK(ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "x") {
      have_x = true;
      return p.FloatArray(&parsed.x);
    }
    if (key == "thresholds") {
      have_ts = true;
      return p.FloatArray(&parsed.thresholds);
    }
    if (key == "model") return p.String(&parsed.model);
    if (key == "tag") return p.Uint(&parsed.tag);
    if (key == "deadline_ms") {
      // Relative budget, anchored to the steady clock HERE (decode time) —
      // the wire never carries an absolute timestamp. A non-positive budget
      // yields an already-past deadline, shed before any compute.
      float budget_ms = 0.0f;
      SEL_RETURN_NOT_OK(p.Float(&budget_ms));
      return DeadlineFromBudget(budget_ms, std::chrono::steady_clock::now(),
                                &parsed.deadline);
    }
    if (key == "trace") return p.Bool(&parsed.wire_trace);
    return p.Fail("unknown request field '" + key + "'");
  }));
  if (!have_x || parsed.x.empty()) {
    return Status::Invalid("wire: request needs a non-empty \"x\" array");
  }
  if (!have_ts || parsed.thresholds.empty()) {
    return Status::Invalid(
        "wire: request needs a non-empty \"thresholds\" array");
  }
  *req = std::move(parsed);
  return Status::OK();
}

bool LineLooksAdmin(const std::string& line) {
  // Skip the opening '{' and whitespace; an admin line leads with "cmd".
  size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                             line[i] == '\r')) {
    ++i;
  }
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                             line[i] == '\r')) {
    ++i;
  }
  return line.compare(i, 5, "\"cmd\"") == 0;
}

Status ParseAdminLine(const std::string& line, AdminRequest* req) {
  AdminRequest parsed;
  LineParser p(line);
  SEL_RETURN_NOT_OK(ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "cmd") return p.String(&parsed.cmd);
    if (key == "tag") return p.Uint(&parsed.tag);
    if (key == "model") return p.String(&parsed.model);
    if (key == "data") return p.String(&parsed.data);
    if (key == "seq") return p.Uint(&parsed.seq);
    if (key == "crc") return p.Uint(&parsed.crc);
    if (key == "size") return p.Uint(&parsed.size);
    if (key == "frames") return p.Uint(&parsed.frames);
    if (key == "proto") return p.String(&parsed.proto);
    if (key == "max_version") return p.Uint(&parsed.max_version);
    return p.Fail("unknown admin field '" + key + "'");
  }));
  if (parsed.cmd.empty()) {
    return Status::Invalid("wire: admin request needs a \"cmd\" string");
  }
  *req = std::move(parsed);
  return Status::OK();
}

std::string SerializeAdminRequest(const AdminRequest& req) {
  JsonWriter w;
  w.Field("cmd", req.cmd);
  if (!req.model.empty()) w.Field("model", req.model);
  if (!req.data.empty()) w.Field("data", req.data);
  if (req.seq != 0) w.Field("seq", req.seq);
  if (req.crc != 0) w.Field("crc", req.crc);
  if (req.size != 0) w.Field("size", req.size);
  if (req.frames != 0) w.Field("frames", req.frames);
  if (!req.proto.empty()) w.Field("proto", req.proto);
  if (req.max_version != 0) w.Field("max_version", req.max_version);
  if (req.tag != 0) w.Field("tag", req.tag);
  return w.Finish();
}

std::string SerializeHello(WireProto preferred, uint8_t max_version) {
  AdminRequest hello;
  hello.cmd = "hello";
  hello.proto = WireProtoName(preferred);
  hello.max_version = max_version;
  return SerializeAdminRequest(hello);
}

util::Result<HelloResult> ParseHelloReply(const std::string& line) {
  bool ok = false;
  std::string proto;
  std::string error;
  std::string code;
  uint64_t version = 0;
  uint64_t tag = 0;
  LineParser p(line);
  SEL_RETURN_NOT_OK(ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "ok") return p.Bool(&ok);
    if (key == "proto") return p.String(&proto);
    if (key == "version") return p.Uint(&version);
    if (key == "tag") return p.Uint(&tag);
    if (key == "error") return p.String(&error);
    if (key == "code") return p.String(&code);
    return p.Fail("unknown hello field '" + key + "'");
  }));
  if (!error.empty()) return StatusFromWireError(code, error);
  if (!ok) return Status::Internal("wire: hello reply without ok or error");
  HelloResult result;
  result.proto = proto == "binary" ? WireProto::kBinary : WireProto::kJson;
  result.version =
      uint8_t(version == 0 || version > kWireVersion ? 1 : version);
  return result;
}

Status ParseAckLine(const std::string& line, uint64_t* version) {
  bool ok = false;
  std::string error;
  std::string code;
  uint64_t ver = 0;
  uint64_t tag = 0;
  LineParser p(line);
  SEL_RETURN_NOT_OK(ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "ok") return p.Bool(&ok);
    if (key == "version") return p.Uint(&ver);
    if (key == "tag") return p.Uint(&tag);
    if (key == "error") return p.String(&error);
    if (key == "code") return p.String(&code);
    return p.Fail("unknown ack field '" + key + "'");
  }));
  if (!error.empty()) return StatusFromWireError(code, error);
  if (!ok) return Status::Internal("wire: ack line without ok or error");
  if (version != nullptr) *version = ver;
  return Status::OK();
}

std::string SerializeRequest(const EstimateRequest& req) {
  JsonWriter w;
  w.Field("x", req.x);
  w.Field("thresholds", req.thresholds);
  if (!req.model.empty()) w.Field("model", req.model);
  if (req.tag != 0) w.Field("tag", req.tag);
  if (req.has_deadline()) {
    // The budget REMAINING at serialization time; clamped so a deadline that
    // expired client-side still crosses the wire as an expired (0) budget
    // rather than a negative token.
    double remaining_ms =
        std::chrono::duration<double, std::milli>(
            req.deadline - std::chrono::steady_clock::now())
            .count();
    w.Field("deadline_ms", remaining_ms > 0.0 ? remaining_ms : 0.0);
  }
  // A caller-side sampled trace propagates as a flag: the remote attaches
  // its own RequestTrace and reports the stage block back in the response.
  if (req.wire_trace || req.trace) w.Field("trace", true);
  return w.Finish();
}

std::string SerializeResponse(const EstimateResponse& resp) {
  JsonWriter w;
  w.Field("estimates", resp.estimates);
  w.Field("model", resp.model);
  w.Field("version", resp.version);
  w.Field("cache_hits", uint64_t(resp.cache_hits));
  w.Field("fast_path", resp.fast_path);
  // Written only when set: pre-degrade responses stay byte-identical.
  if (resp.degraded) w.Field("degraded", true);
  // Wire-traced requests only: the answering process's per-stage span.
  if (!resp.stage_ms.empty()) w.Field("stage_ms", resp.stage_ms);
  if (resp.tag != 0) w.Field("tag", resp.tag);
  return w.Finish();
}

uint64_t ExtractTagBestEffort(const std::string& line) {
  size_t pos = line.find("\"tag\"");
  if (pos == std::string::npos) return 0;
  pos += 5;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos >= line.size() || line[pos] != ':') return 0;
  ++pos;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  uint64_t tag = 0;
  auto [ptr, ec] =
      std::from_chars(line.data() + pos, line.data() + line.size(), tag);
  (void)ptr;
  return ec == std::errc() ? tag : 0;
}

std::string SerializeError(const std::string& message, uint64_t tag) {
  return SerializeError(message, std::string(), tag);
}

std::string SerializeError(const std::string& message, const std::string& code,
                           uint64_t tag) {
  JsonWriter w;
  w.Field("error", message);
  if (!code.empty()) w.Field("code", code);
  if (tag != 0) w.Field("tag", tag);
  return w.Finish();
}

Status ParseResponseLine(const std::string& line, EstimateResponse* resp) {
  EstimateResponse parsed;
  std::string error;
  std::string code;
  uint64_t cache_hits = 0;
  LineParser p(line);
  SEL_RETURN_NOT_OK(ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "estimates") return p.FloatArray(&parsed.estimates);
    if (key == "model") return p.String(&parsed.model);
    if (key == "version") return p.Uint(&parsed.version);
    if (key == "cache_hits") return p.Uint(&cache_hits);
    if (key == "fast_path") {
      bool b = false;
      SEL_RETURN_NOT_OK(p.Bool(&b));
      parsed.fast_path = b;
      return Status::OK();
    }
    if (key == "degraded") {
      bool b = false;
      SEL_RETURN_NOT_OK(p.Bool(&b));
      parsed.degraded = b;
      return Status::OK();
    }
    if (key == "stage_ms") return p.FloatArray(&parsed.stage_ms);
    if (key == "tag") return p.Uint(&parsed.tag);
    if (key == "error") return p.String(&error);
    if (key == "code") return p.String(&code);
    return p.Fail("unknown response field '" + key + "'");
  }));
  if (!error.empty()) return StatusFromWireError(code, error);
  parsed.cache_hits = uint32_t(cache_hits);
  *resp = std::move(parsed);
  return Status::OK();
}

// ------------------------------------------------------- stats_wire codec ---

std::string SerializeStatsWire(const StatsSnapshot& s, uint64_t tag) {
  JsonWriter w;
  if (!s.node_id.empty()) w.Field("node", s.node_id);
  double uptime = s.uptime_s > 0.0 ? s.uptime_s : s.elapsed_seconds;
  w.Field("uptime_s", uptime);
  w.Field("requests", s.requests);
  w.Field("cache_hits", s.cache_hits);
  w.Field("cache_misses", s.cache_misses);
  w.Field("batches", s.batches);
  w.Field("batched_requests", s.batched_requests);
  w.Field("sweeps", s.sweeps);
  w.Field("sweep_fastpath", s.sweep_fastpath);
  w.Field("curve_hits", s.curve_hits);
  w.Field("curve_misses", s.curve_misses);
  w.Field("swaps", s.swaps);
  w.Field("traced", s.traced);
  for (size_t i = 1; i < kNumShedReasons && i < s.sheds.size(); ++i) {
    if (s.sheds[i] == 0) continue;
    w.Field(std::string("shed_") + ShedReasonName(ShedReason(i)), s.sheds[i]);
  }
  w.Field("degraded", s.degraded);
  w.Field("deadline_rows_dropped", s.deadline_rows_dropped);
  w.Field("deadline_rows_predicted", s.deadline_rows_predicted);
  w.Field("qps", s.qps);
  w.Field("elapsed_s", s.elapsed_seconds);
  w.Field("hist_latency", util::EncodeHistogramSnapshot(s.latency_hist));
  for (size_t i = 0; i < s.stage_hists.size() && i < kNumStages; ++i) {
    if (s.stage_hists[i].empty()) continue;
    w.Field(std::string("hist_stage_") + StageName(Stage(i)),
            util::EncodeHistogramSnapshot(s.stage_hists[i]));
  }
  if (tag != 0) w.Field("tag", tag);
  return w.Finish();
}

util::Result<StatsSnapshot> ParseStatsWireLine(const std::string& line) {
  StatsSnapshot s;
  s.stage_hists.resize(kNumStages);
  std::string error;
  std::string code;
  LineParser p(line);
  auto parse_float = [&p](double* out) -> Status {
    float v = 0.0f;
    SEL_RETURN_NOT_OK(p.Float(&v));
    *out = double(v);
    return Status::OK();
  };
  auto parse_hist = [&p](util::HistogramSnapshot* out) -> Status {
    std::string text;
    SEL_RETURN_NOT_OK(p.String(&text));
    auto decoded = util::DecodeHistogramSnapshot(text);
    if (!decoded.ok()) return decoded.status();
    *out = std::move(decoded).ValueOrDie();
    return Status::OK();
  };
  uint64_t tag = 0;
  Status st = ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "node") return p.String(&s.node_id);
    if (key == "uptime_s") return parse_float(&s.uptime_s);
    if (key == "requests") return p.Uint(&s.requests);
    if (key == "cache_hits") return p.Uint(&s.cache_hits);
    if (key == "cache_misses") return p.Uint(&s.cache_misses);
    if (key == "batches") return p.Uint(&s.batches);
    if (key == "batched_requests") return p.Uint(&s.batched_requests);
    if (key == "sweeps") return p.Uint(&s.sweeps);
    if (key == "sweep_fastpath") return p.Uint(&s.sweep_fastpath);
    if (key == "curve_hits") return p.Uint(&s.curve_hits);
    if (key == "curve_misses") return p.Uint(&s.curve_misses);
    if (key == "swaps") return p.Uint(&s.swaps);
    if (key == "traced") return p.Uint(&s.traced);
    if (key.rfind("shed_", 0) == 0) {
      std::string reason = key.substr(5);
      for (size_t i = 1; i < kNumShedReasons; ++i) {
        if (reason == ShedReasonName(ShedReason(i))) {
          return p.Uint(&s.sheds[i]);
        }
      }
      return p.Fail("unknown shed reason '" + reason + "'");
    }
    if (key == "degraded") return p.Uint(&s.degraded);
    if (key == "deadline_rows_dropped") return p.Uint(&s.deadline_rows_dropped);
    if (key == "deadline_rows_predicted") {
      return p.Uint(&s.deadline_rows_predicted);
    }
    if (key == "qps") return parse_float(&s.qps);
    if (key == "elapsed_s") return parse_float(&s.elapsed_seconds);
    if (key == "hist_latency") return parse_hist(&s.latency_hist);
    if (key.rfind("hist_stage_", 0) == 0) {
      std::string stage = key.substr(11);
      for (size_t i = 0; i < kNumStages; ++i) {
        if (stage == StageName(Stage(i))) return parse_hist(&s.stage_hists[i]);
      }
      return p.Fail("unknown stage '" + stage + "'");
    }
    if (key == "tag") return p.Uint(&tag);
    if (key == "error") return p.String(&error);
    if (key == "code") return p.String(&code);
    return p.Fail("unknown stats_wire field '" + key + "'");
  });
  if (!st.ok()) return st;
  if (!error.empty()) return Status::Internal(error);
  for (uint64_t shed : s.sheds) s.shed_total += shed;
  if (!s.latency_hist.empty()) {
    s.latency_p50_ms = s.latency_hist.ValueAtQuantile(0.50);
    s.latency_p99_ms = s.latency_hist.ValueAtQuantile(0.99);
    s.latency_mean_ms = s.latency_hist.MeanMs();
  }
  uint64_t lookups = s.cache_hits + s.cache_misses;
  if (lookups > 0) s.cache_hit_rate = double(s.cache_hits) / double(lookups);
  if (s.batches > 0) {
    s.avg_batch_size = double(s.batched_requests) / double(s.batches);
  }
  return s;
}

util::Result<std::string> ParseMetricsReply(const std::string& line) {
  std::string metrics;
  std::string error;
  std::string code;
  uint64_t tag = 0;
  bool have_metrics = false;
  LineParser p(line);
  Status st = ParseObject(&p, [&](const std::string& key) -> Status {
    if (key == "metrics") {
      have_metrics = true;
      return p.String(&metrics);
    }
    if (key == "tag") return p.Uint(&tag);
    if (key == "error") return p.String(&error);
    if (key == "code") return p.String(&code);
    return p.Fail("unknown metrics field '" + key + "'");
  });
  if (!st.ok()) return st;
  if (!error.empty()) return Status::Internal(error);
  if (!have_metrics) {
    return Status::Internal("wire: metrics reply without metrics or error");
  }
  return metrics;
}

// ------------------------------------------------------------- JsonWriter ---

void JsonWriter::Key(const std::string& key) {
  if (!first_) out_.push_back(',');
  first_ = false;
  out_.append(JsonQuote(key));
  out_.push_back(':');
}

JsonWriter& JsonWriter::Field(const std::string& key,
                              const std::string& value) {
  Key(key);
  out_.append(JsonQuote(value));
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, const char* value) {
  return Field(key, std::string(value));
}

JsonWriter& JsonWriter::Field(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    out_.append("null");
    return *this;
  }
  char buf[40];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out_.append(buf, ptr);
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, uint64_t value) {
  Key(key);
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key, bool value) {
  Key(key);
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key,
                              const std::vector<float>& values) {
  Key(key);
  out_.push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out_.push_back(',');
    AppendFloat(&out_, values[i]);
  }
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::RawField(const std::string& key,
                                 const std::string& raw) {
  Key(key);
  out_.append(raw);
  return *this;
}

std::string JsonWriter::Finish() {
  out_.push_back('}');
  return std::move(out_);
}

}  // namespace selnet::serve
