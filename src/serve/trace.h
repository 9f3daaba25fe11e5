#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

/// \file trace.h
/// \brief Per-request stage tracing: where a request's wall time goes.
///
/// A request crosses five local stages end to end:
///
///   decode -> route -> queue -> predict -> encode
///   (wire     (registry (scheduler (batch     (response
///    parse)    resolve)  wait /     compute /   serialize,
///                        pool wait) sweep eval) frontend only)
///
/// Three REMOTE stages attribute the hop when a replica in another process
/// served the request (fleet mode): the remote `shard_node` reports its own
/// queue/predict time in the response's stage block, which RemoteShard
/// merges into the caller's trace as remote_queue / remote_predict, and
/// remote_wire is the whole caller-observed round trip for that hop — so
/// remote_wire - (remote_queue + remote_predict) is the residual wire +
/// framing + remote decode/encode cost, and remote_queue + remote_predict
/// <= remote_wire by construction.
///
/// Tracing is SAMPLED: ServerConfig::trace_sample_every picks 1-in-N
/// requests (the NetFrontend applies the same rate to wire requests so the
/// decode stage is captured before the server ever sees the request). A
/// sampled request carries one shared RequestTrace through the request
/// object; each stage records its elapsed milliseconds into it, and the
/// server flushes the finished span into ServeStats — per-stage histograms
/// for the aggregate view, plus a bounded slow-request ring that keeps the
/// full span breakdown of any traced request slower than
/// ServerConfig::slow_trace_ms (dumped by ServeStats::Report and the
/// {"cmd":"slow"} admin request).
///
/// Untraced requests never touch a clock beyond what the serving path
/// already reads, so the steady-state overhead is one atomic counter
/// increment per request (see bench/serve_throughput part 7 for the gate).

namespace selnet::serve {

/// \brief Request stages, in request order.
enum class Stage : size_t {
  kDecode = 0,  ///< Wire line -> EstimateRequest (frontend only).
  kRoute,       ///< Registry/shard resolve + snapshot pin.
  kQueue,          ///< Scheduler queue / pool wait before compute started.
  kPredict,        ///< Batched Predict / sweep evaluation.
  kEncode,         ///< Response serialization (frontend only).
  kRemoteQueue,    ///< Queue stage reported by the remote replica.
  kRemotePredict,  ///< Predict stage reported by the remote replica.
  kRemoteWire,     ///< Whole remote round trip as the caller observed it.
};
constexpr size_t kNumStages = 8;
/// Stages a single process observes about itself (the remote stages exist
/// only on the caller side of a cross-process hop). A shard_node's wire
/// stage block carries this prefix of the span.
constexpr size_t kNumLocalStages = 5;

/// \brief Stable lowercase stage name ("decode", "route", ...).
const char* StageName(Stage s);

/// \brief One finished sampled request: the full span breakdown.
struct SpanRecord {
  std::string route;
  uint64_t tag = 0;
  double total_ms = 0.0;  ///< Admission to completion, wall time.
  std::array<double, kNumStages> stage_ms = {};

  /// \brief Flat JSON object (route, tag, total_ms, one field per stage).
  std::string ToJson() const;
};

/// \brief In-flight span accumulator for one sampled request.
///
/// Carried by shared_ptr on EstimateRequest. Observe() keeps the MAX per
/// stage: single-shot stages (decode, route) observe once, while the
/// per-row stages (queue, predict) may observe once per scheduler row of a
/// sweep — the max is the request's critical path through that stage.
/// Mutex-guarded: only sampled requests pay it, and a request's rows rarely
/// contend (different batches).
class RequestTrace {
 public:
  RequestTrace() : start_(std::chrono::steady_clock::now()) {}

  void Observe(Stage s, double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t i = size_t(s);
    if (ms > stage_ms_[i]) stage_ms_[i] = ms;
  }

  /// \brief Close the span: total = now - construction time.
  SpanRecord Finish(const std::string& route, uint64_t tag) const {
    SpanRecord span;
    span.route = route;
    span.tag = tag;
    span.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    std::lock_guard<std::mutex> lock(mu_);
    span.stage_ms = stage_ms_;
    return span;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::array<double, kNumStages> stage_ms_ = {};
};

}  // namespace selnet::serve
