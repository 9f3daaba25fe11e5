#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

/// \file request.h
/// \brief The serving protocol: EstimateRequest in, EstimateResponse out.
///
/// One request carries one query vector and one *or many* thresholds, plus an
/// optional model route. This is the single entry shape for every serving
/// pattern:
///  * a scalar estimate is a request with one threshold — it joins the
///    cross-request coalesced batch like before;
///  * a threshold sweep is a request with K thresholds — answered in one pass
///    through the SweepCapable fast path when the routed model supports it
///    (from the cached curve of the same query when the curve cache holds
///    it), or transparently row-expanded into the batch scheduler when it
///    does not;
///  * A/B serving is two requests differing only in `model`.
///
/// The request owns its data (`x` and `thresholds` are copied in), so the
/// caller's buffers may be reused the moment Submit returns.
///
/// Both shapes travel over the wire as JSON lines (wire.h) or binary frames
/// (wire_binary.h), negotiated per connection. The binary frame carries `x`,
/// `thresholds`, and `estimates` as raw IEEE-754 little-endian bytes — a
/// remote estimate round-trips bit-identical to an in-process SubmitWith,
/// whereas the JSON path quantizes through decimal printing.

namespace selnet::serve {

class RequestTrace;

/// \brief One estimation request: a query, 1..K thresholds, and a route.
struct EstimateRequest {
  /// Registry slot to answer from; empty routes to the server's default
  /// model (`ServerConfig::model_name`).
  std::string model;
  /// The query vector; must hold exactly `ServerConfig::dim` floats.
  std::vector<float> x;
  /// Thresholds to estimate at; must be non-empty. When sorted ascending the
  /// response column is guaranteed non-decreasing (the paper's consistency
  /// guarantee, plus a running-max repair across cache-quantum artifacts).
  std::vector<float> thresholds;
  /// Opaque caller tag, echoed in the response.
  uint64_t tag = 0;
  /// Optional completion deadline on the STEADY monotonic clock (the
  /// default-constructed epoch means "no deadline"). A request whose
  /// deadline has passed is shed with a typed kDeadlineExpired error the
  /// moment the serving stack notices — at submit, or at the batch boundary
  /// before Predict (expired rows never reach the model). On the wire the
  /// deadline travels as a RELATIVE `deadline_ms` budget, anchored to this
  /// clock at decode time.
  std::chrono::steady_clock::time_point deadline{};

  /// \brief True when a deadline was set.
  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  /// Stage-trace span for a SAMPLED request (see trace.h); null for the
  /// untraced majority. Set by the NetFrontend (wire requests, so the decode
  /// stage is captured) or by SelNetServer::SubmitWith (in-process requests).
  /// The trace OBJECT never crosses the wire — a traced request serializes a
  /// `"trace":true` flag instead (see `wire_trace`), and the remote's
  /// response carries a per-stage timing block back.
  std::shared_ptr<RequestTrace> trace;
  /// True when the WIRE asked for tracing (`"trace":true` on the request
  /// line, the caller's `tag` doubling as its trace id): the frontend
  /// attaches a trace regardless of its sampling counter and returns the
  /// span's stage block in the response so the caller can attribute this
  /// process's share of the latency. Set by ParseRequestLine; serialized by
  /// SerializeRequest (also implied when `trace` is non-null — RemoteShard
  /// propagates a sampled trace downstream this way).
  bool wire_trace = false;

  /// \brief A single-threshold request (the scalar compatibility shape).
  static EstimateRequest Point(const float* x, size_t dim, float t,
                               std::string model = "") {
    EstimateRequest req;
    req.model = std::move(model);
    req.x.assign(x, x + dim);
    req.thresholds.assign(1, t);
    return req;
  }

  /// \brief A threshold-sweep request; pass `ts` sorted ascending to get the
  /// monotone-column guarantee.
  static EstimateRequest Sweep(const float* x, size_t dim,
                               std::vector<float> ts, std::string model = "") {
    EstimateRequest req;
    req.model = std::move(model);
    req.x.assign(x, x + dim);
    req.thresholds = std::move(ts);
    return req;
  }
};

/// \brief The answer to one EstimateRequest.
struct EstimateResponse {
  /// One estimate per requested threshold, in request order.
  std::vector<float> estimates;
  /// Registry slot that answered.
  std::string model;
  /// Model version the request was admitted against. Row-expanded requests
  /// resolve their snapshot when their batch starts, so after a concurrent
  /// republish individual estimates may come from a newer version.
  uint64_t version = 0;
  /// Always 0; both wire layouts still carry it. The server sets nothing
  /// here: a curve-cache answer is bit-identical to a fresh one, so response
  /// checkers may verify every response.
  uint32_t cache_hits = 0;
  /// True when the SweepCapable control-point fast path answered every
  /// threshold in one pass.
  bool fast_path = false;
  /// Echo of EstimateRequest::tag.
  uint64_t tag = 0;
  /// True when the admission controller shed the request but the route opted
  /// into degrade and the version-keyed cached sweep curve answered instead:
  /// estimates came from local PWL lookups, not a fresh model evaluation
  /// (bit-identical to the fast path for the cached version, but possibly a
  /// version behind the latest publish).
  bool degraded = false;
  /// Per-stage timing block for a WIRE-TRACED request (`"trace":true`): the
  /// answering frontend's span, one float per serve::Stage in enum order
  /// (the remote stages stay 0 — a shard_node reports only its own view;
  /// encode is also 0 since the block is serialized inside encode). Empty
  /// for untraced requests. RemoteShard consumes and STRIPS this before the
  /// caller's completion fires — it merges into the caller's RequestTrace,
  /// it is not part of the caller-visible response.
  std::vector<float> stage_ms;
};

}  // namespace selnet::serve
