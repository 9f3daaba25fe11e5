#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/admission.h"
#include "serve/batch_scheduler.h"
#include "serve/estimate_cache.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/serve_stats.h"
#include "util/status.h"

/// \file server.h
/// \brief SelNetServer: the serving facade tying registry, scheduler, cache
/// and stats into one request-object endpoint.
///
/// Request path — SubmitWith(EstimateRequest, ResponseFn):
///   1. resolve the routed registry slot and pin its snapshot;
///   2. cache lookup per threshold on (version, quantized x, t); a fully
///      cached request resolves immediately;
///   3. remaining thresholds:
///        * SweepCapable model and >= sweep_fastpath_min misses -> ONE
///          control-point evaluation answers them all (K PWL lookups instead
///          of K batched Predict rows), on a pool worker;
///        * otherwise -> row expansion into the BatchScheduler, where the
///          rows coalesce with other requests (any model mix; each batch
///          groups by route);
///   4. completion fills the cache, repairs sorted sweeps to a non-decreasing
///      column, and invokes the caller's ResponseFn.
///
/// SubmitMany is the same path for a batch of requests: their scheduler rows
/// reach the BatchScheduler in one SubmitRows call.
///
/// Hot-swap: Publish() installs a new snapshot in the registry. Scheduler
/// rows resolve their snapshot when a worker starts their batch, so
/// in-flight rows finish on whichever version they were batched against and
/// nothing fails mid-swap; fast-path sweeps run entirely on the snapshot
/// pinned at submit. Cache keys embed the version, so a swap implicitly
/// invalidates — stale entries stop matching and age out of the LRU.
///
/// Consistency dividend (the paper's monotonicity guarantee): because served
/// estimators are monotone in t, a sorted sweep's response column is
/// non-decreasing; the fast path gets this from the monotone PWL directly and
/// the fallback applies a running-max repair across cache-quantum and
/// mid-sweep-swap artifacts.
///
/// Overload behavior (ServerConfig::admission, off by default): before any
/// routing or compute, SubmitWith checks the request's deadline (already
/// expired -> typed kDeadlineExpired shed) and asks the per-server
/// AdmissionController for a ticket (priority-watermarked inflight budget;
/// over budget -> typed kQueueFull / kPriorityShed). A shed route that opted
/// into degrade may instead be answered from the version-keyed cached sweep
/// curve — a local PWL evaluation, zero model compute, response marked
/// `degraded`. Admitted requests release their ticket on completion, and
/// their deadline rides along: the fast path re-checks it at compute start
/// and the BatchScheduler drops expired rows at the batch boundary, so no
/// expired row ever reaches Predict. Every shed is a typed OverloadError and
/// lands in ServeStats per reason.

namespace selnet::serve {

class LiveUpdatePipeline;
struct UpdatePipelineConfig;

/// \brief Serving configuration.
struct ServerConfig {
  size_t dim = 0;  ///< Query dimensionality (required; the single source of
                   ///  truth — scheduler.dim must be 0 ("inherit") or equal).
  std::string model_name = "default";  ///< Registry slot served by default.
  SchedulerConfig scheduler;
  CacheConfig cache;
  bool enable_cache = true;
  bool enable_batching = true;  ///< false = direct per-request Predict
                                ///  (the bench baseline).
  /// Use the SweepCapable control-point path for multi-threshold requests
  /// when the routed model supports it (off = always row-expand; the bench
  /// uses this to measure the fallback).
  bool enable_sweep_fastpath = true;
  /// Minimum uncached thresholds before the fast path engages; below this a
  /// scalar-shaped request batches better with its neighbours.
  size_t sweep_fastpath_min = 2;
  /// Sweep-curve cache: store each query's whole PWL control-point set keyed
  /// on (model version, quantized x) when the routed model reports
  /// eval::SweepCapable::SupportsSweepCurve. A repeat query at NEW
  /// thresholds then skips the network entirely — the server evaluates the
  /// cached PWL, which is bit-identical to the model's own sweep path (same
  /// quantized-neighbour caveat as the scalar cache). Independent of
  /// `enable_cache` (it only feeds the sweep fast path); sized by
  /// CacheConfig::curve_capacity.
  bool enable_curve_cache = false;
  /// Stage-trace sampling: trace 1 in N requests end to end (0 = tracing
  /// off). A request arriving WITH a trace already attached (the NetFrontend
  /// samples wire requests itself, so the decode stage is captured) is
  /// honored regardless of this rate.
  size_t trace_sample_every = 0;
  /// Traced requests slower than this keep their full span breakdown in the
  /// bounded slow-request ring (ServeStats::SlowSpans, the {"cmd":"slow"}
  /// admin request, and the Report() slow section).
  double slow_trace_ms = 50.0;
  size_t slow_trace_capacity = 32;  ///< Slow-ring length.
  /// Overload admission control (AdmissionConfig::enabled = false keeps the
  /// pre-admission behavior bit-for-bit: no ticket, no shed path).
  AdmissionConfig admission;
};

/// \brief Typed "no model published under this route" submit failure.
/// Distinct from a generic runtime_error so the frontend can serialize it
/// with code "not_found" — the replication layer treats a remote replica's
/// not_found as retryable (a restarted shard awaiting re-sync, or a route
/// replicated to local slots only, may still be served by another replica),
/// which a string match could never do safely.
class RouteNotFoundError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief A servable, estimator-agnostic selectivity-estimation endpoint.
class SelNetServer {
 public:
  explicit SelNetServer(const ServerConfig& cfg);
  ~SelNetServer();

  SelNetServer(const SelNetServer&) = delete;
  SelNetServer& operator=(const SelNetServer&) = delete;

  /// \brief Publish a trained estimator under the configured default name;
  /// returns the assigned version. The caller must not mutate the model
  /// afterwards. Any eval::Estimator serves — SelNet or a baseline.
  uint64_t Publish(std::shared_ptr<eval::Estimator> model);

  /// \brief Publish under an explicit registry slot, making served A/B
  /// comparison a one-liner: route requests via EstimateRequest::model.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<eval::Estimator> model);

  /// \brief Load a core::SaveModel file and publish it (default slot).
  util::Result<uint64_t> PublishFromFile(const std::string& path);

  /// \brief Load a core::SaveModel file and publish it under `name`.
  util::Result<uint64_t> PublishFromFile(const std::string& name,
                                         const std::string& path);

  /// \brief Deserialize SaveModel-format bytes (a state transfer) and
  /// publish under `name`; `origin` names the byte source in errors.
  util::Result<uint64_t> PublishFromBytes(const std::string& name,
                                          const std::string& bytes,
                                          const std::string& origin);

  /// \brief The served snapshot of `name` as SaveModel-format bytes — the
  /// state-transfer payload for replicating this route to a remote shard.
  util::Result<std::string> SnapshotModelBytes(const std::string& name) const {
    return registry_.SnapshotBytes(name);
  }

  /// \brief Completion callback for SubmitWith: exactly one of the response
  /// (success) or the exception (failure) is meaningful. May be invoked from
  /// the caller's thread (cache hit, validation error, unbatched path) or a
  /// pool worker.
  using ResponseFn =
      std::function<void(EstimateResponse&& response, std::exception_ptr error)>;

  /// \brief The one entry point: submit a request carrying 1..K thresholds
  /// and receive the response through `done`. A malformed request (wrong x
  /// dimensionality, empty thresholds) or an absent route fails the request,
  /// never the server.
  void SubmitWith(EstimateRequest req, ResponseFn done);

  /// \brief One request + its completion, for the batched entry point.
  struct Submission {
    EstimateRequest req;
    ResponseFn done;
  };

  /// \brief Submit many requests at once (the frontend's batched-decode
  /// path: one read round of binary frames arrives as one call). Semantics
  /// are identical to per-request SubmitWith — validation, admission, cache,
  /// and fast path all run per request — but every scheduler row the batch
  /// produces is enqueued under ONE scheduler lock acquisition, which starts
  /// runners only for idle pool workers, instead of one acquisition per row.
  void SubmitMany(std::vector<Submission> batch);

  /// \brief Block until every accepted request has been answered.
  void Drain();

  /// \brief Attach a live-update pipeline to `cfg.model_name` (empty = the
  /// default route): a background thread that ingests UpdateOp batches,
  /// applies them to a shadow copy of `db` + `workload`, retrains a clone of
  /// the served model when validation-MAE drift trips, and republishes
  /// through the registry — serving never blocks. The route must already be
  /// published with a model implementing core::IncrementalModel. Replaces
  /// (stopping) any previously attached pipeline. The server owns the
  /// pipeline; the reference stays valid until Detach or destruction.
  LiveUpdatePipeline& AttachUpdatePipeline(const UpdatePipelineConfig& cfg,
                                           const data::Database& db,
                                           const data::Workload& workload);

  /// \brief Stop and destroy the attached pipeline (no-op when absent).
  void DetachUpdatePipeline();

  /// \brief The attached pipeline, or null.
  LiveUpdatePipeline* update_pipeline() { return pipeline_.get(); }

  ModelRegistry& registry() { return registry_; }
  EstimateCache& cache() { return cache_; }
  ServeStats& stats() { return stats_; }
  const ServerConfig& config() const { return cfg_; }
  /// \brief The admission controller, or null when admission is disabled.
  AdmissionController* admission() { return admission_.get(); }

  std::string StatsReport() const { return stats_.Report(); }

 private:
  struct PendingResponse;

  /// The body of both entry points: validation, admission, cache, fast
  /// path. Row-expanded thresholds are appended to `rows`; the caller hands
  /// them to the scheduler in one SubmitRows.
  void SubmitOne(EstimateRequest req, ResponseFn done,
                 std::vector<BatchScheduler::Row>* rows);

  /// Run one batched Predict on `handle`'s snapshot: stats + cache fill.
  tensor::Matrix PredictOnHandle(const ModelHandle& handle,
                                 const tensor::Matrix& x,
                                 const tensor::Matrix& t);
  /// Resolve `model` in the registry (throws on absence) and predict.
  tensor::Matrix PredictOnModel(const std::string& model,
                                const tensor::Matrix& x,
                                const tensor::Matrix& t);
  /// Answer `missing` thresholds of `req` through one SweepCapable pass.
  /// `enqueued` is the submit time, so recorded latency includes pool queue
  /// delay and stays comparable with scheduler-row latency. `digest` is
  /// `req.x`'s EstimateCache::QueryDigest (0 with both caches off);
  /// `route_stats` is the request's per-route accumulator.
  void RunSweepFastPath(const std::shared_ptr<PendingResponse>& state,
                        const EstimateRequest& req, const ModelHandle& handle,
                        const std::vector<size_t>& missing, uint64_t digest,
                        std::chrono::steady_clock::time_point enqueued,
                        ServeStats::RouteStats* route_stats);
  /// Degrade instead of shedding: answer `req` from the version-keyed cached
  /// sweep curve (local PWL evaluation, zero model compute) when the curve
  /// cache holds this query's control points. Returns false — caller sheds —
  /// when the curve cache is off, the route is absent, or the curve is not
  /// cached; never computes a fresh curve (that would be the compute the
  /// shed is protecting).
  bool TryDegrade(const EstimateRequest& req, const std::string& route,
                  const ResponseFn& done);

  ServerConfig cfg_;
  ModelRegistry registry_;
  EstimateCache cache_;
  ServeStats stats_;
  std::unique_ptr<AdmissionController> admission_;  ///< Null = admission off.
  std::unique_ptr<BatchScheduler> scheduler_;  ///< Null when batching is off.
  /// Destroyed before the scheduler: the pipeline's final republish must not
  /// outlive the serving machinery it publishes into.
  std::unique_ptr<LiveUpdatePipeline> pipeline_;
  util::ThreadPool* pool_;  ///< Fast-path sweep execution (batching on).

  /// Fast-path jobs in flight on the (possibly shared) pool. Drain and the
  /// destructor wait on this count, not on the whole pool — blocking on
  /// another server's unrelated work would make Drain unbounded.
  std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  size_t sweep_inflight_ = 0;

  /// Round-robin position for 1-in-N trace sampling; the untraced majority
  /// pays exactly this one relaxed increment.
  std::atomic<uint64_t> trace_counter_{0};
};

}  // namespace selnet::serve
