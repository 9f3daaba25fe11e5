#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/pwl.h"
#include "serve/update_pipeline.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace selnet::serve {

using util::Result;

/// Aggregation state for one in-flight EstimateRequest. Rows (or the sweep
/// job) write disjoint estimate slots from pool workers; whoever completes
/// the last slot finalizes the completion callback.
struct SelNetServer::PendingResponse {
  ResponseFn done;
  EstimateResponse resp;
  bool sorted = false;               ///< Thresholds ascending -> repair pass.
  std::atomic<size_t> remaining{0};  ///< Outstanding scheduler rows.
  std::mutex err_mu;
  std::exception_ptr error;
  /// Sampled-request span (null for the untraced majority); flushed into
  /// `stats` when the request finalizes.
  std::shared_ptr<RequestTrace> trace;
  ServeStats* stats = nullptr;
  /// Per-route accumulator (set once routing succeeded); deadline and
  /// shutdown sheds surfacing through Finalize are charged here.
  ServeStats::RouteStats* route_stats = nullptr;

  void RecordError(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!error) error = std::move(e);
  }

  /// Invoke `done` exactly once: the first recorded error wins; otherwise
  /// repair a sorted sweep to a non-decreasing column. The served estimator
  /// is monotone, but cache hits may come from a quantized-neighbour query
  /// and fallback rows may straddle a republish, either of which can dent
  /// the column by a hair — the running max restores the documented
  /// guarantee unconditionally.
  void Finalize() {
    // Close and flush the sampled span first: per-stage histograms plus the
    // slow-request ring. Encode (frontend serialization) happens after this
    // callback, so wire deployments account it in the frontend's own
    // histogram and a slow span's encode column reads 0.
    if (trace && stats != nullptr) {
      stats->RecordSpan(trace->Finish(resp.model, resp.tag));
    }
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (error) {
        // A typed overload failure (deadline expired in queue, scheduler
        // shutdown) is a shed: one count per request, not per row.
        ShedReason reason = ShedReasonFrom(error);
        if (reason != ShedReason::kNone && stats != nullptr) {
          stats->RecordShed(reason);
          if (route_stats != nullptr) route_stats->RecordShed();
        }
        done(EstimateResponse{}, error);
        return;
      }
    }
    if (sorted) {
      for (size_t i = 1; i < resp.estimates.size(); ++i) {
        resp.estimates[i] = std::max(resp.estimates[i], resp.estimates[i - 1]);
      }
    }
    done(std::move(resp), nullptr);
  }
};

SelNetServer::SelNetServer(const ServerConfig& cfg)
    : cfg_(cfg), cache_(cfg.cache) {
  SEL_CHECK_MSG(cfg_.dim > 0, "ServerConfig.dim is required");
  // Satellite of the dim-duplication fix: ServerConfig.dim is the single
  // source of truth. A scheduler dim of 0 inherits it; anything else must
  // already agree — silently overwriting a conflicting value hid bugs.
  SEL_CHECK_MSG(
      cfg_.scheduler.dim == 0 || cfg_.scheduler.dim == cfg_.dim,
      "SchedulerConfig.dim conflicts with ServerConfig.dim; leave it 0");
  cfg_.scheduler.dim = cfg_.dim;
  stats_.ConfigureSlowTrace(cfg_.slow_trace_ms, cfg_.slow_trace_capacity);
  pool_ = cfg_.scheduler.pool != nullptr ? cfg_.scheduler.pool
                                         : &util::ThreadPool::Global();
  if (cfg_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(cfg_.admission);
  }
  if (cfg_.enable_batching) {
    scheduler_ = std::make_unique<BatchScheduler>(
        cfg_.scheduler,
        [this](const std::string& model, const tensor::Matrix& x,
               const tensor::Matrix& t) { return PredictOnModel(model, x, t); });
    // Snapshot() folds the scheduler's deadline-row counters in live; the
    // scheduler outlives every snapshot taken while serving.
    stats_.SetDeadlineRowSource([sched = scheduler_.get()] {
      return std::make_pair(sched->expired_rows(), sched->expired_predicted());
    });
  }
}

SelNetServer::~SelNetServer() {
  // Stop the update pipeline first: its worker publishes into the registry
  // and records stats, both of which must still be alive while it drains.
  pipeline_.reset();
  if (scheduler_) scheduler_->Shutdown();
  // Fast-path sweep jobs reference this object; wait for this server's own
  // jobs (not the whole pool — it is typically shared).
  std::unique_lock<std::mutex> lock(sweep_mu_);
  sweep_cv_.wait(lock, [this] { return sweep_inflight_ == 0; });
}

uint64_t SelNetServer::Publish(std::shared_ptr<eval::Estimator> model) {
  return Publish(cfg_.model_name, std::move(model));
}

uint64_t SelNetServer::Publish(const std::string& name,
                               std::shared_ptr<eval::Estimator> model) {
  uint64_t version = registry_.Publish(name, std::move(model));
  stats_.RecordSwap();
  return version;
}

Result<uint64_t> SelNetServer::PublishFromFile(const std::string& path) {
  return PublishFromFile(cfg_.model_name, path);
}

Result<uint64_t> SelNetServer::PublishFromFile(const std::string& name,
                                               const std::string& path) {
  Result<uint64_t> version = registry_.PublishFromFile(name, path);
  if (version.ok()) stats_.RecordSwap();
  return version;
}

Result<uint64_t> SelNetServer::PublishFromBytes(const std::string& name,
                                                const std::string& bytes,
                                                const std::string& origin) {
  Result<uint64_t> version = registry_.PublishFromBytes(name, bytes, origin);
  if (version.ok()) stats_.RecordSwap();
  return version;
}

LiveUpdatePipeline& SelNetServer::AttachUpdatePipeline(
    const UpdatePipelineConfig& cfg, const data::Database& db,
    const data::Workload& workload) {
  pipeline_.reset();  // Stop a previous pipeline before starting the next.
  pipeline_ = std::make_unique<LiveUpdatePipeline>(this, cfg, db, workload);
  return *pipeline_;
}

void SelNetServer::DetachUpdatePipeline() { pipeline_.reset(); }

tensor::Matrix SelNetServer::PredictOnHandle(const ModelHandle& handle,
                                             const tensor::Matrix& x,
                                             const tensor::Matrix& t) {
  tensor::Matrix y = handle.model->Predict(x, t);
  if (y.rows() != x.rows() || y.cols() < 1) {
    // A wrong-shaped result is a bug in the *published model*: fail its
    // rows before anything reads y, never the process.
    throw std::runtime_error(
        "SelNetServer: Predict on '" + handle.name + "' returned " +
        std::to_string(y.rows()) + "x" + std::to_string(y.cols()) + " for " +
        std::to_string(x.rows()) + " rows");
  }
  stats_.RecordBatch(x.rows());
  if (cfg_.enable_cache) {
    for (size_t i = 0; i < x.rows(); ++i) {
      // Rows come from different requests: one digest each.
      uint64_t digest = cache_.QueryDigest(x.row(i), cfg_.dim);
      cache_.Insert(cache_.Key(handle.version, digest, t(i, 0)), y(i, 0));
    }
  }
  return y;
}

tensor::Matrix SelNetServer::PredictOnModel(const std::string& model,
                                            const tensor::Matrix& x,
                                            const tensor::Matrix& t) {
  Result<ModelHandle> handle = registry_.Get(model);
  if (!handle.ok()) {
    throw std::runtime_error("SelNetServer: " + handle.status().ToString());
  }
  return PredictOnHandle(handle.ValueOrDie(), x, t);
}

void SelNetServer::RunSweepFastPath(
    const std::shared_ptr<PendingResponse>& state, const EstimateRequest& req,
    const ModelHandle& handle, const std::vector<size_t>& missing,
    uint64_t digest, std::chrono::steady_clock::time_point enqueued,
    ServeStats::RouteStats* route_stats) {
  // On the pooled path everything before this point was pool wait; that is
  // the fast path's queue stage.
  const auto compute_start = std::chrono::steady_clock::now();
  if (state->trace) {
    state->trace->Observe(
        Stage::kQueue, std::chrono::duration<double, std::milli>(
                           compute_start - enqueued)
                           .count());
  }
  // Same cut as the scheduler's batch boundary: a deadline that expired
  // while this job waited for a pool worker sheds before any evaluation.
  if (req.has_deadline() && req.deadline < compute_start) {
    state->RecordError(std::make_exception_ptr(OverloadError(
        ShedReason::kDeadlineExpired,
        "SelNetServer: deadline expired before sweep evaluation")));
    state->Finalize();
    return;
  }
  try {
    std::vector<float> ts(missing.size());
    for (size_t r = 0; r < missing.size(); ++r) {
      ts[r] = req.thresholds[missing[r]];
    }
    // Sweep-curve cache: if this (version, query)'s PWL control points are
    // cached — or the model can hand them to us — answer every threshold
    // with local PWL lookups. On a hit the network is skipped entirely; the
    // arithmetic mirrors SelNetCt::SweepEstimate, so values are bit-identical
    // to the uncached fast path. Independent of the scalar cache flag; the
    // capability is probed first so ServeStats and EstimateCache curve
    // counters agree exactly.
    std::vector<float> values;
    if (cfg_.enable_curve_cache &&
        handle.model.sweep()->SupportsSweepCurve()) {
      uint64_t curve_key = cache_.CurveKey(handle.version, digest);
      CurveEntry entry;
      bool hit = cache_.LookupCurve(curve_key, &entry);
      stats_.RecordCurveLookup(hit);
      if (!hit &&
          handle.model.sweep()->SweepCurve(req.x.data(), &entry.tau,
                                           &entry.p)) {
        cache_.InsertCurve(curve_key, entry);
      }
      if (!entry.tau.empty()) {
        core::PiecewiseLinear pwl(std::move(entry.tau), std::move(entry.p));
        values.resize(ts.size());
        for (size_t r = 0; r < ts.size(); ++r) values[r] = pwl(ts[r]);
      }
    }
    if (values.empty()) {
      values =
          handle.model.sweep()->SweepEstimate(req.x.data(), ts.data(), ts.size());
    }
    if (values.size() != missing.size()) {
      // A SweepCapable contract violation is a bug in the *published model*,
      // not a server invariant — fail the request, never the process.
      throw std::runtime_error(
          "SelNetServer: SweepEstimate on '" + handle.name + "' returned " +
          std::to_string(values.size()) + " values for " +
          std::to_string(missing.size()) + " thresholds");
    }
    // Latency from submit (pool queueing included), recorded undivided per
    // threshold: every threshold waited the full wall time, exactly like
    // scheduler rows record their full enqueue -> batch-done time.
    auto finished = std::chrono::steady_clock::now();
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(finished - enqueued).count();
    if (state->trace) {
      state->trace->Observe(
          Stage::kPredict, std::chrono::duration<double, std::milli>(
                               finished - compute_start)
                               .count());
    }
    for (size_t r = 0; r < missing.size(); ++r) {
      state->resp.estimates[missing[r]] = values[r];
      if (cfg_.enable_cache) {
        cache_.Insert(cache_.Key(handle.version, digest, ts[r]), values[r]);
      }
      stats_.RecordLatencyMs(elapsed_ms);
      route_stats->RecordLatencyMs(elapsed_ms);
    }
  } catch (...) {
    state->RecordError(std::current_exception());
  }
  state->Finalize();
}

bool SelNetServer::TryDegrade(const EstimateRequest& req,
                              const std::string& route,
                              const ResponseFn& done) {
  if (!cfg_.enable_curve_cache) return false;
  Result<ModelHandle> handle = registry_.Get(route);
  if (!handle.ok()) return false;
  const ModelHandle& h = handle.ValueOrDie();
  uint64_t key =
      cache_.CurveKey(h.version, cache_.QueryDigest(req.x.data(), cfg_.dim));
  CurveEntry entry;
  bool hit = cache_.LookupCurve(key, &entry);
  stats_.RecordCurveLookup(hit);
  if (!hit || entry.tau.empty()) return false;
  // Strictly a cache read + local PWL arithmetic: bit-identical to the
  // curve-cached fast path for this version, but possibly a version behind
  // the latest publish — that staleness is the degrade contract.
  core::PiecewiseLinear pwl(std::move(entry.tau), std::move(entry.p));
  EstimateResponse resp;
  resp.model = route;
  resp.version = h.version;
  resp.tag = req.tag;
  resp.degraded = true;
  resp.estimates.resize(req.thresholds.size());
  for (size_t i = 0; i < req.thresholds.size(); ++i) {
    resp.estimates[i] = pwl(req.thresholds[i]);
  }
  stats_.RecordDegraded();
  done(std::move(resp), nullptr);
  return true;
}

void SelNetServer::SubmitWith(EstimateRequest req, ResponseFn done) {
  std::vector<BatchScheduler::Row> rows;
  SubmitOne(std::move(req), std::move(done), &rows);
  if (!rows.empty()) scheduler_->SubmitRows(std::move(rows));
}

void SelNetServer::SubmitMany(std::vector<Submission> batch) {
  std::vector<BatchScheduler::Row> rows;
  for (Submission& s : batch) {
    SubmitOne(std::move(s.req), std::move(s.done), &rows);
  }
  if (!rows.empty()) scheduler_->SubmitRows(std::move(rows));
}

void SelNetServer::SubmitOne(EstimateRequest req, ResponseFn done,
                             std::vector<BatchScheduler::Row>* rows) {
  SEL_CHECK(done != nullptr);
  // Malformed requests fail the request, never the process: this is client
  // input, not a server invariant.
  if (req.x.size() != cfg_.dim || req.thresholds.empty()) {
    done(EstimateResponse{},
         std::make_exception_ptr(std::invalid_argument(
             "SelNetServer: EstimateRequest must carry ServerConfig.dim "
             "floats in x (got " +
             std::to_string(req.x.size()) + ", want " +
             std::to_string(cfg_.dim) + ") and at least one threshold")));
    return;
  }
  // Overload gate, before any routing or compute. Order matters: a request
  // whose deadline already passed must not consume an admission ticket.
  if (req.has_deadline() && std::chrono::steady_clock::now() >= req.deadline) {
    stats_.RecordShed(ShedReason::kDeadlineExpired);
    done(EstimateResponse{},
         std::make_exception_ptr(OverloadError(
             ShedReason::kDeadlineExpired,
             "SelNetServer: deadline already expired at submit")));
    return;
  }
  if (admission_) {
    // Effective route, resolved without touching the registry or the route
    // map: sheds stay O(1) even under adversarial route names.
    const std::string& route = req.model.empty() ? cfg_.model_name : req.model;
    AdmissionController::Decision decision = admission_->Admit(route);
    if (!decision.admitted) {
      stats_.RecordShed(decision.reason);
      if (decision.try_degrade && TryDegrade(req, route, done)) return;
      done(EstimateResponse{},
           std::make_exception_ptr(OverloadError(
               decision.reason, std::string("SelNetServer: overloaded (") +
                                    ShedReasonName(decision.reason) +
                                    ") on route '" + route + "'")));
      return;
    }
    // Hand the ticket back exactly once, on whichever thread completes the
    // request (success, shed, or failure alike).
    done = [this, inner = std::move(done)](EstimateResponse&& resp,
                                           std::exception_ptr error) {
      admission_->Release();
      inner(std::move(resp), error);
    };
  }
  const size_t k = req.thresholds.size();
  // Stage-trace sampling: wire requests may arrive with a trace the frontend
  // attached (decode already recorded); otherwise sample 1-in-N here. The
  // untraced majority pays exactly this one relaxed increment.
  if (!req.trace && cfg_.trace_sample_every > 0 &&
      trace_counter_.fetch_add(1, std::memory_order_relaxed) %
              cfg_.trace_sample_every ==
          0) {
    req.trace = std::make_shared<RequestTrace>();
  }
  const bool traced = req.trace != nullptr;
  if (traced) stats_.RecordTraced();
  auto state = std::make_shared<PendingResponse>();
  state->done = std::move(done);
  state->resp.model =
      req.model.empty() ? cfg_.model_name : std::move(req.model);
  state->resp.estimates.assign(k, 0.0f);
  state->resp.tag = req.tag;
  state->sorted =
      k > 1 && std::is_sorted(req.thresholds.begin(), req.thresholds.end());
  state->trace = req.trace;
  state->stats = &stats_;
  const auto enqueued = std::chrono::steady_clock::now();
  auto stage_ms_since = [](std::chrono::steady_clock::time_point from) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - from)
        .count();
  };

  // One logical estimate per threshold: QPS and hit-rate stay comparable
  // across request shapes.
  for (size_t i = 0; i < k; ++i) stats_.RecordRequest();

  // Pin the routed snapshot: the cache pre-pass, the fast path, and the
  // unbatched fallback all answer against this version.
  Result<ModelHandle> handle = registry_.Get(state->resp.model);
  if (!handle.ok()) {
    if (handle.status().code() == util::StatusCode::kNotFound) {
      state->RecordError(std::make_exception_ptr(RouteNotFoundError(
          "SelNetServer: " + handle.status().message())));
    } else {
      state->RecordError(std::make_exception_ptr(
          std::runtime_error("SelNetServer: " + handle.status().ToString())));
    }
    state->Finalize();
    return;
  }
  const ModelHandle& h = handle.ValueOrDie();
  state->resp.version = h.version;

  // Per-route accumulator: resolved once per request (stable pointer), only
  // for routes that actually exist — a typo'd route cannot grow the map.
  ServeStats::RouteStats* route_stats = stats_.Route(state->resp.model);
  state->route_stats = route_stats;
  route_stats->RecordRequests(k);
  if (traced) req.trace->Observe(Stage::kRoute, stage_ms_since(enqueued));

  const auto cache_start = traced ? std::chrono::steady_clock::now() : enqueued;
  // One quantized-query hash per request; every key below derives from it.
  const uint64_t digest = cfg_.enable_cache || cfg_.enable_curve_cache
                              ? cache_.QueryDigest(req.x.data(), cfg_.dim)
                              : 0;
  std::vector<size_t> missing;
  missing.reserve(k);
  if (cfg_.enable_cache) {
    for (size_t i = 0; i < k; ++i) {
      uint64_t key = cache_.Key(h.version, digest, req.thresholds[i]);
      if (cache_.Lookup(key, &state->resp.estimates[i])) {
        stats_.RecordCacheHit();
        route_stats->RecordCache(true);
        ++state->resp.cache_hits;
      } else {
        stats_.RecordCacheMiss();
        route_stats->RecordCache(false);
        missing.push_back(i);
      }
    }
    if (traced) req.trace->Observe(Stage::kCache, stage_ms_since(cache_start));
  } else {
    for (size_t i = 0; i < k; ++i) missing.push_back(i);
  }

  bool fast_path = cfg_.enable_sweep_fastpath && h.model.sweep_capable() &&
                   missing.size() >= cfg_.sweep_fastpath_min;
  if (k > 1) stats_.RecordSweep(fast_path);
  if (missing.empty()) {
    state->Finalize();
    return;
  }

  if (fast_path) {
    state->resp.fast_path = true;
    if (scheduler_) {
      // Off the caller's thread, like any other miss. shared_ptr wrappers
      // because ThreadPool tasks must be copyable.
      auto shared_req = std::make_shared<EstimateRequest>(std::move(req));
      auto shared_missing =
          std::make_shared<std::vector<size_t>>(std::move(missing));
      {
        std::lock_guard<std::mutex> lock(sweep_mu_);
        ++sweep_inflight_;
      }
      pool_->Submit([this, state, shared_req, h, shared_missing, digest,
                     enqueued, route_stats] {
        RunSweepFastPath(state, *shared_req, h, *shared_missing, digest,
                         enqueued, route_stats);
        std::lock_guard<std::mutex> lock(sweep_mu_);
        --sweep_inflight_;
        sweep_cv_.notify_all();
      });
    } else {
      RunSweepFastPath(state, req, h, missing, digest, enqueued, route_stats);
    }
    return;
  }

  if (scheduler_) {
    // Row expansion: each missing threshold becomes a scheduler row that
    // coalesces with other requests' rows. Rows resolve their snapshot when
    // their batch starts; the sorted-sweep repair in Finalize absorbs any
    // mid-sweep republish.
    state->remaining.store(missing.size(), std::memory_order_relaxed);
    for (size_t idx : missing) {
      BatchScheduler::Row row;
      row.model = state->resp.model;
      row.x = req.x;
      row.t = req.thresholds[idx];
      row.deadline = req.deadline;
      row.done = [this, state, idx, route_stats](
                     float value, std::exception_ptr error,
                     const BatchScheduler::RowTiming& timing) {
        if (error) {
          state->RecordError(std::move(error));
        } else {
          state->resp.estimates[idx] = value;
          stats_.RecordLatencyMs(timing.latency_ms);
          route_stats->RecordLatencyMs(timing.latency_ms);
        }
        if (state->trace) {
          // Observe keeps the max across rows: the request's critical
          // path through the scheduler.
          state->trace->Observe(Stage::kQueue, timing.queue_ms);
          state->trace->Observe(Stage::kPredict, timing.predict_ms);
        }
        if (state->remaining.fetch_sub(1) == 1) state->Finalize();
      };
      rows->push_back(std::move(row));
    }
    return;
  }

  // Unbatched path: one Predict over the missing rows on the pinned
  // snapshot, inline on the caller (the throughput baseline).
  util::Stopwatch watch;
  try {
    tensor::Matrix xm(missing.size(), cfg_.dim);
    tensor::Matrix tm(missing.size(), 1);
    for (size_t r = 0; r < missing.size(); ++r) {
      std::copy(req.x.begin(), req.x.end(), xm.row(r));
      tm(r, 0) = req.thresholds[missing[r]];
    }
    tensor::Matrix y = PredictOnHandle(h, xm, tm);
    // Undivided per threshold, consistent with the other paths: each
    // threshold waited the whole Predict.
    double elapsed_ms = watch.ElapsedMillis();
    if (state->trace) state->trace->Observe(Stage::kPredict, elapsed_ms);
    for (size_t r = 0; r < missing.size(); ++r) {
      state->resp.estimates[missing[r]] = y(r, 0);
      stats_.RecordLatencyMs(elapsed_ms);
      route_stats->RecordLatencyMs(elapsed_ms);
    }
  } catch (...) {
    state->RecordError(std::current_exception());
  }
  state->Finalize();
}

void SelNetServer::Drain() {
  if (scheduler_) scheduler_->Drain();
  // Fast-path sweep jobs run directly on the pool; wait for this server's
  // own jobs only (the pool is typically shared with other servers).
  std::unique_lock<std::mutex> lock(sweep_mu_);
  sweep_cv_.wait(lock, [this] { return sweep_inflight_ == 0; });
}

}  // namespace selnet::serve
