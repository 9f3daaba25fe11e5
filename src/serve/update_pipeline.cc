#include "serve/update_pipeline.h"

#include <utility>

#include "nn/module.h"
#include "serve/shard_router.h"
#include "util/check.h"
#include "util/logging.h"

#if defined(__linux__)
#include <sched.h>
#include <sys/resource.h>
#endif

namespace selnet::serve {

LiveUpdatePipeline::LiveUpdatePipeline(ShardedRegistry* router,
                                       const UpdatePipelineConfig& cfg,
                                       const data::Database& db,
                                       const data::Workload& workload)
    : router_(router),
      cfg_(cfg),
      route_(cfg.model_name.empty() ? router->config().server.model_name
                                    : cfg.model_name),
      db_(db),
      workload_(workload) {
  SelNetServer* local = router_->LocalServerOf(route_);
  SEL_CHECK_MSG(local != nullptr,
                ("LiveUpdatePipeline: route '" + route_ +
                 "' has no local replica to clone the model from")
                    .c_str());
  stats_ = &local->stats();
  util::Result<ModelHandle> handle = local->registry().Get(route_);
  SEL_CHECK_MSG(handle.ok(),
                "LiveUpdatePipeline: no model published under the route");
  const auto* incremental = dynamic_cast<const core::IncrementalModel*>(
      handle.ValueOrDie().model.get());
  SEL_CHECK_MSG(incremental != nullptr,
                "LiveUpdatePipeline: served model is not incrementally "
                "trainable (core::IncrementalModel)");
  shadow_ = incremental->CloneServable();
  SEL_CHECK_MSG(shadow_ != nullptr,
                "LiveUpdatePipeline: served model does not support "
                "CloneServable");
  shadow_inc_ = dynamic_cast<core::IncrementalModel*>(shadow_.get());
  SEL_CHECK_MSG(shadow_inc_ != nullptr,
                "LiveUpdatePipeline: clone lost the IncrementalModel view");

  // The manager drives the Section 5.4 loop over the SHADOW triple; its
  // constructor computes the drift baseline (one validation pass). Label
  // patching stays serial on this (deprioritized) thread: ParallelFor would
  // fan normal-priority chunks onto the pool the serve path runs on.
  core::UpdatePolicy policy = cfg_.policy;
  policy.parallel_label_patch = false;
  eval::TrainContext ctx;  // db/workload are overwritten by the manager.
  manager_ = std::make_unique<core::UpdateManager>(&db_, &workload_,
                                                   shadow_inc_, ctx, policy);
  baseline_mae_.store(manager_->baseline_mae(), std::memory_order_relaxed);
  worker_ = std::thread([this] { WorkerLoop(); });
}

LiveUpdatePipeline::~LiveUpdatePipeline() { Stop(); }

bool LiveUpdatePipeline::Submit(core::UpdateOp op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= cfg_.max_pending_ops) {
      ops_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    queue_.push_back(std::move(op));
  }
  ops_ingested_.fetch_add(1, std::memory_order_relaxed);
  stats_->RecordUpdateOps(1);
  work_cv_.notify_one();
  return true;
}

void LiveUpdatePipeline::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void LiveUpdatePipeline::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    queue_.clear();
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

UpdatePipelineState LiveUpdatePipeline::Snapshot() const {
  UpdatePipelineState s;
  s.ops_ingested = ops_ingested_.load(std::memory_order_relaxed);
  s.ops_rejected = ops_rejected_.load(std::memory_order_relaxed);
  s.ops_applied = ops_applied_.load(std::memory_order_relaxed);
  s.ops_failed = ops_failed_.load(std::memory_order_relaxed);
  s.records_inserted = records_inserted_.load(std::memory_order_relaxed);
  s.records_deleted = records_deleted_.load(std::memory_order_relaxed);
  s.retrains_triggered = retrains_.load(std::memory_order_relaxed);
  s.epochs_run = epochs_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.last_drift = last_drift_.load(std::memory_order_relaxed);
  s.baseline_mae = baseline_mae_.load(std::memory_order_relaxed);
  s.last_mae = last_mae_.load(std::memory_order_relaxed);
  s.last_published_version = last_version_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.idle = queue_.empty() && !busy_;
  }
  return s;
}

std::vector<tensor::Matrix> LiveUpdatePipeline::ShadowParamsSnapshot() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  // The worker is parked on work_cv_ (or exited); its writes to the shadow
  // happened-before our mutex acquisition, so reading here is race-free.
  const auto* module = dynamic_cast<const nn::Module*>(shadow_.get());
  if (module == nullptr) return {};
  return nn::SnapshotParams(module->Params());
}

void LiveUpdatePipeline::WorkerLoop() {
#if defined(__linux__)
  // Retraining is throughput work and must lose scheduling ties to the
  // latency-sensitive serve threads. SCHED_IDLE (unprivileged) runs this
  // thread only in their gaps; the nice fallback still biases the CFS
  // weights when idle-class is unavailable or disabled. who=0 with
  // PRIO_PROCESS addresses the calling thread on Linux.
  bool idle_applied = false;
  if (cfg_.background_idle_sched) {
    struct sched_param param = {};
    idle_applied = sched_setscheduler(0, SCHED_IDLE, &param) == 0;
  }
  if (!idle_applied && cfg_.background_nice != 0) {
    setpriority(PRIO_PROCESS, 0, cfg_.background_nice);
  }
#endif
  for (;;) {
    core::UpdateOp op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) idle_cv_.notify_all();
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        idle_cv_.notify_all();
        return;
      }
      op = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    // A shadow-side failure (training allocation, a model bug) must never
    // escape the thread — that would std::terminate the serving process the
    // pipeline exists to protect. Drop the op, count it, keep running.
    try {
      ApplyOne(op);
    } catch (const std::exception& e) {
      ops_failed_.fetch_add(1, std::memory_order_relaxed);
      util::LogInfo("update pipeline: op dropped, apply threw: %s", e.what());
    } catch (...) {
      ops_failed_.fetch_add(1, std::memory_order_relaxed);
      util::LogInfo("update pipeline: op dropped, apply threw");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      if (queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void LiveUpdatePipeline::ApplyOne(const core::UpdateOp& op) {
  double baseline_before = manager_->baseline_mae();
  core::UpdateResult result = manager_->Apply(op);

  if (op.is_insert) {
    records_inserted_.fetch_add(op.vectors.size(), std::memory_order_relaxed);
  } else {
    records_deleted_.fetch_add(op.ids.size(), std::memory_order_relaxed);
  }
  double drift = result.mae_before - baseline_before;
  last_drift_.store(drift, std::memory_order_relaxed);
  last_mae_.store(result.mae_after, std::memory_order_relaxed);
  baseline_mae_.store(manager_->baseline_mae(), std::memory_order_relaxed);
  stats_->RecordDriftCheck(drift, result.retrained, result.epochs);

  if (result.retrained) {
    retrains_.fetch_add(1, std::memory_order_relaxed);
    epochs_.fetch_add(result.epochs, std::memory_order_relaxed);
    // Republish a deep copy of the retrained shadow: the served snapshot is
    // immutable from birth (fresh leaves, invalidated fold/pack caches — the
    // CloneServable contract), so the pipeline may keep training the shadow
    // while this version serves. The router serializes it once, fans it out
    // to every replica of the route and keeps the bytes for resync; each
    // swap is one registry pointer swap, and in-flight batches finish on the
    // snapshot they pinned.
    std::shared_ptr<eval::Estimator> snapshot = shadow_inc_->CloneServable();
    uint64_t version = router_->Publish(route_, std::move(snapshot));
    last_version_.store(version, std::memory_order_relaxed);
    publishes_.fetch_add(1, std::memory_order_relaxed);
    stats_->RecordPipelinePublish();
    util::LogDebug(
        "update pipeline: drift %.3f tripped on '%s'; retrained %zu epochs "
        "(MAE %.2f -> %.2f), republished as v%llu",
        drift, route_.c_str(), result.epochs, result.mae_before,
        result.mae_after, (unsigned long long)version);
  }
  ops_applied_.fetch_add(1, std::memory_order_relaxed);
  stats_->RecordUpdateApplied(1);
}

}  // namespace selnet::serve
