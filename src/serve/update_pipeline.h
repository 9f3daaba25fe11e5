#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/updater.h"
#include "data/database.h"
#include "data/workload.h"
#include "tensor/matrix.h"

/// \file update_pipeline.h
/// \brief The live-update pipeline: async ingest -> label patch -> drift
/// check -> shadow retrain -> atomic republish, without blocking the serve
/// path.
///
/// The Section 5.4 update machinery (core::UpdateManager) is synchronous: it
/// mutates the database, the workload labels, and the model in place — none
/// of which a serving snapshot may tolerate. LiveUpdatePipeline bridges the
/// two worlds with a shadow-state design:
///
///   clients                 pipeline thread                 serving threads
///      |                          |                               |
///  Submit(op) --> [ingest queue] -+                               |
///      |   (short mutex push,     |                               |
///      |    never blocks on       v                               |
///      |    training)      UpdateManager::Apply                   |
///      |                   on SHADOW db/workload/model            |
///      |                    * label patch (ParallelFor)           |
///      |                    * drift check (delta_U)               |
///      |                    * drift tripped -> IncrementalFit     |
///      |                          |                               |
///      |                  CloneServable() of the shadow           |
///      |                          |                               |
///      |             ShardedRegistry::Publish(route) -----------> |
///      |               (one serialization, fan-out to every       |
///      |                replica, bytes kept for resync; each      |
///      |                swap is one registry pointer swap)        |
///
/// Threading/ownership contract:
///  * The pipeline owns deep copies of the database and workload taken at
///    attach time, plus a shadow model cloned from the snapshot a local
///    replica of the route serves (core::IncrementalModel::CloneServable).
///    The pipeline thread is the ONLY thread that ever touches any of them.
///  * Serving threads only ever see registry snapshots, which are immutable
///    after Publish: every republish ships a fresh CloneServable() copy of
///    the shadow (fresh autograd leaves and pack caches, fold caches
///    invalidated), so later shadow training can never write into a served
///    model. Zero queries fail or block during a republish.
///  * Submit() may be called from any thread; it only takes the short queue
///    mutex (bounded by UpdatePipelineConfig::max_pending_ops), never waits
///    on training.

namespace selnet::serve {

class ServeStats;
class ShardedRegistry;

/// \brief Policy knobs for an attached pipeline.
struct UpdatePipelineConfig {
  /// Route to track and republish; empty = the router's default model
  /// name.
  std::string model_name;
  /// Drift threshold (delta_U), retrain patience and epoch cap — forwarded
  /// to core::UpdateManager.
  core::UpdatePolicy policy;
  /// Ingest-queue bound; Submit returns false (and counts a rejection) when
  /// this many ops are already pending. Backpressure, not silent loss.
  size_t max_pending_ops = 1024;
  /// Scheduling class for the pipeline thread (Linux; ignored elsewhere).
  /// Retraining is throughput work, serving is latency work: with
  /// SCHED_IDLE the kernel runs the retrain only in the serve threads'
  /// scheduling gaps, which keeps serve-path tail latency flat through a
  /// retrain even when cores are scarce (bench/serve_throughput part 4 gates
  /// retrain-concurrent p99 at <= 2x idle). When disabled (or off-Linux) the
  /// thread falls back to `background_nice`. Sustained 100%-CPU serve load
  /// can starve an idle-class retrain; the bounded ingest queue then pushes
  /// back on Submit rather than growing silently.
  bool background_idle_sched = true;
  /// Nice value used when background_idle_sched is off (0 = inherit).
  int background_nice = 10;
};

/// \brief Point-in-time pipeline progress (mirrored into ServeStats).
struct UpdatePipelineState {
  uint64_t ops_ingested = 0;   ///< Accepted onto the queue.
  uint64_t ops_rejected = 0;   ///< Bounced off the full queue.
  uint64_t ops_applied = 0;    ///< Fully applied to the shadow state.
  /// Ops whose application threw (e.g. allocation failure mid-retrain). The
  /// op is dropped, the worker keeps running — a shadow-side failure must
  /// never take the serving process down. The shadow may be missing these
  /// ops' effects relative to the true database; a caller seeing this grow
  /// should re-attach the pipeline from fresh state.
  uint64_t ops_failed = 0;
  uint64_t records_inserted = 0;
  uint64_t records_deleted = 0;
  uint64_t retrains_triggered = 0;
  uint64_t epochs_run = 0;     ///< Total incremental epochs across retrains.
  uint64_t publishes = 0;      ///< Versions shipped through the registry.
  double last_drift = 0.0;     ///< MAE drift at the most recent drift check.
  double baseline_mae = 0.0;   ///< UpdateManager's current drift baseline.
  double last_mae = 0.0;       ///< Validation MAE after the last applied op.
  uint64_t last_published_version = 0;
  bool idle = true;            ///< Queue empty and no op being applied.
};

/// \brief Background update pipeline bound to one ShardedRegistry route
/// (ShardedRegistry::AttachUpdatePipeline is the attach point).
///
/// Construction clones the model a local replica of the route serves (which
/// must implement core::IncrementalModel::CloneServable — both SelNet
/// variants do) and starts the worker thread. Counters go to that replica's
/// ServeStats; every retrain republishes through ShardedRegistry::Publish,
/// so it reaches every replica of the route. Destruction (or Stop) drains
/// nothing — pending ops are dropped, the in-flight op finishes first. Use
/// Flush() to wait for full application instead.
class LiveUpdatePipeline {
 public:
  /// \brief `db` and `workload` are deep-copied as the shadow state; they
  /// must describe the data the served model was trained on. Aborts if the
  /// route has no local replica, is empty there, or its model cannot be
  /// cloned/retrained.
  LiveUpdatePipeline(ShardedRegistry* router, const UpdatePipelineConfig& cfg,
                     const data::Database& db, const data::Workload& workload);
  ~LiveUpdatePipeline();

  LiveUpdatePipeline(const LiveUpdatePipeline&) = delete;
  LiveUpdatePipeline& operator=(const LiveUpdatePipeline&) = delete;

  /// \brief Enqueue one insert/delete batch; returns false when the pipeline
  /// is stopping or the queue is at max_pending_ops (the op is NOT applied —
  /// the caller may retry after backpressure clears).
  bool Submit(core::UpdateOp op);

  /// \brief Block until every accepted op has been fully applied (labels
  /// patched, drift checked, any retrain + republish done).
  void Flush();

  /// \brief Stop the worker: the in-flight op (and its republish) completes,
  /// queued ops are discarded, Submit starts returning false. Idempotent.
  void Stop();

  UpdatePipelineState Snapshot() const;

  /// \brief The route this pipeline republishes to.
  const std::string& route() const { return route_; }

  /// \brief Deep copy of the shadow model's parameter values. Waits for the
  /// pipeline to go idle first, so the copy is a consistent post-op state
  /// (test/debug hook — the shadow-retrain equivalence test diffs this
  /// against a direct incremental fit).
  std::vector<tensor::Matrix> ShadowParamsSnapshot();

 private:
  void WorkerLoop();
  void ApplyOne(const core::UpdateOp& op);

  ShardedRegistry* router_;
  UpdatePipelineConfig cfg_;
  std::string route_;
  ServeStats* stats_ = nullptr;  ///< The local replica's: the counters.

  // Shadow state: pipeline-thread-only after construction.
  data::Database db_;
  data::Workload workload_;
  std::shared_ptr<eval::Estimator> shadow_;      ///< Owns the shadow model.
  core::IncrementalModel* shadow_inc_ = nullptr; ///< Same object, update view.
  std::unique_ptr<core::UpdateManager> manager_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Wakes the worker.
  std::condition_variable idle_cv_;  ///< Wakes Flush/ShadowParamsSnapshot.
  std::deque<core::UpdateOp> queue_;
  bool busy_ = false;  ///< An op is being applied outside the lock.
  bool stop_ = false;

  // Progress counters; written by the worker (and Submit for ingest),
  // read by Snapshot from any thread.
  std::atomic<uint64_t> ops_ingested_{0};
  std::atomic<uint64_t> ops_rejected_{0};
  std::atomic<uint64_t> ops_applied_{0};
  std::atomic<uint64_t> ops_failed_{0};
  std::atomic<uint64_t> records_inserted_{0};
  std::atomic<uint64_t> records_deleted_{0};
  std::atomic<uint64_t> retrains_{0};
  std::atomic<uint64_t> epochs_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<double> last_drift_{0.0};
  std::atomic<double> baseline_mae_{0.0};
  std::atomic<double> last_mae_{0.0};
  std::atomic<uint64_t> last_version_{0};

  std::thread worker_;  ///< Started last, joined by Stop.
};

}  // namespace selnet::serve
