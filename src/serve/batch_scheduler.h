#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "util/thread_pool.h"

/// \file batch_scheduler.h
/// \brief Request coalescing: many single (x, t) rows -> few batched Predict
/// calls, routed per model.
///
/// Single-row SelNet prediction pays the full autograd-graph construction
/// cost per call; batching B rows through one forward pass amortizes it and
/// lets the GEMM kernels run at full width. Dispatch is work-conserving:
/// there is no timer. `SubmitRows` queues its rows and, when fewer runners
/// than pool workers are queued or running, starts a runner task on the
/// pool. A runner takes up to `max_batch` pending rows at the moment it
/// starts (not when it was queued), runs them, and re-queues itself on the
/// pool while rows remain, so other tasks sharing the pool keep their FIFO
/// turn; otherwise it retires. A lone row on an idle worker is answered at
/// once, and batches grow only while every worker is busy (backpressure).
///
/// Rows carry a model route: a runner turn groups its rows by model name (in
/// first-appearance order) and issues one batch function call per distinct
/// model, so requests to different registry slots coalesce independently
/// inside one runner turn. The batch function resolves the model snapshot
/// per call, which is what makes hot-swap work: a republished model takes
/// effect at the next batch boundary without failing in-flight rows.
///
/// One entry point, `SubmitRows`: the producer builds Rows, each with its own
/// completion callback (the server aggregates the K rows of one
/// EstimateRequest through them), and hands them over under one lock.
///
/// Deadlines: a row may carry a steady-clock deadline. At the batch
/// boundary — the `compute_start` timestamp that also splits queue vs
/// predict time — expired rows are dropped from the group BEFORE the x/t
/// matrices are built, and completed with a typed OverloadError
/// (kDeadlineExpired). A deadline that expires DURING Predict still gets its
/// computed value (the work was already spent); the guarantee is that no row
/// already expired at the batch boundary ever reaches the model.
/// `expired_rows()` counts the drops; `expired_predicted()` re-checks the
/// live set against the same timestamp after Predict and must stay 0 — the
/// scenario harness gates on it.

namespace selnet::serve {

/// \brief Batching policy.
struct SchedulerConfig {
  /// Query dimensionality. Required for standalone use; SelNetServer treats 0
  /// as "inherit ServerConfig::dim" and rejects any other mismatching value.
  size_t dim = 0;
  size_t max_batch = 64;  ///< Most rows one runner turn takes.
  /// Execution pool; null = Global(). At most `num_threads()` runners are
  /// queued or running on it at once.
  util::ThreadPool* pool = nullptr;
};

/// \brief Coalesces single estimate rows into batched Predict calls.
class BatchScheduler {
 public:
  /// Evaluates a B x dim query matrix and B x 1 thresholds against `model`
  /// into B x 1 estimates. Must be safe to call concurrently from pool
  /// workers. Throwing fails every row of that model group, and so does a
  /// result with other than B rows or with no column.
  using BatchFn = std::function<tensor::Matrix(
      const std::string& model, const tensor::Matrix& x,
      const tensor::Matrix& t)>;
  /// Per-row timing, split at the moment the row's batch started computing:
  /// `queue_ms` is scheduler buffering plus pool wait, `predict_ms` is the
  /// batch-function call the row rode in, and `latency_ms` is their sum
  /// (enqueue to completion).
  struct RowTiming {
    double latency_ms = 0.0;
    double queue_ms = 0.0;
    double predict_ms = 0.0;
  };
  /// Per-row completion: the estimate (or the error that failed its batch)
  /// plus the row's split timing. Invoked from a pool worker.
  using RowDoneFn = std::function<void(float value, std::exception_ptr error,
                                       const RowTiming& timing)>;

  /// One buffered row: a query routed to `model`, one threshold, and the
  /// completion that receives its estimate.
  struct Row {
    std::string model;
    std::vector<float> x;  ///< Exactly SchedulerConfig::dim floats.
    float t = 0.0f;
    RowDoneFn done;
    std::chrono::steady_clock::time_point enqueued;
    /// Droppable-row deadline; the default epoch means none.
    std::chrono::steady_clock::time_point deadline{};
  };

  BatchScheduler(const SchedulerConfig& cfg, BatchFn batch_fn);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// \brief Enqueue rows under ONE lock acquisition (a frontend read round
  /// that decoded N requests pays one mutex and starts runners only for
  /// idle workers). Each row's `done` must be set and fires when its batch
  /// runs (immediately, with a typed kShutdown error, if the scheduler is
  /// shut down); `enqueued` is stamped here with a single shared clock
  /// sample. A non-default `deadline` marks a row droppable: expired at the
  /// batch boundary -> completed with OverloadError(kDeadlineExpired)
  /// instead of predicted.
  void SubmitRows(std::vector<Row> rows);

  /// \brief Block until nothing is pending and no runner is left.
  void Drain();

  /// \brief Stop accepting work and drain; called by the destructor.
  void Shutdown();

  const SchedulerConfig& config() const { return cfg_; }

  /// \brief Rows dropped (typed kDeadlineExpired) at a batch boundary.
  uint64_t expired_rows() const {
    return expired_rows_.load(std::memory_order_relaxed);
  }
  /// \brief Invariant probe: rows that were ALREADY expired at their batch
  /// boundary yet rode a Predict anyway. Re-measured after every batch
  /// against the same compute_start timestamp the drop used; always 0 unless
  /// the drop filter regresses.
  uint64_t expired_predicted() const {
    return expired_predicted_.load(std::memory_order_relaxed);
  }

 private:
  /// One runner turn on a pool worker: take up to `max_batch` pending rows,
  /// run them, then re-queue while rows remain that the queued runners will
  /// not take, or retire.
  void RunTurn();
  /// Groups `batch` by model and makes one batch fn call per group.
  void RunBatch(std::vector<Row> batch);

  SchedulerConfig cfg_;
  BatchFn batch_fn_;
  util::ThreadPool* pool_;

  std::mutex mu_;
  std::condition_variable drain_cv_;  ///< Wakes Drain()/Shutdown().
  std::vector<Row> pending_;
  /// Runner tasks queued or running; never above pool_->num_threads(), and
  /// never 0 while rows are pending.
  size_t runners_ = 0;
  /// Runners queued on the pool that have not yet taken their rows.
  size_t queued_runners_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> expired_rows_{0};
  std::atomic<uint64_t> expired_predicted_{0};
};

}  // namespace selnet::serve
