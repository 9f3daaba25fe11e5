#include "serve/batch_scheduler.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "serve/admission.h"
#include "util/check.h"

namespace selnet::serve {

BatchScheduler::BatchScheduler(const SchedulerConfig& cfg, BatchFn batch_fn)
    : cfg_(cfg),
      batch_fn_(std::move(batch_fn)),
      pool_(cfg.pool != nullptr ? cfg.pool : &util::ThreadPool::Global()) {
  SEL_CHECK(cfg_.dim > 0);
  SEL_CHECK(cfg_.max_batch > 0);
  SEL_CHECK(batch_fn_ != nullptr);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

BatchScheduler::~BatchScheduler() { Shutdown(); }

void BatchScheduler::SubmitRows(std::vector<Row> rows) {
  if (rows.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (Row& row : rows) {
    SEL_CHECK(row.done != nullptr);
    SEL_CHECK_EQ(row.x.size(), cfg_.dim);
    row.enqueued = now;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    lock.unlock();
    auto err = std::make_exception_ptr(
        OverloadError(ShedReason::kShutdown, "BatchScheduler is shut down"));
    for (Row& row : rows) row.done(0.0f, err, RowTiming{});
    return;
  }
  // Only an empty->non-empty transition needs to arm the flusher's delay
  // timer (waking it per row would cost a futex wake on the hot path). An
  // inline flush below empties the queue, and the flusher may see it empty
  // during the handoff and go back to sleep, so any push can be one.
  bool arm_flusher = false;
  std::vector<Row> rejected;
  for (Row& row : rows) {
    // DispatchLocked drops the lock around the pool handoff, so Shutdown can
    // slip in mid-call: re-check and fail the remainder.
    if (stop_) {
      rejected.push_back(std::move(row));
      continue;
    }
    arm_flusher |= pending_.empty();
    pending_.push_back(std::move(row));
    if (pending_.size() >= cfg_.max_batch) DispatchLocked(&lock);
  }
  // One wake at most per call.
  if (arm_flusher && !pending_.empty()) work_cv_.notify_one();
  lock.unlock();
  if (!rejected.empty()) {
    auto err = std::make_exception_ptr(
        OverloadError(ShedReason::kShutdown, "BatchScheduler is shut down"));
    for (Row& row : rejected) row.done(0.0f, err, RowTiming{});
  }
}

void BatchScheduler::DispatchLocked(std::unique_lock<std::mutex>* lock) {
  if (pending_.empty()) return;
  std::vector<Row> batch;
  batch.swap(pending_);
  ++in_flight_batches_;
  lock->unlock();
  // Wrapped in shared_ptr because std::function requires a copyable callable
  // and copying a full batch of query vectors per dispatch would be wasteful.
  auto shared_batch = std::make_shared<std::vector<Row>>(std::move(batch));
  pool_->Submit([this, shared_batch] { RunBatch(std::move(*shared_batch)); });
  lock->lock();
}

void BatchScheduler::RunBatch(std::vector<Row> batch) {
  // Group rows by model route, preserving first-appearance order. The common
  // case is every row on one model; the linear scan over a handful of groups
  // is cheaper than hashing per row.
  std::vector<std::pair<const std::string*, std::vector<size_t>>> groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return *g.first == batch[i].model;
    });
    if (it == groups.end()) {
      groups.emplace_back(&batch[i].model, std::vector<size_t>{i});
    } else {
      it->second.push_back(i);
    }
  }

  for (const auto& [model, rows] : groups) {
    // Everything before this timestamp is queueing (scheduler buffering plus
    // pool wait); everything after is the batched compute the row rode in.
    // It is also the deadline cut: rows already expired here are dropped
    // before the matrices are built, so they never reach Predict.
    auto compute_start = std::chrono::steady_clock::now();
    auto timing_for = [&](const Row& row,
                          std::chrono::steady_clock::time_point done) {
      RowTiming timing;
      timing.queue_ms = std::chrono::duration<double, std::milli>(
                            compute_start - row.enqueued)
                            .count();
      timing.predict_ms =
          std::chrono::duration<double, std::milli>(done - compute_start)
              .count();
      timing.latency_ms =
          std::chrono::duration<double, std::milli>(done - row.enqueued)
              .count();
      return timing;
    };
    auto expired_at = [&](const Row& row,
                          std::chrono::steady_clock::time_point when) {
      return row.deadline != std::chrono::steady_clock::time_point{} &&
             row.deadline < when;
    };
    std::vector<size_t> live;
    live.reserve(rows.size());
    for (size_t i : rows) {
      if (expired_at(batch[i], compute_start)) {
        expired_rows_.fetch_add(1, std::memory_order_relaxed);
        batch[i].done(
            0.0f,
            std::make_exception_ptr(OverloadError(
                ShedReason::kDeadlineExpired,
                "BatchScheduler: deadline expired before Predict")),
            timing_for(batch[i], compute_start));
      } else {
        live.push_back(i);
      }
    }
    if (live.empty()) continue;
    tensor::Matrix x(live.size(), cfg_.dim);
    tensor::Matrix t(live.size(), 1);
    for (size_t i = 0; i < live.size(); ++i) {
      const Row& row = batch[live[i]];
      std::copy(row.x.begin(), row.x.end(), x.row(i));
      t(i, 0) = row.t;
    }
    try {
      tensor::Matrix y = batch_fn_(*model, x, t);
      SEL_CHECK_EQ(y.rows(), live.size());
      auto done = std::chrono::steady_clock::now();
      for (size_t i = 0; i < live.size(); ++i) {
        Row& row = batch[live[i]];
        // Invariant probe, same predicate and timestamp as the drop above:
        // a row expired at the batch boundary must never have been in the
        // live set. Stays 0 unless the filter regresses.
        if (expired_at(row, compute_start)) {
          expired_predicted_.fetch_add(1, std::memory_order_relaxed);
        }
        row.done(y(i, 0), nullptr, timing_for(row, done));
      }
    } catch (...) {
      std::exception_ptr err = std::current_exception();
      auto done = std::chrono::steady_clock::now();
      for (size_t i : live) {
        batch[i].done(0.0f, err, timing_for(batch[i], done));
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_batches_;
    // Notify under the lock: once the count hits zero with the lock free, a
    // waiter in Drain()/Shutdown() may return and destroy this object, so an
    // unlocked notify could touch a destroyed condition_variable.
    drain_cv_.notify_all();
  }
}

void BatchScheduler::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  auto delay = std::chrono::duration<double, std::milli>(cfg_.max_delay_ms);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (stop_ && pending_.empty()) return;
    // Oldest row sets the deadline; flush when it expires or the batch fills
    // (SubmitRows dispatches full batches itself, so waking with an empty
    // queue just loops back to waiting).
    auto deadline = pending_.front().enqueued +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(delay);
    work_cv_.wait_until(lock, deadline, [this, deadline] {
      return stop_ || pending_.empty() ||
             std::chrono::steady_clock::now() >= deadline;
    });
    if (!pending_.empty()) DispatchLocked(&lock);
    if (stop_ && pending_.empty()) return;
  }
}

void BatchScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!pending_.empty()) DispatchLocked(&lock);
  drain_cv_.wait(lock, [this] {
    return pending_.empty() && in_flight_batches_ == 0;
  });
}

void BatchScheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_ && !flusher_.joinable()) return;
    stop_ = true;
    if (!pending_.empty()) DispatchLocked(&lock);
  }
  work_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.empty() && in_flight_batches_ == 0;
  });
}

}  // namespace selnet::serve
