#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
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
  size_t start = 0;
  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped = stop_;
    if (!stopped) {
      for (Row& row : rows) pending_.push_back(std::move(row));
      // Start a runner for every max_batch rows that the queued runners will
      // not take, while a pool worker has none. With runners_ == 0 this
      // always starts one, so pending rows never strand.
      while (runners_ < pool_->num_threads() &&
             queued_runners_ * cfg_.max_batch < pending_.size()) {
        ++runners_;
        ++queued_runners_;
        ++start;
      }
    }
  }
  // runners_ > 0 keeps Shutdown (and so the destructor) waiting until these
  // tasks have run, so submitting them outside the lock is safe.
  for (size_t i = 0; i < start; ++i) pool_->Submit([this] { RunTurn(); });
  if (!stopped) return;
  auto err = std::make_exception_ptr(
      OverloadError(ShedReason::kShutdown, "BatchScheduler is shut down"));
  for (Row& row : rows) row.done(0.0f, err, RowTiming{});
}

void BatchScheduler::RunTurn() {
  std::vector<Row> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --queued_runners_;
    if (pending_.size() <= cfg_.max_batch) {
      batch.swap(pending_);
    } else {
      // Backpressure: take the oldest max_batch rows, leave the rest.
      auto cut = pending_.begin() + static_cast<std::ptrdiff_t>(cfg_.max_batch);
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(cut));
      pending_.erase(pending_.begin(), cut);
    }
  }
  if (!batch.empty()) RunBatch(std::move(batch));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Retire once the queued runners will take every pending row (always
    // when none are pending); otherwise take another turn.
    if (pending_.size() <= queued_runners_ * cfg_.max_batch) {
      --runners_;
      // Notify under the lock: once the count hits zero with the lock free,
      // a waiter in Drain()/Shutdown() may return and destroy this object,
      // so an unlocked notify could touch a destroyed condition_variable.
      drain_cv_.notify_all();
      return;
    }
    ++queued_runners_;
  }
  // Back of the pool's queue: tasks queued meanwhile run first.
  pool_->Submit([this] { RunTurn(); });
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
      if (y.rows() != live.size() || y.cols() < 1) {
        throw std::runtime_error(
            "BatchScheduler: batch fn for '" + *model + "' returned " +
            std::to_string(y.rows()) + "x" + std::to_string(y.cols()) +
            " for " + std::to_string(live.size()) + " rows");
      }
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
}

void BatchScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return pending_.empty() && runners_ == 0; });
}

void BatchScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  drain_cv_.wait(lock, [this] { return pending_.empty() && runners_ == 0; });
}

}  // namespace selnet::serve
