#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "baselines/kde.h"
#include "core/model_io.h"
#include "core/selnet_partitioned.h"
#include "data/synthetic.h"
#include "serve/admission.h"
#include "serve/batch_scheduler.h"
#include "serve/estimate_cache.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/servable.h"
#include "serve/serve_stats.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "serve/update_pipeline.h"
#include "util/stopwatch.h"
#include "serve_await.h"

namespace selnet::serve {
namespace {

using tensor::Matrix;

// ------------------------------------------------------------------ cache ---

TEST(EstimateCacheTest, QuantizationCollapsesNearbyInputs) {
  CacheConfig cfg;
  cfg.query_quantum = 1e-3f;
  EstimateCache cache(cfg);
  float a[2] = {0.5f, 0.5f};
  float b[2] = {0.5f + 1e-5f, 0.5f};  // Within one quantum of a.
  float c[2] = {0.6f, 0.5f};          // Far from a.
  EXPECT_EQ(cache.CurveKey(1, cache.QueryDigest(a, 2)),
            cache.CurveKey(1, cache.QueryDigest(b, 2)));
  EXPECT_NE(cache.CurveKey(1, cache.QueryDigest(a, 2)),
            cache.CurveKey(1, cache.QueryDigest(c, 2)));
}

TEST(EstimateCacheTest, ModelVersionChangesKey) {
  EstimateCache cache;
  float x[2] = {0.5f, 0.5f};
  EXPECT_NE(cache.CurveKey(1, cache.QueryDigest(x, 2)),
            cache.CurveKey(2, cache.QueryDigest(x, 2)));
}

TEST(EstimateCacheTest, CurveEntriesRoundTrip) {
  EstimateCache cache;
  float x[2] = {0.5f, 0.5f};
  uint64_t key = cache.CurveKey(7, cache.QueryDigest(x, 2));
  EXPECT_NE(key, cache.CurveKey(8, cache.QueryDigest(x, 2)));  // Version-keyed.
  CurveEntry entry;
  EXPECT_FALSE(cache.LookupCurve(key, &entry));
  cache.InsertCurve(key, CurveEntry{{0.0f, 0.5f, 1.0f}, {0.0f, 2.0f, 3.0f}});
  ASSERT_TRUE(cache.LookupCurve(key, &entry));
  EXPECT_EQ(entry.tau, (std::vector<float>{0.0f, 0.5f, 1.0f}));
  EXPECT_EQ(entry.p, (std::vector<float>{0.0f, 2.0f, 3.0f}));
  EXPECT_EQ(cache.curve_hits(), 1u);
  EXPECT_EQ(cache.curve_misses(), 1u);
  EXPECT_EQ(cache.curve_size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.curve_size(), 0u);
  EXPECT_FALSE(cache.LookupCurve(key, &entry));
}

TEST(EstimateCacheTest, EvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.curve_capacity = 4;
  cfg.shards = 1;  // One shard so global LRU order is deterministic.
  EstimateCache cache(cfg);
  float x[1];
  std::vector<uint64_t> keys;
  for (int i = 0; i < 4; ++i) {
    x[0] = float(i);
    keys.push_back(cache.CurveKey(1, cache.QueryDigest(x, 1)));
    cache.InsertCurve(keys.back(), CurveEntry{{0.0f, 1.0f}, {0.0f, float(i)}});
  }
  // Touch key 0 so key 1 is now the LRU entry.
  CurveEntry entry;
  ASSERT_TRUE(cache.LookupCurve(keys[0], &entry));
  x[0] = 99.0f;
  cache.InsertCurve(cache.CurveKey(1, cache.QueryDigest(x, 1)),
                    CurveEntry{{0.0f, 1.0f}, {0.0f, 99.0f}});
  EXPECT_EQ(cache.curve_size(), 4u);
  EXPECT_TRUE(cache.LookupCurve(keys[0], &entry));
  EXPECT_FALSE(cache.LookupCurve(keys[1], &entry));  // Evicted.
  EXPECT_TRUE(cache.LookupCurve(keys[2], &entry));
  EXPECT_TRUE(cache.LookupCurve(keys[3], &entry));
  EXPECT_EQ(entry.p, (std::vector<float>{0.0f, 3.0f}));
}

TEST(EstimateCacheTest, ConcurrentInsertLookupIsSafe) {
  CacheConfig cfg;
  cfg.curve_capacity = 256;
  EstimateCache cache(cfg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      float x[1];
      for (int i = 0; i < 2000; ++i) {
        x[0] = float((t * 131 + i) % 512);
        uint64_t key = cache.CurveKey(1, cache.QueryDigest(x, 1));
        CurveEntry entry;
        if (!cache.LookupCurve(key, &entry)) {
          cache.InsertCurve(key, CurveEntry{{0.0f, 1.0f}, {0.0f, x[0]}});
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.curve_size(), 256u);
  EXPECT_GT(cache.curve_hits() + cache.curve_misses(), 0u);
}

TEST(EstimateCacheTest, NonFiniteAndOutOfRangeValuesGetDistinctKeys) {
  // llround has no int64 result for any of these; none may alias another.
  EstimateCache cache;
  const float inf = std::numeric_limits<float>::infinity();
  const float xs[] = {std::nanf(""), inf, -inf, 1e15f, -3e17f};
  std::set<uint64_t> x_keys;
  for (float v : xs) {
    x_keys.insert(cache.CurveKey(1, cache.QueryDigest(&v, 1)));
  }
  EXPECT_EQ(x_keys.size(), 5u);
  // NaN is canonicalized: every payload is the same query.
  uint32_t other_nan_bits = 0x7fa00001u;
  float other_nan;
  std::memcpy(&other_nan, &other_nan_bits, sizeof(other_nan));
  EXPECT_EQ(cache.QueryDigest(&xs[0], 1), cache.QueryDigest(&other_nan, 1));
}

TEST(EstimateCacheTest, KeysSpreadEvenlyOverShards) {
  // The cache picks a shard from key % shards; consecutive grid points must
  // still land evenly.
  EstimateCache cache;
  const size_t shards = CacheConfig().shards;
  const size_t n = 4096;
  std::vector<size_t> curve(shards, 0);
  float x[4] = {0.0f, 0.25f, 0.5f, 0.75f};
  for (size_t i = 0; i < n; ++i) {
    x[0] = float(i) * 1e-5f;
    ++curve[cache.CurveKey(1, cache.QueryDigest(x, 4)) % shards];
  }
  const size_t limit = 2 * n / shards;
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_LE(curve[s], limit) << "curve shard " << s;
  }
}

// --------------------------------------------------------------- registry ---

TEST(ModelRegistryTest, GetUnknownNameIsNotFound) {
  ModelRegistry registry;
  auto handle = registry.Get("nope");
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(registry.VersionOf("nope"), 0u);
}

TEST(ModelRegistryTest, PublishAssignsIncreasingVersions) {
  ModelRegistry registry;
  core::SelNetConfig cfg;
  cfg.input_dim = 4;
  cfg.tmax = 1.0f;
  uint64_t v1 = registry.Publish("a", std::make_shared<core::SelNetCt>(cfg));
  uint64_t v2 = registry.Publish("a", std::make_shared<core::SelNetCt>(cfg));
  uint64_t v3 = registry.Publish("b", std::make_shared<core::SelNetCt>(cfg));
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
  EXPECT_EQ(registry.VersionOf("a"), v2);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.Remove("b").ok());
  EXPECT_FALSE(registry.Remove("b").ok());
}

TEST(ModelRegistryTest, OldHandleSurvivesRepublish) {
  ModelRegistry registry;
  core::SelNetConfig cfg;
  cfg.input_dim = 4;
  cfg.tmax = 1.0f;
  registry.Publish("m", std::make_shared<core::SelNetCt>(cfg));
  auto old_handle = registry.Get("m");
  ASSERT_TRUE(old_handle.ok());
  registry.Publish("m", std::make_shared<core::SelNetCt>(cfg));
  // The old snapshot is still usable even though it was replaced.
  Matrix x(1, 4), t(1, 1);
  t(0, 0) = 0.5f;
  Matrix y = old_handle.ValueOrDie().model->Predict(x, t);
  EXPECT_TRUE(y.AllFinite());
  EXPECT_NE(old_handle.ValueOrDie().version, registry.VersionOf("m"));
}

TEST(ModelRegistryTest, PublishFromMissingFileFails) {
  ModelRegistry registry;
  auto result = registry.PublishFromFile("m", "/nonexistent/model.selm");
  ASSERT_FALSE(result.ok());
  // Satellite: the failing path must appear in the error message.
  EXPECT_NE(result.status().message().find("/nonexistent/model.selm"),
            std::string::npos);
}

TEST(ModelRegistryTest, ServesAnyEstimatorAndProbesSweepCapability) {
  ModelRegistry registry;
  core::SelNetConfig cfg;
  cfg.input_dim = 4;
  cfg.tmax = 1.0f;
  registry.Publish("selnet", std::make_shared<core::SelNetCt>(cfg));
  registry.Publish("kde", std::make_shared<bl::KdeEstimator>());
  auto selnet = registry.Get("selnet");
  auto kde = registry.Get("kde");
  ASSERT_TRUE(selnet.ok());
  ASSERT_TRUE(kde.ok());
  // The capability cast happens once at publish: SelNet exposes its control
  // points, the KDE baseline transparently lacks the fast path.
  EXPECT_TRUE(selnet.ValueOrDie().model.sweep_capable());
  EXPECT_FALSE(kde.ValueOrDie().model.sweep_capable());
  EXPECT_EQ(kde.ValueOrDie().model->Name(), "KDE");
}

// -------------------------------------------------------------- scheduler ---

// Deterministic stand-in for Predict: y_i = sum(x_i) + 10 * t_i.
Matrix FakePredictRows(const Matrix& x, const Matrix& t) {
  Matrix y(x.rows(), 1);
  for (size_t i = 0; i < x.rows(); ++i) {
    float sum = 0.0f;
    for (size_t j = 0; j < x.cols(); ++j) sum += x(i, j);
    y(i, 0) = sum + 10.0f * t(i, 0);
  }
  return y;
}

// Model-routed BatchFn over FakePredictRows (route ignored).
Matrix FakePredict(const std::string& /*model*/, const Matrix& x,
                   const Matrix& t) {
  return FakePredictRows(x, t);
}

// One row through SubmitRows, with its estimate (or error) as a future.
std::future<float> SubmitOneRow(BatchScheduler& scheduler, const float* x,
                                float t, std::string model = "") {
  auto promise = std::make_shared<std::promise<float>>();
  std::future<float> result = promise->get_future();
  std::vector<BatchScheduler::Row> rows(1);
  rows[0].model = std::move(model);
  rows[0].x.assign(x, x + scheduler.config().dim);
  rows[0].t = t;
  rows[0].done = [promise](float value, std::exception_ptr error,
                           const BatchScheduler::RowTiming&) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(value);
    }
  };
  scheduler.SubmitRows(std::move(rows));
  return result;
}

// Holds batch fn calls at a gate: the n-th call to enter (1-based) waits
// until Release(m) with m >= n. Tests use it to keep pool workers busy while
// they queue rows behind them.
class Turnstile {
 public:
  static constexpr size_t kAll = std::numeric_limits<size_t>::max();

  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    const size_t n = ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ >= n; });
  }
  void AwaitEntered(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Release(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = n;
    cv_.notify_all();
  }
  size_t entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t entered_ = 0;
  size_t released_ = 0;
};

TEST(BatchSchedulerTest, AnswersMatchUnbatchedComputation) {
  SchedulerConfig cfg;
  cfg.dim = 3;
  cfg.max_batch = 8;
  BatchScheduler scheduler(cfg, FakePredict);
  std::vector<std::future<float>> futures;
  for (int i = 0; i < 50; ++i) {
    float x[3] = {float(i), float(i) * 0.5f, -float(i)};
    futures.push_back(SubmitOneRow(scheduler, x, float(i) * 0.01f));
  }
  for (int i = 0; i < 50; ++i) {
    float expected = float(i) + float(i) * 0.5f - float(i) +
                     10.0f * float(i) * 0.01f;
    EXPECT_FLOAT_EQ(futures[i].get(), expected) << "request " << i;
  }
}

TEST(BatchSchedulerTest, CoalescesRequestsIntoFewerBatches) {
  // Rows coalesce while the only worker is busy: the first row's call holds
  // it, the next 63 queue behind, and the released runner takes them in
  // max_batch turns.
  util::ThreadPool pool(1);
  SchedulerConfig cfg;
  cfg.dim = 2;
  cfg.max_batch = 16;
  cfg.pool = &pool;
  Turnstile gate;
  std::mutex mu;
  std::vector<size_t> batch_rows;
  BatchScheduler scheduler(
      cfg, [&](const std::string&, const Matrix& x, const Matrix& t) {
        {
          std::lock_guard<std::mutex> lock(mu);
          batch_rows.push_back(x.rows());
        }
        gate.Pass();
        return FakePredictRows(x, t);
      });
  std::vector<std::future<float>> futures;
  for (int i = 0; i < 64; ++i) {
    float x[2] = {float(i), 0.0f};
    futures.push_back(SubmitOneRow(scheduler, x, 0.0f));
    if (i == 0) gate.AwaitEntered(1);
  }
  gate.Release(Turnstile::kAll);
  scheduler.Drain();
  for (int i = 0; i < 64; ++i) EXPECT_FLOAT_EQ(futures[i].get(), float(i));
  // 1 + ceil(63 / 16) calls: the lone first row, then full turns.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(batch_rows, (std::vector<size_t>{1, 16, 16, 16, 15}));
}

TEST(BatchSchedulerTest, IdleWorkerAnswersALoneRow) {
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.max_batch = 1000;  // Never filled: an idle worker must not wait for it.
  BatchScheduler scheduler(cfg, FakePredict);
  float x[1] = {1.5f};
  std::future<float> f = SubmitOneRow(scheduler, x, 0.0f);
  EXPECT_EQ(f.wait_for(std::chrono::seconds(2)), std::future_status::ready);
  EXPECT_FLOAT_EQ(f.get(), 1.5f);
}

TEST(BatchSchedulerTest, BatchFnExceptionPropagatesToFutures) {
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.max_batch = 2;
  BatchScheduler scheduler(
      cfg, [](const std::string&, const Matrix&, const Matrix&) -> Matrix {
        throw std::runtime_error("model exploded");
      });
  float x[1] = {0.0f};
  std::future<float> f = SubmitOneRow(scheduler, x, 0.0f);
  scheduler.Drain();
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(BatchSchedulerTest, WrongRowCountFailsOnlyItsModelGroup) {
  // A batch fn returning one row short fails that group's rows with an
  // error; the process survives and the other group is answered.
  util::ThreadPool pool(1);
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.pool = &pool;
  Turnstile gate;
  BatchScheduler scheduler(
      cfg, [&](const std::string& model, const Matrix& x, const Matrix& t) {
        if (model == "hold") gate.Pass();
        if (model == "short") return Matrix(x.rows() - 1, 1);
        return FakePredictRows(x, t);
      });
  float x[1] = {2.0f};
  std::future<float> held = SubmitOneRow(scheduler, x, 0.0f, "hold");
  gate.AwaitEntered(1);
  std::future<float> bad1 = SubmitOneRow(scheduler, x, 0.0f, "short");
  std::future<float> good = SubmitOneRow(scheduler, x, 0.0f, "good");
  std::future<float> bad2 = SubmitOneRow(scheduler, x, 0.0f, "short");
  gate.Release(Turnstile::kAll);
  scheduler.Drain();
  EXPECT_FLOAT_EQ(held.get(), 2.0f);
  EXPECT_THROW(bad1.get(), std::runtime_error);
  EXPECT_THROW(bad2.get(), std::runtime_error);
  EXPECT_FLOAT_EQ(good.get(), 2.0f);
}

TEST(BatchSchedulerTest, SubmitAfterShutdownFailsFuture) {
  SchedulerConfig cfg;
  cfg.dim = 1;
  BatchScheduler scheduler(cfg, FakePredict);
  scheduler.Shutdown();
  float x[1] = {0.0f};
  std::future<float> f = SubmitOneRow(scheduler, x, 0.0f);
  try {
    f.get();
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kShutdown);
  }
}

TEST(BatchSchedulerTest, RowsLeftPendingAfterAnInlineFlushStillFlush) {
  // No-stranding regression: a SubmitRows call that finds a row already
  // pending or in flight and adds more must leave them all answered, however
  // the call races the runner taking the earlier row. The gap between the
  // two calls sweeps that race across the runner's turn.
  util::ThreadPool pool(2);
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.max_batch = 2;
  cfg.pool = &pool;
  BatchScheduler scheduler(cfg, FakePredict);
  for (int round = 0; round < 500; ++round) {
    float x[1] = {float(round)};
    std::vector<std::future<float>> futures;
    futures.push_back(SubmitOneRow(scheduler, x, 0.0f));
    const auto gap = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(round % 80);
    while (std::chrono::steady_clock::now() < gap) {
    }
    std::vector<BatchScheduler::Row> rows(2);
    for (size_t i = 0; i < rows.size(); ++i) {
      auto promise = std::make_shared<std::promise<float>>();
      futures.push_back(promise->get_future());
      rows[i].x = {x[0]};
      rows[i].done = [promise](float value, std::exception_ptr,
                               const BatchScheduler::RowTiming&) {
        promise->set_value(value);
      };
    }
    scheduler.SubmitRows(std::move(rows));
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(2)), std::future_status::ready)
          << "row stranded in round " << round;
    }
  }
}

TEST(BatchSchedulerTest, RowsAreGroupedByModelRoute) {
  // A "hold" row keeps the only worker busy while 10 interleaved rows for
  // two models queue; the next turn must make one call per model.
  util::ThreadPool pool(1);
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.max_batch = 64;
  cfg.pool = &pool;
  Turnstile gate;
  std::mutex mu;
  std::vector<std::pair<std::string, size_t>> calls;  // (model, rows).
  BatchScheduler scheduler(
      cfg, [&](const std::string& model, const Matrix& x, const Matrix& t) {
        {
          std::lock_guard<std::mutex> lock(mu);
          calls.emplace_back(model, x.rows());
        }
        if (model == "hold") gate.Pass();
        Matrix y = FakePredictRows(x, t);
        if (model == "b") {
          for (size_t i = 0; i < y.rows(); ++i) y(i, 0) += 1000.0f;
        }
        return y;
      });
  float hold_x[1] = {0.0f};
  std::future<float> held = SubmitOneRow(scheduler, hold_x, 0.0f, "hold");
  gate.AwaitEntered(1);
  std::vector<std::future<float>> futures;
  for (int i = 0; i < 10; ++i) {
    float x[1] = {float(i)};
    futures.push_back(
        SubmitOneRow(scheduler, x, 0.0f, i % 2 == 0 ? "a" : "b"));
  }
  gate.Release(Turnstile::kAll);
  scheduler.Drain();
  held.get();
  for (int i = 0; i < 10; ++i) {
    float expected = float(i) + (i % 2 == 0 ? 0.0f : 1000.0f);
    EXPECT_FLOAT_EQ(futures[i].get(), expected) << "row " << i;
  }
  // Interleaved submissions coalesce into one call per model, in
  // first-appearance order.
  std::lock_guard<std::mutex> lock(mu);
  using Call = std::pair<std::string, size_t>;
  EXPECT_EQ(calls, (std::vector<Call>{{"hold", 1}, {"a", 5}, {"b", 5}}));
}

TEST(BatchSchedulerTest, RunnersNeverOutnumberPoolWorkers) {
  // Two workers, one row per turn, eight rows. Both workers block in their
  // first calls; then a probe task joins the pool queue and one worker is
  // let go. With at most two runners queued or running, that worker's
  // re-queued runner lands behind the probe, so the probe runs before a
  // third call starts. A runner per row would have queued six ahead of it.
  util::ThreadPool pool(2);
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.max_batch = 1;
  cfg.pool = &pool;
  Turnstile gate;
  BatchScheduler scheduler(
      cfg, [&](const std::string&, const Matrix& x, const Matrix& t) {
        gate.Pass();
        return FakePredictRows(x, t);
      });
  std::vector<std::future<float>> futures;
  for (int i = 0; i < 8; ++i) {
    float x[1] = {float(i)};
    futures.push_back(SubmitOneRow(scheduler, x, 0.0f));
  }
  gate.AwaitEntered(2);
  auto probe = std::make_shared<std::promise<size_t>>();
  std::future<size_t> probed = probe->get_future();
  pool.Submit([&gate, probe] { probe->set_value(gate.entered()); });
  gate.Release(1);
  // Bounded wait: with extra runners queued ahead, the probe waits on the
  // gate too. Open it either way so teardown cannot hang.
  const bool ran =
      probed.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.Release(Turnstile::kAll);
  ASSERT_TRUE(ran) << "runners were queued ahead of the probe";
  EXPECT_EQ(probed.get(), 2u);
  scheduler.Drain();
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(futures[i].get(), float(i));
  EXPECT_EQ(gate.entered(), 8u);
}

TEST(BatchSchedulerTest, ConcurrentProducersAnswerEveryRowOnce) {
  util::ThreadPool pool(3);
  SchedulerConfig cfg;
  cfg.dim = 1;
  cfg.max_batch = 8;
  cfg.pool = &pool;
  BatchScheduler scheduler(cfg, FakePredict);
  constexpr size_t kProducers = 8;
  constexpr size_t kRowsEach = 300;
  std::vector<std::atomic<int>> answered(kProducers * kRowsEach);
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Calls of 1..3 rows, so single rows and small groups interleave.
      for (size_t i = 0; i < kRowsEach;) {
        std::vector<BatchScheduler::Row> rows;
        for (size_t n = 1 + i % 3; n > 0 && i < kRowsEach; --n, ++i) {
          const size_t id = p * kRowsEach + i;
          BatchScheduler::Row row;
          row.x = {float(id)};
          row.done = [&, id](float value, std::exception_ptr error,
                             const BatchScheduler::RowTiming&) {
            if (error || value != float(id)) wrong.fetch_add(1);
            answered[id].fetch_add(1);
          };
          rows.push_back(std::move(row));
        }
        scheduler.SubmitRows(std::move(rows));
      }
    });
  }
  for (auto& t : producers) t.join();
  scheduler.Drain();
  EXPECT_EQ(wrong.load(), 0u);
  for (size_t id = 0; id < answered.size(); ++id) {
    ASSERT_EQ(answered[id].load(), 1) << "row " << id;
  }
}

TEST(BatchSchedulerTest, RowCallbackReceivesSplitTiming) {
  SchedulerConfig cfg;
  cfg.dim = 2;
  cfg.max_batch = 4;
  BatchScheduler scheduler(cfg, FakePredict);
  std::promise<float> value_promise;
  std::atomic<double> latency{-1.0};
  std::atomic<double> queue_ms{-1.0};
  std::atomic<double> predict_ms{-1.0};
  std::vector<BatchScheduler::Row> rows(1);
  rows[0].x = {2.0f, 3.0f};
  rows[0].t = 0.5f;
  rows[0].done = [&](float value, std::exception_ptr error,
                     const BatchScheduler::RowTiming& timing) {
    latency.store(timing.latency_ms);
    queue_ms.store(timing.queue_ms);
    predict_ms.store(timing.predict_ms);
    if (error) {
      value_promise.set_exception(error);
    } else {
      value_promise.set_value(value);
    }
  };
  scheduler.SubmitRows(std::move(rows));
  scheduler.Drain();
  EXPECT_FLOAT_EQ(value_promise.get_future().get(), 2.0f + 3.0f + 5.0f);
  EXPECT_GE(latency.load(), 0.0);
  EXPECT_GE(queue_ms.load(), 0.0);
  EXPECT_GE(predict_ms.load(), 0.0);
  // The split is exhaustive: queue + predict spans the whole row latency.
  EXPECT_NEAR(latency.load(), queue_ms.load() + predict_ms.load(), 1e-6);
}

// ------------------------------------------------------------------ stats ---

TEST(ServeStatsTest, SnapshotAggregatesCounters) {
  ServeStats stats;
  for (int i = 0; i < 10; ++i) stats.RecordRequest();
  stats.RecordCurveLookup(true);
  stats.RecordCurveLookup(false);
  stats.RecordCurveLookup(false);
  stats.RecordBatch(8);
  stats.RecordBatch(4);
  for (int i = 1; i <= 100; ++i) stats.RecordLatencyMs(double(i % 64));
  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.requests, 10u);
  EXPECT_EQ(s.curve_hits, 1u);
  EXPECT_EQ(s.curve_misses, 2u);
  EXPECT_NEAR(CurveHitRate(s), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.avg_batch_size, 6.0, 1e-9);
  EXPECT_GT(s.latency_p99_ms, s.latency_p50_ms);
  EXPECT_GT(s.qps, 0.0);
  EXPECT_EQ(s.latency_hist.count, 100u);
  EXPECT_FALSE(stats.Report().empty());
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().requests, 0u);
  EXPECT_TRUE(stats.Snapshot().latency_hist.empty());
}

TEST(ServeStatsTest, PercentileOfSortedUsesNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(i));
  // Nearest-rank: the ceil(p*n)-th smallest — never interpolated, never
  // rounded past the end.
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 1.00), 100.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.001), 1.0);
  std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(one, 0.99), 7.0);
  std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(four, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(four, 0.75), 3.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(four, 0.76), 4.0);
}

TEST(ServeStatsTest, SpansFeedStageHistogramsAndSlowRing) {
  ServeStats stats;
  stats.ConfigureSlowTrace(/*threshold_ms=*/10.0, /*capacity=*/2);
  SpanRecord fast;
  fast.route = "a";
  fast.total_ms = 1.0;
  fast.stage_ms[size_t(Stage::kPredict)] = 0.8;
  stats.RecordSpan(fast);
  for (int i = 0; i < 3; ++i) {
    SpanRecord slow;
    slow.route = "a";
    slow.tag = uint64_t(i + 1);
    slow.total_ms = 20.0 + i;
    slow.stage_ms[size_t(Stage::kQueue)] = 5.0;
    slow.stage_ms[size_t(Stage::kPredict)] = 15.0 + i;
    stats.RecordSpan(slow);
  }
  StatsSnapshot s = stats.Snapshot();
  ASSERT_EQ(s.stage_hists.size(), kNumStages);
  EXPECT_EQ(s.stage_hists[size_t(Stage::kPredict)].count, 4u);
  EXPECT_EQ(s.stage_hists[size_t(Stage::kQueue)].count, 3u);
  EXPECT_EQ(s.stage_hists[size_t(Stage::kDecode)].count, 0u);
  // Ring capacity 2: the fast span never entered, the oldest slow span
  // rotated out, and the survivors are oldest-first.
  ASSERT_EQ(s.slow_requests.size(), 2u);
  EXPECT_EQ(s.slow_requests[0].tag, 2u);
  EXPECT_EQ(s.slow_requests[1].tag, 3u);
  // StatsToJson carries the per-stage percentiles the admin plane serves.
  std::string json = StatsToJson(s);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"predict\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
}

// -------------------------------------------- end-to-end with a real model ---

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec;
    spec.n = 600;
    spec.dim = 6;
    db_ = std::make_unique<data::Database>(data::GenerateMixture(spec),
                                           data::Metric::kEuclidean);
    data::WorkloadSpec wspec;
    wspec.num_queries = 25;
    wspec.w = 6;
    wspec.max_sel_fraction = 0.2;
    wl_ = data::GenerateWorkload(*db_, wspec);
    ctx_.db = db_.get();
    ctx_.workload = &wl_;
    ctx_.epochs = 6;
    cfg_.input_dim = 6;
    cfg_.tmax = wl_.tmax;
    cfg_.num_control = 6;
    cfg_.latent_dim = 3;
    cfg_.ae_hidden = 16;
    cfg_.tau_hidden = 20;
    cfg_.p_hidden = 24;
    cfg_.embed_h = 5;
    cfg_.ae_pretrain_epochs = 2;
    model_ = std::make_shared<core::SelNetCt>(cfg_);
    model_->Fit(ctx_);
  }

  ServerConfig MakeServerConfig(bool batching, bool cache) {
    ServerConfig scfg;
    scfg.dim = 6;
    scfg.enable_batching = batching;
    scfg.enable_curve_cache = cache;
    scfg.scheduler.max_batch = 16;
    return scfg;
  }

  /// One local shard around MakeServerConfig: the router is where update
  /// pipelines attach.
  ShardedConfig OneShardConfig(bool batching, bool cache) {
    ShardedConfig cfg;
    cfg.server = MakeServerConfig(batching, cache);
    cfg.num_shards = 1;
    return cfg;
  }

  std::unique_ptr<data::Database> db_;
  data::Workload wl_;
  eval::TrainContext ctx_;
  core::SelNetConfig cfg_;
  std::shared_ptr<core::SelNetCt> model_;
};

TEST_F(ServeFixture, BatchedResultsIdenticalToUnbatchedPredict) {
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model_);
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);

  std::vector<std::future<EstimateResponse>> futures;
  for (size_t i = 0; i < b.x.rows(); ++i) {
    futures.push_back(
        SubmitAsync(server, EstimateRequest::Point(b.x.row(i), 6, b.t(i, 0))));
  }
  // Reference: direct single-row Predict outside the serving stack.
  for (size_t i = 0; i < b.x.rows(); ++i) {
    Matrix x1 = b.x.RowSlice(i, i + 1);
    Matrix t1 = b.t.RowSlice(i, i + 1);
    float expected = model_->Predict(x1, t1)(0, 0);
    EXPECT_EQ(futures[i].get().estimates[0], expected) << "row " << i;
  }
  EXPECT_GT(server.stats().Snapshot().batches, 0u);
}

TEST_F(ServeFixture, RepeatQueryHitsCache) {
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/true));
  server.Publish(model_);
  const float* q = wl_.queries.row(0);
  std::vector<float> ts = {0.25f * wl_.tmax, 0.5f * wl_.tmax};
  EstimateResponse first = Await(server, EstimateRequest::Sweep(q, 6, ts));
  EstimateResponse second = Await(server, EstimateRequest::Sweep(q, 6, ts));
  ASSERT_EQ(first.estimates.size(), second.estimates.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(first.estimates[i], second.estimates[i]);
  }
  EXPECT_EQ(server.cache().curve_hits(), 1u);
  EXPECT_EQ(server.stats().Snapshot().curve_hits, 1u);
  EXPECT_EQ(server.stats().Snapshot().curve_misses, 1u);
  // A curve answer is bit-identical to a fresh one: cache_hits stays 0, so
  // response checkers keep verifying it.
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_TRUE(second.fast_path);
}

TEST_F(ServeFixture, EstimateWithoutModelIsNotFound) {
  SelNetServer server(MakeServerConfig(true, true));
  float x[6] = {0};
  EXPECT_THROW(Await(server, EstimateRequest::Point(x, 6, 0.5f)),
               RouteNotFoundError);
}

TEST_F(ServeFixture, SweepIsMonotoneInThreshold) {
  SelNetServer server(MakeServerConfig(true, true));
  server.Publish(model_);
  std::vector<float> ts;
  for (int i = 0; i < 12; ++i) ts.push_back(wl_.tmax * float(i) / 11.0f);
  const std::vector<float> y =
      Await(server, EstimateRequest::Sweep(wl_.queries.row(1), 6, ts))
          .estimates;
  ASSERT_EQ(y.size(), ts.size());
  for (size_t i = 1; i < y.size(); ++i) {
    EXPECT_GE(y[i] + 1e-3f, y[i - 1]) << "sweep not monotone at " << i;
  }
}

TEST_F(ServeFixture, FoldCacheInvalidationRestoresExactPredictions) {
  // Guards the inference-fusion cache contract: after parameters are mutated
  // and restored (as Fit's best-epoch restore does), Predict must return
  // exactly the original estimates — a stale cached fold would not.
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix before = model_->Predict(b.x, b.t);  // Builds the fold cache.

  std::vector<Matrix> snapshot;
  for (const auto& p : model_->Params()) snapshot.push_back(p->value);
  for (const auto& p : model_->Params()) {
    p->value.Apply([](float v) { return v * 1.25f + 0.01f; });
  }
  model_->InvalidateInferenceCache();
  Matrix perturbed = model_->Predict(b.x, b.t);

  size_t i = 0;
  for (const auto& p : model_->Params()) p->value = snapshot[i++];
  model_->InvalidateInferenceCache();
  Matrix after = model_->Predict(b.x, b.t);

  bool any_diff = false;
  for (size_t r = 0; r < before.size(); ++r) {
    if (before.data()[r] != perturbed.data()[r]) any_diff = true;
    EXPECT_EQ(before.data()[r], after.data()[r]) << "row " << r;
  }
  EXPECT_TRUE(any_diff) << "perturbation should have changed predictions";
}

TEST_F(ServeFixture, HotSwapUnderConcurrentLoadFailsNoQuery) {
  // Acceptance criterion: zero failed queries during model republish.
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model_);

  // A second, independently trained snapshot to alternate with.
  std::string path = ::testing::TempDir() + "/serve_swap.selm";
  ASSERT_TRUE(core::SaveModel(*model_, path).ok());
  auto loaded = core::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<core::SelNetCt> other(loaded.MoveValueUnsafe());
  std::remove(path.c_str());

  std::atomic<bool> stop{false};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(100 + c);
      while (!stop.load()) {
        size_t qi = static_cast<size_t>(
            rng.UniformInt(0, int64_t(wl_.queries.rows()) - 1));
        float t = wl_.tmax * float(rng.Uniform());
        try {
          EstimateResponse resp = Await(
              server, EstimateRequest::Point(wl_.queries.row(qi), 6, t));
          if (!std::isfinite(resp.estimates[0])) failed.fetch_add(1);
        } catch (const std::exception&) {
          failed.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }
  // Republish aggressively while clients are querying.
  for (int swap = 0; swap < 50; ++swap) {
    server.Publish(swap % 2 == 0 ? other : model_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& th : clients) th.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GE(server.stats().Snapshot().swaps, 51u);
}

// ------------------------------------------------- request-object serving ---

TEST_F(ServeFixture, SweepFastPathBitIdenticalToRowExpansion) {
  // Model level: one control-point evaluation + K PWL lookups must equal the
  // K-row batched Predict bit-for-bit (the SweepCapable contract). The K
  // values run row expansion through every padded tail size of the packed
  // micro-kernel, alone (2, 3) and after full blocks (5, 7), and through
  // whole blocks only (16).
  const float* q = wl_.queries.row(2);
  std::vector<float> ts;
  for (size_t k : {2u, 3u, 5u, 7u, 16u}) {
    ts.clear();
    for (size_t i = 0; i < k; ++i) {
      ts.push_back(wl_.tmax * float(i) / float(k - 1));
    }
    std::vector<float> fast = model_->SweepEstimate(q, ts.data(), ts.size());
    Matrix xm(ts.size(), 6), tm(ts.size(), 1);
    for (size_t r = 0; r < ts.size(); ++r) {
      std::copy(q, q + 6, xm.row(r));
      tm(r, 0) = ts[r];
    }
    Matrix expanded = model_->Predict(xm, tm);
    ASSERT_EQ(fast.size(), ts.size());
    for (size_t r = 0; r < ts.size(); ++r) {
      EXPECT_EQ(fast[r], expanded(r, 0)) << "K=" << k << " threshold " << ts[r];
    }
  }

  // Server level: one K-threshold sweep (fast path) and K single-threshold
  // requests (scheduler rows) on the same batching server agree exactly.
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model_);
  EstimateResponse sweep = Await(server, EstimateRequest::Sweep(q, 6, ts));
  EXPECT_TRUE(sweep.fast_path);
  ASSERT_EQ(sweep.estimates.size(), ts.size());
  for (size_t r = 0; r < ts.size(); ++r) {
    EstimateResponse point = Await(server, EstimateRequest::Point(q, 6, ts[r]));
    EXPECT_FALSE(point.fast_path);
    EXPECT_EQ(sweep.estimates[r], point.estimates[0]) << "threshold " << ts[r];
  }
  EXPECT_EQ(server.stats().Snapshot().sweep_fastpath, 1u);
}

TEST_F(ServeFixture, EverySweepOfASweepCapableRouteTakesTheFastPath) {
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model_);
  const float* q = wl_.queries.row(6);
  size_t sweeps = 0;
  for (size_t k : {2u, 3u, 5u, 16u}) {
    std::vector<float> ts;
    for (size_t i = 0; i < k; ++i) {
      ts.push_back(wl_.tmax * float(i + 1) / float(k));
    }
    EstimateResponse resp = Await(server, EstimateRequest::Sweep(q, 6, ts));
    EXPECT_TRUE(resp.fast_path) << "K=" << k;
    EXPECT_EQ(resp.estimates.size(), k);
    ++sweeps;
  }
  // A single threshold row-expands and is not a sweep.
  EXPECT_FALSE(
      Await(server, EstimateRequest::Point(q, 6, 0.5f * wl_.tmax)).fast_path);
  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.sweeps, sweeps);
  EXPECT_EQ(s.sweep_fastpath, sweeps);
}

TEST_F(ServeFixture, PartitionedSweepEstimateMatchesPredict) {
  core::PartitionedConfig pcfg;
  pcfg.base = cfg_;
  pcfg.partition.k = 2;
  auto model = std::make_shared<core::SelNetPartitioned>(pcfg);
  model->Fit(ctx_);
  std::vector<float> ts;
  for (int i = 0; i < 12; ++i) ts.push_back(wl_.tmax * float(i) / 11.0f);
  const float* q = wl_.queries.row(4);
  std::vector<float> fast = model->SweepEstimate(q, ts.data(), ts.size());
  Matrix xm(ts.size(), 6), tm(ts.size(), 1);
  for (size_t r = 0; r < ts.size(); ++r) {
    std::copy(q, q + 6, xm.row(r));
    tm(r, 0) = ts[r];
  }
  Matrix expanded = model->Predict(xm, tm);
  for (size_t r = 0; r < ts.size(); ++r) {
    EXPECT_EQ(fast[r], expanded(r, 0)) << "threshold " << ts[r];
  }

  // And it serves through the generic endpoint with the fast path engaged.
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model);
  EstimateResponse resp =
      Await(server, EstimateRequest::Sweep(q, 6, ts));
  EXPECT_TRUE(resp.fast_path);
  for (size_t r = 0; r < ts.size(); ++r) {
    EXPECT_EQ(resp.estimates[r], expanded(r, 0));
  }
}

TEST_F(ServeFixture, ServedKdeBaselineAnswersThroughSameEndpoint) {
  // Acceptance criterion: a non-SelNet eval::Estimator served end-to-end
  // through the same SelNetServer endpoint.
  bl::KdeConfig kcfg;
  kcfg.num_samples = 200;
  auto kde = std::make_shared<bl::KdeEstimator>(kcfg);
  kde->Fit(ctx_);

  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model_);        // Default slot: SelNet.
  server.Publish("kde", kde);    // Baseline slot, same endpoint.

  const float* q = wl_.queries.row(3);
  std::vector<float> ts;
  for (int i = 1; i <= 8; ++i) ts.push_back(wl_.tmax * float(i) / 8.0f);

  // Scalar through the KDE route matches direct KDE prediction.
  Matrix x1(1, 6), t1(1, 1);
  std::copy(q, q + 6, x1.row(0));
  t1(0, 0) = ts[2];
  float direct = kde->Predict(x1, t1)(0, 0);
  EstimateResponse scalar =
      Await(server, EstimateRequest::Point(q, 6, ts[2], "kde"));
  EXPECT_EQ(scalar.estimates[0], direct);
  EXPECT_EQ(scalar.model, "kde");

  // A sweep through the KDE route row-expands (no SweepCapable) but still
  // returns a monotone column — KDE is a consistent estimator.
  EstimateResponse sweep =
      Await(server, EstimateRequest::Sweep(q, 6, ts, "kde"));
  EXPECT_FALSE(sweep.fast_path);
  ASSERT_EQ(sweep.estimates.size(), ts.size());
  for (size_t i = 1; i < sweep.estimates.size(); ++i) {
    EXPECT_GE(sweep.estimates[i], sweep.estimates[i - 1]);
  }

  // A/B in one line each: same query, same thresholds, different route.
  EstimateResponse selnet_resp =
      Await(server, EstimateRequest::Sweep(q, 6, ts));
  EXPECT_NE(selnet_resp.version, sweep.version);
  EXPECT_EQ(selnet_resp.model, "default");
  server.Drain();
  EXPECT_GE(server.stats().Snapshot().sweeps, 2u);
}

TEST_F(ServeFixture, SweepMonotoneUnderConcurrentHotSwap) {
  // Satellite: sorted sweeps must stay non-decreasing even while the model
  // is republished aggressively mid-traffic (rows of one sweep may resolve
  // against different versions; Finalize's repair absorbs the seam).
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/true));
  server.Publish(model_);

  std::string path = ::testing::TempDir() + "/serve_sweep_swap.selm";
  ASSERT_TRUE(core::SaveModel(*model_, path).ok());
  auto loaded = core::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<core::SelNetCt> other(loaded.MoveValueUnsafe());
  std::remove(path.c_str());

  std::vector<float> ts;
  for (int i = 0; i < 16; ++i) ts.push_back(wl_.tmax * float(i) / 15.0f);

  std::atomic<bool> stop{false};
  std::atomic<size_t> violations{0};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> sweeps_done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(200 + c);
      while (!stop.load()) {
        size_t qi = static_cast<size_t>(
            rng.UniformInt(0, int64_t(wl_.queries.rows()) - 1));
        try {
          EstimateResponse resp = Await(
              server, EstimateRequest::Sweep(wl_.queries.row(qi), 6, ts));
          for (size_t i = 1; i < resp.estimates.size(); ++i) {
            if (resp.estimates[i] < resp.estimates[i - 1]) {
              violations.fetch_add(1);
            }
            if (!std::isfinite(resp.estimates[i])) failures.fetch_add(1);
          }
        } catch (...) {
          failures.fetch_add(1);
        }
        sweeps_done.fetch_add(1);
      }
    });
  }
  for (int swap = 0; swap < 40; ++swap) {
    server.Publish(swap % 2 == 0 ? other : model_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& th : clients) th.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(sweeps_done.load(), 0u);
}

TEST_F(ServeFixture, MalformedRequestFailsFutureNotServer) {
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/true));
  server.Publish(model_);
  // Wrong dimensionality and empty thresholds fail the request's future;
  // the server keeps serving.
  EstimateRequest bad_dim;
  bad_dim.x.assign(3, 0.0f);  // dim is 6.
  bad_dim.thresholds.assign(1, 0.5f);
  EXPECT_THROW(Await(server, std::move(bad_dim)), std::invalid_argument);
  EstimateRequest no_ts;
  no_ts.x.assign(6, 0.0f);
  EXPECT_THROW(Await(server, std::move(no_ts)), std::invalid_argument);
  EXPECT_NO_THROW(Await(
      server, EstimateRequest::Point(wl_.queries.row(0), 6, 0.5f * wl_.tmax)));
}

// A model that violates its contracts: Predict returns one row short and
// SweepEstimate count-1 values. User-model bugs must fail the request,
// never the server.
class BrokenSweepEstimator : public eval::Estimator,
                             public eval::SweepCapable {
 public:
  std::string Name() const override { return "Broken"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}
  Matrix Predict(const Matrix& x, const Matrix&) override {
    return Matrix(x.rows() - 1, 1);
  }
  std::vector<float> SweepEstimate(const float*, const float*,
                                   size_t count) override {
    return std::vector<float>(count - 1, 0.0f);
  }
};

TEST_F(ServeFixture, BrokenSweepCapableModelFailsRequestNotServer) {
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/true));
  server.Publish(model_);
  server.Publish("broken", std::make_shared<BrokenSweepEstimator>());
  std::vector<float> ts = {0.1f, 0.2f, 0.3f, 0.4f};
  const float* q = wl_.queries.row(0);
  EXPECT_THROW(
      Await(server, EstimateRequest::Sweep(q, 6, ts, "broken")),
      std::runtime_error);
  EXPECT_THROW(Await(server, EstimateRequest::Point(q, 6, 0.5f, "broken")),
               std::runtime_error);
  // The healthy route keeps answering.
  EXPECT_NO_THROW(
      Await(server, EstimateRequest::Point(q, 6, 0.5f * wl_.tmax)));
}

// A curve-capable model whose SweepCurve hands out a single knot, which
// core::PiecewiseLinear rejects with an abort.
class OneKnotCurveEstimator : public eval::Estimator,
                              public eval::SweepCapable {
 public:
  std::string Name() const override { return "OneKnot"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}
  Matrix Predict(const Matrix& x, const Matrix&) override {
    return Matrix(x.rows(), 1);
  }
  std::vector<float> SweepEstimate(const float*, const float*,
                                   size_t count) override {
    return std::vector<float>(count, 0.0f);
  }
  bool SupportsSweepCurve() const override { return true; }
  bool SweepCurve(const float*, std::vector<float>* tau,
                  std::vector<float>* p) override {
    *tau = {0.5f};
    *p = {1.0f};
    return true;
  }
};

TEST_F(ServeFixture, MalformedCurveFailsRequestAndIsNeverCached) {
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/true));
  server.Publish(model_);
  server.Publish("one_knot", std::make_shared<OneKnotCurveEstimator>());
  std::vector<float> ts = {0.1f, 0.2f, 0.3f};
  const float* q = wl_.queries.row(0);
  EXPECT_THROW(Await(server, EstimateRequest::Sweep(q, 6, ts, "one_knot")),
               std::runtime_error);
  // Had the curve been cached, this sweep would hit it instead of failing.
  EXPECT_THROW(Await(server, EstimateRequest::Sweep(q, 6, ts, "one_knot")),
               std::runtime_error);
  EXPECT_EQ(server.cache().curve_size(), 0u);
  EXPECT_EQ(server.cache().curve_hits(), 0u);
  // The healthy route keeps answering, through the curve cache too.
  EstimateResponse ok = Await(server, EstimateRequest::Sweep(q, 6, ts));
  EXPECT_TRUE(ok.fast_path);
  EXPECT_EQ(server.cache().curve_size(), 1u);
}

TEST_F(ServeFixture, RepublishAfterWeightMutationServesNoStalePacks) {
  // The stale-pack regression: batched serving runs against version-keyed
  // packed weight panels. After an in-place weight update + republish (the
  // UpdateManager pattern), batched answers must be bit-identical to
  // single-row Predict — which never touches the packed path — on the NEW
  // weights. A stale pack would serve pre-update weights silently.
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/false));
  server.Publish(model_);
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  {
    std::vector<std::future<EstimateResponse>> warm;
    for (size_t i = 0; i < b.x.rows(); ++i) {
      warm.push_back(SubmitAsync(
          server, EstimateRequest::Point(b.x.row(i), 6, b.t(i, 0))));
    }
    for (auto& f : warm) f.get();  // Packs are now warm for this version.
  }

  for (const auto& p : model_->Params()) {
    p->value.Apply([](float v) { return v * 1.1f + 0.02f; });
  }
  model_->InvalidateInferenceCache();  // The update/publish boundary.
  server.Publish(model_);

  std::vector<std::future<EstimateResponse>> futures;
  for (size_t i = 0; i < b.x.rows(); ++i) {
    futures.push_back(
        SubmitAsync(server, EstimateRequest::Point(b.x.row(i), 6, b.t(i, 0))));
  }
  for (size_t i = 0; i < b.x.rows(); ++i) {
    Matrix x1 = b.x.RowSlice(i, i + 1);
    Matrix t1 = b.t.RowSlice(i, i + 1);
    float expected = model_->Predict(x1, t1)(0, 0);
    EXPECT_EQ(futures[i].get().estimates[0], expected)
        << "stale pack at row " << i;
  }
}

TEST_F(ServeFixture, CurveCacheAnswersNewThresholdsWithoutNetwork) {
  ServerConfig scfg = MakeServerConfig(/*batching=*/false, /*cache=*/true);
  SelNetServer server(scfg);
  server.Publish(model_);
  const float* q = wl_.queries.row(2);

  std::vector<float> ts1, ts2;
  for (int i = 1; i <= 4; ++i) {
    ts1.push_back(wl_.tmax * float(i) / 5.0f);
    ts2.push_back(wl_.tmax * (float(i) - 0.5f) / 5.0f);  // Disjoint from ts1.
  }
  Await(server, EstimateRequest::Sweep(q, 6, ts1));
  EXPECT_EQ(server.cache().curve_size(), 1u);  // Curve stored on the miss.

  // New thresholds: the cached curve answers without touching the network,
  // bit-identical to the model's own sweep path (same control points, same
  // PWL arithmetic).
  const std::vector<float> second =
      Await(server, EstimateRequest::Sweep(q, 6, ts2)).estimates;
  EXPECT_GE(server.cache().curve_hits(), 1u);
  EXPECT_GE(server.stats().Snapshot().curve_hits, 1u);
  std::vector<float> expected =
      model_->SweepEstimate(q, ts2.data(), ts2.size());
  ASSERT_EQ(second.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(second[i], expected[i]) << "threshold " << i;
  }
}

TEST_F(ServeFixture, CurveCacheIsVersionKeyedAcrossHotSwap) {
  ServerConfig scfg = MakeServerConfig(/*batching=*/false, /*cache=*/true);
  SelNetServer server(scfg);
  server.Publish(model_);
  const float* q = wl_.queries.row(3);
  std::vector<float> ts = {0.25f * wl_.tmax, 0.5f * wl_.tmax,
                           0.75f * wl_.tmax};
  const std::vector<float> before =
      Await(server, EstimateRequest::Sweep(q, 6, ts)).estimates;

  for (const auto& p : model_->Params()) {
    p->value.Apply([](float v) { return v * 1.2f + 0.05f; });
  }
  model_->InvalidateInferenceCache();
  server.Publish(model_);  // New version: old curve entries can never match.

  const std::vector<float> after =
      Await(server, EstimateRequest::Sweep(q, 6, ts)).estimates;
  std::vector<float> expected = model_->SweepEstimate(q, ts.data(), ts.size());
  bool any_diff = false;
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(after[i], expected[i]) << "threshold " << i;
    if (after[i] != before[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "weight mutation should have changed the sweep";
}

TEST_F(ServeFixture, QueriesInOneQuantumShareACurve) {
  ServerConfig scfg = MakeServerConfig(/*batching=*/true, /*cache=*/true);
  scfg.cache.query_quantum = 1e-3f;
  SelNetServer server(scfg);
  server.Publish(model_);
  // a sits on the quantum grid; b is a tenth of a quantum away from it in
  // every coordinate, well inside a's cell.
  std::vector<float> a(6), b(6);
  for (size_t i = 0; i < 6; ++i) {
    a[i] = std::round(wl_.queries(9, i) * 1e3f) * 1e-3f;
    b[i] = a[i] + 1e-4f;
  }
  std::vector<float> ts = {0.3f * wl_.tmax, 0.6f * wl_.tmax};
  EstimateResponse first =
      Await(server, EstimateRequest::Sweep(a.data(), 6, ts));
  EstimateResponse neighbour =
      Await(server, EstimateRequest::Sweep(b.data(), 6, ts));
  EXPECT_EQ(server.cache().curve_size(), 1u);
  EXPECT_EQ(server.cache().curve_hits(), 1u);
  // The neighbour is answered from a's curve, bit for bit.
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(neighbour.estimates[i], first.estimates[i]) << "threshold " << i;
  }
}

// ------------------------------------------------- live-update pipeline ---

TEST_F(ServeFixture, PerRouteStatsSplitRequestsByModel) {
  // Satellite: requests / latency / hit-rate per model route in ONE report,
  // so served A/B experiments read cleanly.
  bl::KdeConfig kcfg;
  kcfg.num_samples = 150;
  auto kde = std::make_shared<bl::KdeEstimator>(kcfg);
  kde->Fit(ctx_);
  SelNetServer server(MakeServerConfig(/*batching=*/true, /*cache=*/true));
  server.Publish(model_);
  server.Publish("kde", kde);

  const float* q = wl_.queries.row(0);
  float t = 0.5f * wl_.tmax;
  std::vector<float> pair = {0.5f * t, t};
  Await(server, EstimateRequest::Sweep(q, 6, pair));
  Await(server, EstimateRequest::Sweep(q, 6, pair));  // Curve-cache hit.
  std::vector<float> ts = {0.2f * wl_.tmax, 0.4f * wl_.tmax, 0.6f * wl_.tmax,
                           0.8f * wl_.tmax};
  Await(server, EstimateRequest::Sweep(q, 6, ts, "kde"));
  server.Drain();

  StatsSnapshot s = server.stats().Snapshot();
  ASSERT_EQ(s.routes.size(), 2u);  // Exactly the two served routes.
  const RouteSnapshot* def = nullptr;
  const RouteSnapshot* kde_route = nullptr;
  for (const auto& r : s.routes) {
    if (r.route == "default") def = &r;
    if (r.route == "kde") kde_route = &r;
  }
  ASSERT_NE(def, nullptr);
  ASSERT_NE(kde_route, nullptr);
  EXPECT_EQ(def->requests, 4u);
  EXPECT_EQ(def->curve_hits, 1u);
  EXPECT_EQ(def->curve_misses, 1u);
  EXPECT_NEAR(CurveHitRate(*def), 0.5, 1e-9);
  EXPECT_GT(def->latency_p99_ms, 0.0);
  EXPECT_EQ(kde_route->requests, 4u);
  EXPECT_EQ(kde_route->curve_hits, 0u);
  EXPECT_GT(kde_route->latency_p99_ms, 0.0);
  // Global view still aggregates both routes.
  EXPECT_EQ(s.requests, 8u);
  // The rendered report carries both route rows.
  std::string report = server.stats().Report();
  EXPECT_NE(report.find("default"), std::string::npos);
  EXPECT_NE(report.find("kde"), std::string::npos);
  // Reset zeroes route accumulators in place (handles stay valid).
  server.stats().Reset();
  StatsSnapshot zeroed = server.stats().Snapshot();
  ASSERT_EQ(zeroed.routes.size(), 2u);
  for (const auto& r : zeroed.routes) EXPECT_EQ(r.requests, 0u);
}

TEST_F(ServeFixture, AttachPipelineRequiresServedIncrementalModel) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedRegistry reg(OneShardConfig(true, false));
  UpdatePipelineConfig ucfg;
  // No model published at all -> attach aborts.
  EXPECT_DEATH({ reg.AttachUpdatePipeline(ucfg, *db_, wl_); },
               "no model published");
  // A served estimator without the IncrementalModel capability aborts too.
  bl::KdeConfig kcfg;
  kcfg.num_samples = 100;
  auto kde = std::make_shared<bl::KdeEstimator>(kcfg);
  kde->Fit(ctx_);
  reg.Publish(kde);
  EXPECT_DEATH({ reg.AttachUpdatePipeline(ucfg, *db_, wl_); },
               "not incrementally trainable");
}

TEST_F(ServeFixture, PipelineIngestsAppliesAndRepublishes) {
  // The basic ingest -> drift -> retrain -> republish loop, single-threaded
  // observation: one drift-tripping op must bump the served version without
  // the serving path ever being told.
  ShardedRegistry reg(OneShardConfig(/*batching=*/true, /*cache=*/false));
  SelNetServer& server = reg.shard(0);
  uint64_t v0 = reg.Publish(model_);
  UpdatePipelineConfig ucfg;
  ucfg.policy.mae_drift_fraction = 0.05;
  ucfg.policy.max_epochs = 2;
  ucfg.policy.patience = 1;
  LiveUpdatePipeline& pipeline = reg.AttachUpdatePipeline(ucfg, *db_, wl_);

  core::UpdateOp op;
  op.is_insert = true;
  const float* hot = wl_.queries.row(wl_.valid.front().query_id);
  for (int i = 0; i < 150; ++i) op.vectors.emplace_back(hot, hot + 6);
  ASSERT_TRUE(pipeline.Submit(op));
  pipeline.Flush();

  UpdatePipelineState state = pipeline.Snapshot();
  EXPECT_EQ(state.ops_ingested, 1u);
  EXPECT_EQ(state.ops_applied, 1u);
  EXPECT_EQ(state.records_inserted, 150u);
  EXPECT_EQ(state.retrains_triggered, 1u);
  EXPECT_GT(state.epochs_run, 0u);
  EXPECT_EQ(state.publishes, 1u);
  EXPECT_GT(state.last_drift, 0.0);
  EXPECT_TRUE(state.idle);
  EXPECT_GT(server.registry().VersionOf("default"), v0);

  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.update_ops, 1u);
  EXPECT_EQ(s.update_ops_applied, 1u);
  EXPECT_EQ(s.retrains, 1u);
  EXPECT_GE(s.retrain_epochs, state.epochs_run);
  EXPECT_EQ(s.pipeline_publishes, 1u);
  EXPECT_GE(s.last_publish_age_s, 0.0);
  // The pipeline section renders.
  EXPECT_NE(server.stats().Report().find("ops ingested"), std::string::npos);

  // Queries still answer on the new version, and the original model object
  // was never touched (the pipeline trains clones only).
  EstimateResponse est = Await(
      server, EstimateRequest::Point(wl_.queries.row(1), 6, 0.5f * wl_.tmax));
  EXPECT_TRUE(std::isfinite(est.estimates[0]));
}

TEST_F(ServeFixture, PipelinePublishStormUnderSubmitLoadFailsNoQuery) {
  // The acceptance storm: sustained mixed Submit traffic (scalars + sorted
  // sweeps) while the pipeline ingests ops, retrains, and republishes N
  // times. Zero failed queries; every sorted sweep stays non-decreasing
  // across every swap.
  ShardedRegistry reg(OneShardConfig(/*batching=*/true, /*cache=*/true));
  SelNetServer& server = reg.shard(0);
  reg.Publish(model_);
  UpdatePipelineConfig ucfg;
  ucfg.policy.mae_drift_fraction = 0.0;  // Any upward drift retrains.
  ucfg.policy.max_epochs = 1;            // Keep each retrain quick: the storm
  ucfg.policy.patience = 1;              // measures swaps, not convergence.
  LiveUpdatePipeline& pipeline = reg.AttachUpdatePipeline(ucfg, *db_, wl_);

  std::vector<float> ts;
  for (int i = 0; i < 8; ++i) ts.push_back(wl_.tmax * float(i + 1) / 8.0f);

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> violations{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(300 + c);
      while (!stop.load()) {
        size_t qi = static_cast<size_t>(
            rng.UniformInt(0, int64_t(wl_.queries.rows()) - 1));
        try {
          if (c == 0) {  // One client sweeps, two send scalars.
            EstimateResponse resp = Await(
                server, EstimateRequest::Sweep(wl_.queries.row(qi), 6, ts));
            for (size_t i = 0; i < resp.estimates.size(); ++i) {
              if (!std::isfinite(resp.estimates[i])) failures.fetch_add(1);
              if (i > 0 && resp.estimates[i] < resp.estimates[i - 1]) {
                violations.fetch_add(1);
              }
            }
          } else {
            float t = wl_.tmax * float(rng.Uniform());
            EstimateResponse est = Await(
                server, EstimateRequest::Point(wl_.queries.row(qi), 6, t));
            if (!std::isfinite(est.estimates[0])) failures.fetch_add(1);
          }
        } catch (...) {
          failures.fetch_add(1);
        }
        answered.fetch_add(1);
        // Sustained traffic, not a spin loop: real clients have think time,
        // and the gaps are what lets the SCHED_IDLE pipeline thread make
        // progress when cores are scarce (TSan runs this on a loaded box).
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Feed drift-tripping ops until the pipeline has republished >= 3 times.
  const size_t kWantPublishes = 3;
  util::Stopwatch deadline;
  size_t fed = 0;
  while (pipeline.Snapshot().publishes < kWantPublishes &&
         deadline.ElapsedSeconds() < 60.0) {
    // Duplicates of a VALID-split query inflate validation labels, so every
    // op drifts the shadow MAE upward and (delta_U = 0) trips a retrain.
    core::UpdateOp op;
    op.is_insert = true;
    const float* hot =
        wl_.queries.row(wl_.valid[fed % wl_.valid.size()].query_id);
    for (int i = 0; i < 40; ++i) op.vectors.emplace_back(hot, hot + 6);
    if (pipeline.Submit(op)) ++fed;
    pipeline.Flush();
  }
  stop.store(true);
  for (auto& th : clients) th.join();
  server.Drain();

  UpdatePipelineState state = pipeline.Snapshot();
  EXPECT_GE(state.publishes, kWantPublishes) << "fed " << fed << " ops";
  EXPECT_GE(state.retrains_triggered, 1u);
  EXPECT_EQ(state.ops_applied, fed);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_GE(s.swaps, 1u + kWantPublishes);  // Initial publish + the storm's.
  EXPECT_EQ(s.pipeline_publishes, state.publishes);
}

TEST(ServerConfigTest, SchedulerDimInheritsFromServerDim) {
  // Satellite: ServerConfig.dim is the single source of truth; 0 inherits.
  ServerConfig cfg;
  cfg.dim = 4;
  cfg.enable_batching = true;
  EXPECT_EQ(cfg.scheduler.dim, 0u);
  SelNetServer server(cfg);
  EXPECT_EQ(server.config().scheduler.dim, 4u);
  // An explicitly matching value is also accepted.
  ServerConfig same = cfg;
  same.scheduler.dim = 4;
  SelNetServer server2(same);
  EXPECT_EQ(server2.config().scheduler.dim, 4u);
}

TEST(ServerConfigDeathTest, SchedulerDimMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServerConfig cfg;
  cfg.dim = 4;
  cfg.scheduler.dim = 8;  // Conflicts: used to be silently overwritten.
  EXPECT_DEATH({ SelNetServer server(cfg); }, "SchedulerConfig.dim");
}

// ---------------------------------------------------- admission / overload ---

/// Predict blocks until Release(): holds the serving pipeline saturated so
/// admission and deadline behavior can be probed deterministically.
class BlockingEstimator : public eval::Estimator {
 public:
  std::string Name() const override { return "Blocking"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}
  Matrix Predict(const Matrix& x, const Matrix&) override {
    started_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    Matrix y(x.rows(), 1);
    for (size_t i = 0; i < x.rows(); ++i) y(i, 0) = 1.0f;
    return y;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  size_t started() const { return started_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<size_t> started_{0};
};

TEST(AdmissionControllerTest, WatermarksPartitionOneBudget) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_inflight = 4;
  cfg.priority_watermarks = {1.0, 0.5};
  cfg.routes["gold"] = RoutePolicy{0, false};
  cfg.routes["bronze"] = RoutePolicy{1, false};
  AdmissionController ctl(cfg);
  // Class 1 sheds at 50% of the budget; class 0 fills all of it.
  EXPECT_TRUE(ctl.Admit("bronze").admitted);
  EXPECT_TRUE(ctl.Admit("bronze").admitted);
  auto low = ctl.Admit("bronze");
  EXPECT_FALSE(low.admitted);
  EXPECT_EQ(low.reason, ShedReason::kPriorityShed);
  EXPECT_TRUE(ctl.Admit("gold").admitted);
  EXPECT_TRUE(ctl.Admit("gold").admitted);
  auto full = ctl.Admit("gold");
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, ShedReason::kQueueFull);
  // Releases reopen the budget, lowest class last.
  ctl.Release();
  ctl.Release();
  ctl.Release();
  EXPECT_TRUE(ctl.Admit("bronze").admitted);
  EXPECT_EQ(ctl.inflight(), 2u);
  // An unconfigured route uses the default policy (class 0 here).
  EXPECT_TRUE(ctl.Admit("unknown-route").admitted);
}

TEST(AdmissionServeTest, SaturationShedsTypedAndAccountsPerReason) {
  ServerConfig cfg;
  cfg.dim = 2;
  cfg.enable_batching = true;
  cfg.scheduler.max_batch = 4;
  cfg.admission.enabled = true;
  cfg.admission.max_inflight = 4;
  cfg.admission.priority_watermarks = {1.0};
  SelNetServer server(cfg);
  auto blocking = std::make_shared<BlockingEstimator>();
  server.Publish(blocking);

  float x[2] = {0.1f, 0.2f};
  std::vector<std::future<EstimateResponse>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(SubmitAsync(server, EstimateRequest::Point(x, 2, 0.5f)));
  }
  // Budget exhausted: every further submit is a TYPED rejection, delivered
  // synchronously (no scheduler queue, no pool worker).
  for (int i = 0; i < 3; ++i) {
    try {
      Await(server, EstimateRequest::Point(x, 2, 0.5f));
      FAIL() << "expected OverloadError";
    } catch (const OverloadError& e) {
      EXPECT_EQ(e.reason(), ShedReason::kQueueFull);
    }
  }
  blocking->Release();
  for (auto& f : admitted) {
    EstimateResponse resp = f.get();
    ASSERT_EQ(resp.estimates.size(), 1u);
    EXPECT_EQ(resp.estimates[0], 1.0f);
  }
  server.Drain();

  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.sheds[size_t(ShedReason::kQueueFull)], 3u);
  EXPECT_EQ(s.shed_total, 3u);
  EXPECT_EQ(s.degraded, 0u);
  // Tickets were all handed back: the budget is whole again.
  ASSERT_NE(server.admission(), nullptr);
  EXPECT_EQ(server.admission()->inflight(), 0u);
  // The admin plane serializes the same taxonomy.
  std::string json = StatsToJson(s);
  EXPECT_NE(json.find("\"overload\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_full\":3"), std::string::npos);
}

TEST(AdmissionServeTest, PriorityClassesShedLowBeforeHigh) {
  ServerConfig cfg;
  cfg.dim = 2;
  cfg.enable_batching = true;
  cfg.scheduler.max_batch = 8;
  cfg.admission.enabled = true;
  cfg.admission.max_inflight = 4;
  cfg.admission.priority_watermarks = {1.0, 0.5};
  cfg.admission.routes["gold"] = RoutePolicy{0, false};
  cfg.admission.routes["bronze"] = RoutePolicy{1, false};
  SelNetServer server(cfg);
  auto blocking = std::make_shared<BlockingEstimator>();
  server.Publish("gold", blocking);
  server.Publish("bronze", blocking);

  float x[2] = {0.3f, 0.4f};
  std::vector<std::future<EstimateResponse>> admitted;
  auto submit = [&](const std::string& route) {
    return SubmitAsync(server, EstimateRequest::Point(x, 2, 0.5f, route));
  };
  // Low class fills to its 50% watermark, then sheds kPriorityShed while
  // the high class still gets the rest of the budget.
  admitted.push_back(submit("bronze"));
  admitted.push_back(submit("bronze"));
  try {
    submit("bronze").get();
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kPriorityShed);
  }
  admitted.push_back(submit("gold"));
  admitted.push_back(submit("gold"));
  try {
    submit("gold").get();
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kQueueFull);
  }
  blocking->Release();
  for (auto& f : admitted) EXPECT_EQ(f.get().estimates[0], 1.0f);
  server.Drain();

  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.sheds[size_t(ShedReason::kPriorityShed)], 1u);
  EXPECT_EQ(s.sheds[size_t(ShedReason::kQueueFull)], 1u);
  EXPECT_EQ(s.shed_total, 2u);
}

TEST(AdmissionServeTest, ExpiredRowsDropBeforePredictWithTypedError) {
  util::ThreadPool pool(1);  // One worker: batches execute strictly in order.
  ServerConfig cfg;
  cfg.dim = 2;
  cfg.enable_batching = true;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.pool = &pool;
  SelNetServer server(cfg);
  auto blocking = std::make_shared<BlockingEstimator>();
  server.Publish(blocking);

  float x[2] = {0.5f, 0.6f};
  // Request A occupies the only worker inside Predict.
  auto blocked = SubmitAsync(server, EstimateRequest::Point(x, 2, 0.5f));
  while (blocking->started() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Request B carries a deadline that expires while its batch waits behind
  // A's. Its row must be dropped AT the batch boundary, never predicted.
  EstimateRequest doomed = EstimateRequest::Point(x, 2, 0.5f);
  doomed.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  auto expired = SubmitAsync(server, std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  blocking->Release();

  EXPECT_EQ(blocked.get().estimates[0], 1.0f);
  try {
    expired.get();
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kDeadlineExpired);
  }
  server.Drain();
  // Exactly one Predict ran: the expired row never reached the model.
  EXPECT_EQ(blocking->started(), 1u);
  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.deadline_rows_dropped, 1u);
  EXPECT_EQ(s.deadline_rows_predicted, 0u);
  EXPECT_EQ(s.sheds[size_t(ShedReason::kDeadlineExpired)], 1u);
}

TEST(AdmissionServeTest, AlreadyExpiredDeadlineShedsAtSubmit) {
  ServerConfig cfg;
  cfg.dim = 2;
  cfg.enable_batching = true;
  SelNetServer server(cfg);
  server.Publish(std::make_shared<BrokenSweepEstimator>());  // Never reached.

  float x[2] = {0.0f, 0.0f};
  EstimateRequest req = EstimateRequest::Point(x, 2, 0.5f);
  req.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  try {
    Await(server, std::move(req));
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kDeadlineExpired);
  }
  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.sheds[size_t(ShedReason::kDeadlineExpired)], 1u);
  // Shed before routing: the request never counted as served work.
  EXPECT_EQ(s.requests, 0u);
}

TEST_F(ServeFixture, DegradedRouteServesCachedCurveBitIdentically) {
  ServerConfig cfg = MakeServerConfig(/*batching=*/true, /*cache=*/true);
  cfg.admission.enabled = true;
  cfg.admission.max_inflight = 1;
  cfg.admission.default_policy.allow_degrade = true;
  SelNetServer server(cfg);
  server.Publish(model_);
  auto blocking = std::make_shared<BlockingEstimator>();
  server.Publish("block", blocking);

  const float* q = wl_.queries.row(0);
  std::vector<float> ts = {0.2f * wl_.tmax, 0.5f * wl_.tmax, 0.8f * wl_.tmax};
  // Prime: an admitted sweep populates the version-keyed curve cache.
  EstimateResponse primed =
      Await(server, EstimateRequest::Sweep(q, 6, ts));
  EXPECT_FALSE(primed.degraded);

  // Exhaust the budget (size 1) with a request parked inside Predict...
  float xb[6] = {0};
  auto blocked =
      SubmitAsync(server, EstimateRequest::Point(xb, 6, 0.5f, "block"));
  while (blocking->started() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...so the next sweep is shed — and, because the route opted in and the
  // curve is cached, answered DEGRADED: local PWL lookups, bit-identical to
  // the primed fast-path answer, zero model compute.
  EstimateResponse degraded =
      Await(server, EstimateRequest::Sweep(q, 6, ts));
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.version, primed.version);
  ASSERT_EQ(degraded.estimates.size(), primed.estimates.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(degraded.estimates[i], primed.estimates[i]) << "threshold " << i;
  }

  // A shed on a route whose curve is NOT cached still fails typed.
  float other[6] = {9.0f, 9.0f, 9.0f, 9.0f, 9.0f, 9.0f};
  try {
    Await(server, EstimateRequest::Sweep(other, 6, ts));
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kQueueFull);
  }

  blocking->Release();
  EXPECT_EQ(blocked.get().estimates[0], 1.0f);
  server.Drain();
  StatsSnapshot s = server.stats().Snapshot();
  EXPECT_EQ(s.degraded, 1u);
  EXPECT_EQ(s.sheds[size_t(ShedReason::kQueueFull)], 2u);
}

}  // namespace
}  // namespace selnet::serve
