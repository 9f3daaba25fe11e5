#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/backoff.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace selnet::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Invalid("bad shape");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status ReturnsEarly(bool fail) {
  SEL_RETURN_NOT_OK(fail ? Status::Invalid("nope") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(ReturnsEarly(false).ok());
  EXPECT_FALSE(ReturnsEarly(true).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, BetaInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    double v = rng.Beta(3.0, 2.5);
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
    sum += v;
  }
  // Mean of Beta(3, 2.5) = 3 / 5.5 ~ 0.545.
  EXPECT_NEAR(sum / 2000.0, 3.0 / 5.5, 0.03);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(4);
  auto picks = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(picks.size(), 20u);
  std::set<size_t> uniq(picks.begin(), picks.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t p : picks) EXPECT_LT(p, 50u);
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(5);
  auto picks = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> uniq(picks.begin(), picks.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, SubmitWithResultReturnsValue) {
  ThreadPool pool(2);
  std::future<int> sum = pool.SubmitWithResult([] { return 40 + 2; });
  std::future<std::string> text =
      pool.SubmitWithResult([] { return std::string("done"); });
  EXPECT_EQ(sum.get(), 42);
  EXPECT_EQ(text.get(), "done");
}

TEST(ThreadPoolTest, SubmitWithResultPropagatesException) {
  ThreadPool pool(2);
  std::future<int> f = pool.SubmitWithResult(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmitWithResultManyConcurrent) {
  ThreadPool pool(4);
  std::vector<std::future<size_t>> futures;
  for (size_t i = 0; i < 200; ++i) {
    futures.push_back(pool.SubmitWithResult([i] { return i * i; }));
  }
  for (size_t i = 0; i < 200; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); }, 16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  std::atomic<int> count{0};
  ParallelFor(5, 5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  ParallelFor(0, 3, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

// Frame lifetime: once the caller can see the last chunk complete, it
// returns and destroys its stack mutex, so no worker may touch that mutex
// afterwards (under TSan a late lock is reported as a race with the
// destructor). Many short calls whose range just exceeds `grain` maximise
// the window; on a multi-core host every call takes the parallel branch.
TEST(ParallelForTest, ManyShortCallsOnGlobalPool) {
  constexpr size_t kGrain = 2;
  constexpr size_t kRange = kGrain + 1;
  std::atomic<size_t> total{0};
  for (int call = 0; call < 20000; ++call) {
    ParallelFor(0, kRange, [&](size_t) { total.fetch_add(1); }, kGrain);
  }
  EXPECT_EQ(total.load(), 20000 * kRange);
}

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable table({"Model", "MSE"});
  table.AddRow({"SelNet", "4.95"});
  table.AddRow({"KDE", "64.13"});
  std::string s = table.ToString();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("SelNet"), std::string::npos);
  EXPECT_NE(s.find("64.13"), std::string::npos);
}

TEST(TableTest, NumFormatsDigits) {
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::Num(2.0, 0), "2");
}

TEST(EnvTest, DefaultScaleIsSane) {
  ScaleConfig cfg = GetScaleConfig();
  EXPECT_GT(cfg.n, 0u);
  EXPECT_GT(cfg.dim, 0u);
  EXPECT_GE(cfg.w, 2u);
  EXPECT_GT(cfg.epochs, 0u);
}

TEST(EnvTest, EnvIntFallsBack) {
  EXPECT_EQ(EnvInt("SELNET_THIS_VAR_DOES_NOT_EXIST", 123), 123);
}

TEST(HistogramTest, BucketIndexIsExactThenLogLinear) {
  // First 32 buckets are exact 1us buckets.
  for (uint64_t t = 0; t < 32; ++t) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(t), size_t(t));
  }
  // Octave boundaries are continuous: no gap, no overlap.
  EXPECT_EQ(LatencyHistogram::BucketIndex(31), 31u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(32), 32u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(63), 63u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(64), 64u);
  // The clamp tick lands in the last bucket.
  EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::kMaxTicks),
            LatencyHistogram::kNumBuckets - 1);
  // Monotone non-decreasing, steps of at most one, and every bucket's bounds
  // actually contain its ticks.
  size_t prev = 0;
  for (uint64_t t = 1; t < (uint64_t(1) << 14); ++t) {
    size_t idx = LatencyHistogram::BucketIndex(t);
    ASSERT_GE(idx, prev);
    ASSERT_LE(idx - prev, 1u);
    double ms = double(t) * 1e-3;
    ASSERT_GE(ms, LatencyHistogram::BucketLowMs(idx));
    ASSERT_LT(ms, LatencyHistogram::BucketHighMs(idx));
    prev = idx;
  }
}

TEST(HistogramTest, QuantileWithinRelativeErrorBound) {
  LatencyHistogram hist;
  std::vector<double> values;
  // Latencies spanning four decades: 5us .. ~300ms.
  for (int i = 0; i < 400; ++i) {
    double ms = 0.005 * std::pow(1.03, i);
    values.push_back(ms);
    hist.Record(ms);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, values.size());
  for (double q : {0.10, 0.50, 0.90, 0.99, 1.00}) {
    size_t rank = size_t(std::ceil(q * double(values.size())));
    double truth = values[rank - 1];
    // Bucket midpoint error + half-tick rounding slack.
    double tol = truth * HistogramSnapshot::kRelativeErrorBound + 0.001;
    EXPECT_NEAR(snap.ValueAtQuantile(q), truth, tol) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIsAssociativeAndPoolsCounts) {
  LatencyHistogram ha, hb, hc;
  for (int i = 0; i < 100; ++i) ha.Record(0.1 + 0.01 * i);
  for (int i = 0; i < 50; ++i) hb.Record(5.0 + 0.1 * i);
  for (int i = 0; i < 10; ++i) hc.Record(200.0 + i);
  HistogramSnapshot a = ha.Snapshot(), b = hb.Snapshot(), c = hc.Snapshot();

  HistogramSnapshot left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot right = a;
  right.Merge(bc);

  EXPECT_EQ(left.count, 160u);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum_ticks, right.sum_ticks);
  EXPECT_EQ(left.buckets, right.buckets);
  EXPECT_DOUBLE_EQ(left.ValueAtQuantile(0.99), right.ValueAtQuantile(0.99));
  // The merged p99 must come from hc's range — a worst-shard max of the
  // inputs' p50s could never see it.
  EXPECT_GT(left.ValueAtQuantile(0.99), 150.0);
}

TEST(HistogramTest, ConcurrentRecordsKeepExactTotals) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  LatencyHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(0.5 + 0.001 * ((t * kPerThread + i) % 977));
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, uint64_t(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);

  hist.Reset();
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_TRUE(hist.Snapshot().empty());
}

TEST(HistogramTest, ClampsNegativeAndHugeValues) {
  LatencyHistogram hist;
  hist.Record(-3.0);       // clamps to 0 ticks
  hist.Record(1e9);        // clamps into the top bucket
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets.size(), LatencyHistogram::kNumBuckets);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kNumBuckets - 1], 1u);
  // The top-bucket clamp bounds the reported max at ~67s.
  EXPECT_LT(snap.ValueAtQuantile(1.0), 70000.0);
}

TEST(BackoffTest, FirstDelayIsBaseThenJittersWithinEnvelope) {
  BackoffConfig cfg;
  cfg.base_ms = 5.0;
  cfg.cap_ms = 100.0;
  cfg.multiplier = 3.0;
  Backoff backoff(cfg, /*seed=*/42);
  double prev = backoff.NextDelayMs();
  EXPECT_DOUBLE_EQ(prev, cfg.base_ms);
  for (int i = 0; i < 50; ++i) {
    double envelope = std::min(cfg.cap_ms, prev * cfg.multiplier);
    double d = backoff.NextDelayMs();
    EXPECT_GE(d, cfg.base_ms);
    EXPECT_LE(d, std::max(cfg.base_ms, envelope));
    prev = d;
  }
  EXPECT_EQ(backoff.attempts(), 51u);
}

TEST(BackoffTest, SameSeedSameSchedule) {
  Backoff a(BackoffConfig(), 7), b(BackoffConfig(), 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDelayMs(), b.NextDelayMs());
  }
  a.Reset();
  EXPECT_EQ(a.attempts(), 0u);
  EXPECT_DOUBLE_EQ(a.NextDelayMs(), a.config().base_ms);
}

TEST(MetricsRegistryTest, HandlesAreStableAndSeriesKeyOnLabels) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("selnet_test_total", {{"shard", "0"}});
  Counter* b = reg.GetCounter("selnet_test_total", {{"shard", "1"}});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.GetCounter("selnet_test_total", {{"shard", "0"}}));
  a->Increment(3);
  b->Increment();
  EXPECT_EQ(a->Value(), 3u);
  EXPECT_EQ(reg.CounterTotal("selnet_test_total"), 4u);
  EXPECT_EQ(reg.CounterTotal("selnet_absent_total"), 0u);
  reg.GetGauge("selnet_depth")->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("selnet_depth")->Value(), 2.5);
}

TEST(MetricsRegistryTest, ConcurrentResolveAndIncrementIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads re-resolve every iteration (registry mutex), half
      // cache the handle (the documented hot-path pattern); totals must agree
      // either way.
      Counter* cached =
          reg.GetCounter("selnet_spin_total", {{"mode", "cached"}});
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          cached->Increment();
        } else {
          reg.GetCounter("selnet_spin_total", {{"mode", "resolve"}})
              ->Increment();
        }
        reg.GetSummary("selnet_spin_ms")->Record(0.01 * (i % 97));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.CounterTotal("selnet_spin_total"),
            uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(reg.GetSummary("selnet_spin_ms")->Count(),
            uint64_t(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, RenderTextPassesLintAndOrdersSeries) {
  MetricsRegistry reg;
  reg.GetCounter("selnet_b_total", {{"to", "dead"}, {"from", "suspect"}})
      ->Increment(2);
  reg.GetCounter("selnet_b_total", {{"to", "suspect"}, {"from", "healthy"}})
      ->Increment();
  reg.GetGauge("selnet_a_seconds", {{"endpoint", "h:1"}})->Set(1.5);
  reg.GetSummary("selnet_probe_ms", {{"endpoint", "h:1"}})->Record(0.42);
  std::string text = reg.RenderText();
  EXPECT_TRUE(LintExposition(text).ok()) << LintExposition(text).ToString();
  // One TYPE line per name, before its first sample.
  EXPECT_NE(text.find("# TYPE selnet_b_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE selnet_a_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE selnet_probe_ms summary"), std::string::npos);
  EXPECT_LT(text.find("# TYPE selnet_b_total"), text.find("selnet_b_total{"));
  // Summaries expose quantiles plus _sum/_count.
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("selnet_probe_ms_count{endpoint=\"h:1\"} 1"),
            std::string::npos);
}

TEST(MetricsLintTest, RejectsMalformedExposition) {
  EXPECT_FALSE(LintExposition("selnet_x_total 1\n").ok())
      << "sample without a TYPE line must fail";
  EXPECT_FALSE(
      LintExposition("# TYPE selnet_x_total counter\n"
                     "selnet_x_total 1\nselnet_x_total 2\n")
          .ok())
      << "duplicate series must fail";
  EXPECT_FALSE(LintExposition("# TYPE selnet_x_total counter\n"
                              "selnet_x_total{oops} 1\n")
                   .ok())
      << "bad label grammar must fail";
  EXPECT_FALSE(LintExposition("# TYPE selnet_x_total counter\n"
                              "selnet_x_total not-a-number\n")
                   .ok())
      << "non-numeric value must fail";
  // Empty output fails too — the CI smoke treats "no samples" as a broken
  // metrics plane, not a healthy idle one.
  EXPECT_FALSE(LintExposition("").ok());
  EXPECT_FALSE(LintExposition("# TYPE selnet_x_total counter\n").ok())
      << "TYPE with no samples must fail";
}

TEST(EventRingTest, BoundsRetentionAndKeepsMonotoneSeq) {
  EventRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Push("health", "ep" + std::to_string(i), "healthy", "suspect");
  }
  EXPECT_EQ(ring.TotalPushed(), 10u);
  std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest, contiguous sequence numbers, newest == last pushed.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().target, "ep9");
  EXPECT_EQ(events.front().target, "ep6");
  EXPECT_GT(events.back().unix_ms, 0);
}

TEST(EventRingTest, ConcurrentPushersNeverExceedCapacity) {
  EventRing ring(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < 500; ++i) {
        ring.Push("k", "t" + std::to_string(t), "", std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ring.TotalPushed(), 2000u);
  std::vector<Event> events = ring.Snapshot();
  EXPECT_EQ(events.size(), 16u);
  std::set<uint64_t> seqs;
  for (const Event& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), events.size()) << "sequence numbers must be unique";
}

TEST(HistogramCodecTest, RoundTripsSnapshotsExactly) {
  LatencyHistogram hist;
  for (int i = 0; i < 300; ++i) hist.Record(0.01 * std::pow(1.04, i));
  HistogramSnapshot snap = hist.Snapshot();
  auto decoded = DecodeHistogramSnapshot(EncodeHistogramSnapshot(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const HistogramSnapshot& d = decoded.ValueOrDie();
  EXPECT_EQ(d.count, snap.count);
  EXPECT_EQ(d.sum_ticks, snap.sum_ticks);
  EXPECT_EQ(d.buckets, snap.buckets);
  EXPECT_DOUBLE_EQ(d.ValueAtQuantile(0.99), snap.ValueAtQuantile(0.99));

  // Empty snapshots survive the trip too (remote shard with no traffic yet).
  HistogramSnapshot empty;
  auto empty_rt = DecodeHistogramSnapshot(EncodeHistogramSnapshot(empty));
  ASSERT_TRUE(empty_rt.ok());
  EXPECT_TRUE(empty_rt.ValueOrDie().empty());
}

TEST(HistogramCodecTest, RejectsMalformedTokens) {
  EXPECT_FALSE(DecodeHistogramSnapshot("").ok());
  EXPECT_FALSE(DecodeHistogramSnapshot("abc").ok());
  EXPECT_FALSE(DecodeHistogramSnapshot("5;100;9999999:5").ok())
      << "bucket index beyond kNumBuckets must fail";
  EXPECT_FALSE(DecodeHistogramSnapshot("5;100;3:").ok());
  EXPECT_FALSE(DecodeHistogramSnapshot("5;100;3:2,").ok())
      << "trailing comma must fail";
  // Count/bucket skew is tolerated: a scrape can catch a live histogram
  // between the bucket write and the count bump (quantiles degrade
  // gracefully), so the decoder must not reject torn-but-parseable data.
  EXPECT_TRUE(DecodeHistogramSnapshot("5;100;3:2").ok());
}

TEST(Crc32Test, MatchesKnownVectorAndChunksCompose) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chunked computation must equal one-shot.
  const std::string data = "selectivity estimation over the wire";
  uint32_t whole = Crc32(data.data(), data.size());
  uint32_t part = Crc32(data.data(), 10);
  part = Crc32(data.data() + 10, data.size() - 10, part);
  EXPECT_EQ(part, whole);
  // A single flipped bit changes the checksum.
  std::string corrupt = data;
  corrupt[7] ^= 0x20;
  EXPECT_NE(Crc32(corrupt.data(), corrupt.size()), whole);
}

/// The bytewise reference the sliced implementation must match bit for bit.
uint32_t Crc32Bytewise(const unsigned char* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  // Every length 0..257 at every offset 0..7 covers each tail length of the
  // 8-byte main loop at each alignment.
  std::vector<unsigned char> buf(8 + 257);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = uint8_t(i * 131u + 7u);
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 257; ++len) {
      const unsigned char* p = buf.data() + off;
      ASSERT_EQ(Crc32(p, len), Crc32Bytewise(p, len, 0))
          << "off " << off << " len " << len;
      ASSERT_EQ(Crc32(p, len, 0x12345678u),
                Crc32Bytewise(p, len, 0x12345678u))
          << "seeded, off " << off << " len " << len;
    }
  }
}

TEST(Crc32Test, ChainingMatchesOnePassAtEverySplit) {
  std::vector<unsigned char> ab(100);
  for (size_t i = 0; i < ab.size(); ++i) ab[i] = uint8_t(i * 37u + 11u);
  const uint32_t whole = Crc32(ab.data(), ab.size());
  for (size_t m = 0; m <= ab.size(); ++m) {
    EXPECT_EQ(Crc32(ab.data() + m, ab.size() - m, Crc32(ab.data(), m)), whole)
        << "split at " << m;
  }
}

}  // namespace
}  // namespace selnet::util
