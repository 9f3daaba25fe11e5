#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/admission.h"
#include "serve/trace.h"
#include "util/histogram.h"

/// \file serve_stats.h
/// \brief Serving-side observability: request counters, latency histograms,
/// curve-cache hits, batching efficiency, per-stage spans, per-route
/// breakdowns, and the live-update pipeline's progress.
///
/// All recording paths are lock-free (atomic counters plus the lock-free
/// util::LatencyHistogram) so stats collection never becomes the serving
/// bottleneck. Per-route accumulators are created on first use and addressed
/// by stable pointer (`Route()`), so the serving hot path records through
/// them without re-hashing the route name per threshold. Rendering reuses
/// util::AsciiTable for the same look as the bench harness output;
/// StatsToJson renders the same snapshot for the wire admin plane.

namespace selnet::serve {

/// \brief Per-ring-slot identity and health, carried by the AGGREGATE
/// snapshot a coordinator serves from {"cmd":"stats"} — this is what lets a
/// scraper distinguish local shards from remote replicas, and live remotes
/// from ones whose last scrape went stale.
struct SlotSnapshot {
  size_t slot = 0;
  std::string kind;      ///< "local" or "remote".
  std::string endpoint;  ///< "host:port" for remotes, "shard-<i>" locally.
  std::string health;    ///< ShardHealthName; local shards are "healthy".
  std::string node_id;   ///< Remote's self-reported process identity.
  double uptime_s = 0.0;     ///< Remote's self-reported uptime.
  double scrape_age_s = -1.0;  ///< Age of the merged remote scrape; -1 =
                               ///  none held (never scraped or TTL-dropped).
  uint64_t pending = 0;  ///< In-flight requests awaiting the remote.
};

/// \brief Point-in-time per-route view: one row of the A/B report.
struct RouteSnapshot {
  std::string route;
  uint64_t requests = 0;
  uint64_t curve_hits = 0;    ///< Curve-cache lookups on this route that hit.
  uint64_t curve_misses = 0;  ///< Curve-cache lookups that missed.
  uint64_t sheds = 0;         ///< Typed rejections charged to this route.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

/// \brief Point-in-time view of the serving counters.
struct StatsSnapshot {
  uint64_t requests = 0;        ///< Estimates answered.
  uint64_t batches = 0;         ///< Batched Predict calls issued.
  uint64_t batched_requests = 0;  ///< Requests answered through batches.
  uint64_t sweeps = 0;          ///< Multi-threshold requests submitted.
  uint64_t sweep_fastpath = 0;  ///< Sweeps answered via SweepCapable.
  uint64_t curve_hits = 0;      ///< Requests answered from a cached PWL curve.
  uint64_t curve_misses = 0;    ///< Curve-cache lookups that missed.
  uint64_t swaps = 0;           ///< Model hot-swaps observed.
  uint64_t traced = 0;          ///< Requests that carried a sampled trace.
  /// Overload accounting: requests rejected with a typed error, indexed by
  /// ShedReason (slot kNone stays 0), plus their sum.
  std::vector<uint64_t> sheds = std::vector<uint64_t>(kNumShedReasons, 0);
  uint64_t shed_total = 0;
  /// Requests answered from the cached sweep curve after an admission shed
  /// (EstimateResponse::degraded). Not counted in `sheds`.
  uint64_t degraded = 0;
  /// Scheduler rows dropped at a batch boundary for an expired deadline.
  uint64_t deadline_rows_dropped = 0;
  /// Invariant probe (BatchScheduler::expired_predicted): rows expired at
  /// their batch boundary that reached Predict anyway. Must stay 0.
  uint64_t deadline_rows_predicted = 0;
  /// Live-update pipeline progress (zero unless a pipeline is attached).
  uint64_t update_ops = 0;          ///< Ops accepted onto the ingest queue.
  uint64_t update_ops_applied = 0;  ///< Ops fully applied to the shadow state.
  uint64_t retrains = 0;            ///< Drift-triggered shadow retrains.
  uint64_t retrain_epochs = 0;      ///< Total incremental epochs run.
  uint64_t pipeline_publishes = 0;  ///< Republishes issued by the pipeline.
  double last_drift = 0.0;          ///< MAE drift at the last drift check.
  /// Seconds since the pipeline last republished; negative if it never has.
  double last_publish_age_s = -1.0;
  /// Process-wide packed-weight cache counters (tensor::PackStats) at
  /// snapshot time, plus the GEMM micro-kernel dispatch picked at startup.
  uint64_t pack_hits = 0;
  uint64_t pack_builds = 0;
  std::string gemm_kernel;
  double elapsed_seconds = 0.0;
  double qps = 0.0;
  double avg_batch_size = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  /// The full request-latency distribution (mergeable across shards); the
  /// three summary fields above are computed from it when it is non-empty.
  util::HistogramSnapshot latency_hist;
  /// Per-stage latency distributions for SAMPLED requests, indexed by
  /// serve::Stage (size kNumStages; entries stay empty for stages the
  /// deployment never exercises, e.g. decode/encode without a frontend).
  std::vector<util::HistogramSnapshot> stage_hists;
  /// Most recent traced requests slower than the slow-trace threshold
  /// (oldest first, bounded by ServeStats::ConfigureSlowTrace capacity).
  std::vector<SpanRecord> slow_requests;
  /// Per-route breakdown (route-name order); empty until a request resolves
  /// against a registry slot.
  std::vector<RouteSnapshot> routes;
  /// Process identity of the node this snapshot describes ("" until a
  /// frontend or registry stamps it). An AGGREGATE snapshot carries the
  /// coordinator's id; the per-slot rows below carry the remotes' own.
  std::string node_id;
  /// Seconds this node's serving stack has been up (0 until stamped).
  double uptime_s = 0.0;
  /// Fleet placement: one row per ring slot (locals then remotes). Only
  /// aggregate snapshots fill this; single-shard snapshots leave it empty.
  std::vector<SlotSnapshot> slots;
};

/// \brief curve_hits / (curve_hits + curve_misses) of a StatsSnapshot or a
/// RouteSnapshot; 0 when the curve cache was never consulted.
template <typename Snapshot>
double CurveHitRate(const Snapshot& s) {
  uint64_t lookups = s.curve_hits + s.curve_misses;
  return lookups > 0 ? double(s.curve_hits) / double(lookups) : 0.0;
}

/// \brief Nearest-rank percentile of an ASCENDING-sorted sample vector:
/// the ceil(p * n)-th smallest sample (p in (0, 1]; p <= 0 returns the
/// minimum). This is the reference the histogram's ValueAtQuantile
/// approximates within its bucket error bound; bench code that still pools
/// raw samples uses it directly.
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// \brief Merge per-shard snapshots into one fleet view (used by the sharded
/// registry's report). Counters and QPS sum; the batch rate is recomputed
/// from the summed counters; latency percentiles are computed from the
/// bucket-wise MERGED histograms, so the fleet p50/p99 is the percentile of
/// the pooled samples (within the histogram's relative-error bound), not a
/// worst-shard guess. Hand-built snapshots without histogram data fall back
/// to worst-shard percentiles and a request-weighted mean. Route rows
/// concatenate: consistent hashing places each route on exactly one shard.
StatsSnapshot AggregateSnapshots(const std::vector<StatsSnapshot>& shards);

/// \brief Render a snapshot as one flat-ish JSON object for the wire admin
/// plane ({"cmd":"stats"}): counters, rates, latency percentiles, per-stage
/// percentiles, per-route rows, node identity, and (for aggregate fleet
/// snapshots) per-slot health rows. Stable field names; see
/// src/serve/README.md for the schema.
std::string StatsToJson(const StatsSnapshot& s);

/// \brief Render the serving snapshot as Prometheus text exposition
/// (counters, shed reasons per label, latency + per-stage summaries,
/// per-route requests, per-slot health enums). `{"cmd":"metrics"}` serves
/// this concatenated with the control-plane registry's RenderText(); every
/// line passes util::LintExposition. Metric names are prefixed
/// `selnet_` — see the README's reference table.
std::string RenderStatsExposition(const StatsSnapshot& s);

/// \brief Thread-safe accumulator for serving metrics.
class ServeStats {
 public:
  /// \brief Per-route accumulator. Obtained once per request via Route();
  /// the pointer stays valid for the ServeStats' lifetime (Reset zeroes, it
  /// never erases), so completion callbacks may hold it across threads.
  class RouteStats {
   public:
    RouteStats() = default;

    void RecordRequests(uint64_t n) {
      requests_.fetch_add(n, std::memory_order_relaxed);
    }
    /// \brief One curve-cache lookup on this route.
    void RecordCache(bool hit) {
      (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    }
    void RecordLatencyMs(double ms) { latency_.Record(ms); }
    void RecordShed() { sheds_.fetch_add(1, std::memory_order_relaxed); }

   private:
    friend class ServeStats;
    void Reset();
    RouteSnapshot Snapshot(const std::string& name) const;

    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> sheds_{0};
    util::LatencyHistogram latency_;
  };

  ServeStats();

  void RecordRequest() { requests_.fetch_add(1, std::memory_order_relaxed); }
  void RecordSwap() { swaps_.fetch_add(1, std::memory_order_relaxed); }
  /// \brief One multi-threshold request; `fast_path` when the SweepCapable
  /// control-point path answered it.
  void RecordSweep(bool fast_path) {
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    if (fast_path) sweep_fastpath_.fetch_add(1, std::memory_order_relaxed);
  }
  /// \brief One sweep-curve cache lookup (hit = PWL served, network skipped).
  void RecordCurveLookup(bool hit) {
    if (hit) {
      curve_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      curve_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void RecordBatch(size_t batch_size);
  void RecordLatencyMs(double ms) { latency_.Record(ms); }

  /// \brief One stage observation from a sampled trace (frontends record
  /// encode directly; the server flushes the rest via RecordSpan).
  void RecordStage(Stage s, double ms) { stage_[size_t(s)].Record(ms); }

  /// \brief One request admitted WITH a sampled trace attached.
  void RecordTraced() { traced_.fetch_add(1, std::memory_order_relaxed); }

  /// \brief One request rejected with a typed shed error (kNone ignored).
  void RecordShed(ShedReason r) {
    if (r == ShedReason::kNone) return;
    sheds_[size_t(r)].fetch_add(1, std::memory_order_relaxed);
  }
  /// \brief One shed request answered from the cached sweep curve instead.
  void RecordDegraded() { degraded_.fetch_add(1, std::memory_order_relaxed); }
  /// \brief Scheduler rows dropped pre-Predict for an expired deadline.
  void RecordExpiredRows(uint64_t n) {
    deadline_rows_dropped_.fetch_add(n, std::memory_order_relaxed);
  }
  /// \brief Invariant violations: expired rows that reached Predict.
  void RecordExpiredPredicted(uint64_t n) {
    deadline_rows_predicted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// \brief Register a live (dropped, predicted) deadline-row counter source
  /// — the owning server points this at its BatchScheduler so Snapshot()
  /// reflects scheduler drops without a push path. Set once before serving
  /// starts; survives Reset() (the source's own counters are cumulative).
  void SetDeadlineRowSource(
      std::function<std::pair<uint64_t, uint64_t>()> source) {
    deadline_row_source_ = std::move(source);
  }

  /// \brief Configure the slow-request ring: traced requests whose total
  /// exceeds `threshold_ms` keep their full span breakdown, bounded to the
  /// most recent `capacity`. Clears the ring.
  void ConfigureSlowTrace(double threshold_ms, size_t capacity);

  /// \brief Flush one finished sampled span: every touched stage feeds its
  /// stage histogram, and spans over the slow threshold enter the ring.
  void RecordSpan(const SpanRecord& span);

  /// \brief Copy out the retained slow spans, oldest first.
  std::vector<SpanRecord> SlowSpans() const;

  // Live-update pipeline progress (recorded by serve::LiveUpdatePipeline).
  void RecordUpdateOps(uint64_t n) {
    update_ops_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordUpdateApplied(uint64_t n) {
    update_ops_applied_.fetch_add(n, std::memory_order_relaxed);
  }
  /// \brief One drift check: the observed drift, plus the retrain it did (or
  /// did not, epochs == 0 and !retrained) trigger.
  void RecordDriftCheck(double drift, bool retrained, size_t epochs) {
    last_drift_.store(drift, std::memory_order_relaxed);
    if (retrained) {
      retrains_.fetch_add(1, std::memory_order_relaxed);
      retrain_epochs_.fetch_add(epochs, std::memory_order_relaxed);
    }
  }
  /// \brief The pipeline republished; stamps the publish timestamp.
  void RecordPipelinePublish();

  /// \brief Find-or-create the accumulator for `route`. The returned pointer
  /// is stable until destruction (never invalidated by Reset).
  RouteStats* Route(const std::string& route);

  /// \brief Reset every counter and restart the elapsed-time clock. Route
  /// accumulators are zeroed in place (outstanding Route() pointers stay
  /// valid).
  void Reset();

  StatsSnapshot Snapshot() const;

  /// \brief Render the snapshot as an AsciiTable block; per-route, per-stage,
  /// slow-request, and update-pipeline sections appear when they have data.
  std::string Report(const std::string& title = "serving stats") const;

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_requests_{0};
  std::atomic<uint64_t> sweeps_{0};
  std::atomic<uint64_t> sweep_fastpath_{0};
  std::atomic<uint64_t> curve_hits_{0};
  std::atomic<uint64_t> curve_misses_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> traced_{0};
  std::atomic<uint64_t> sheds_[kNumShedReasons] = {};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> deadline_rows_dropped_{0};
  std::atomic<uint64_t> deadline_rows_predicted_{0};
  std::function<std::pair<uint64_t, uint64_t>()> deadline_row_source_;

  std::atomic<uint64_t> update_ops_{0};
  std::atomic<uint64_t> update_ops_applied_{0};
  std::atomic<uint64_t> retrains_{0};
  std::atomic<uint64_t> retrain_epochs_{0};
  std::atomic<uint64_t> pipeline_publishes_{0};
  std::atomic<double> last_drift_{0.0};
  /// Nanoseconds from start_ to the last pipeline publish; -1 = never.
  std::atomic<int64_t> last_publish_ns_{-1};

  mutable std::mutex routes_mu_;
  /// std::map: stable iteration order for the report; unique_ptr: stable
  /// RouteStats addresses across rehashing-free inserts.
  std::map<std::string, std::unique_ptr<RouteStats>> routes_;

  util::LatencyHistogram latency_;
  util::LatencyHistogram stage_[kNumStages];

  /// Slow-request ring (mutex-guarded: only sampled-and-slow spans pay it).
  mutable std::mutex slow_mu_;
  std::vector<SpanRecord> slow_;
  size_t slow_next_ = 0;
  uint64_t slow_seen_ = 0;
  double slow_threshold_ms_ = 50.0;
  size_t slow_capacity_ = 32;

  mutable std::mutex start_mu_;  ///< Guards start_ (Reset rewrites it).
  std::chrono::steady_clock::time_point start_;
};

}  // namespace selnet::serve
