#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/wire.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/pack_cache.h"
#include "util/table.h"

namespace selnet::serve {

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t n = sorted.size();
  // Nearest-rank: the ceil(p * n)-th smallest sample, 1-based. The old
  // `p * (n - 1) + 0.5` form overshot on small n (p99 of 3 samples picked
  // the max's neighbor instead of the max).
  size_t rank = size_t(std::ceil(p * double(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return sorted[rank - 1];
}

// ------------------------------------------------------------- RouteStats ---

void ServeStats::RouteStats::Reset() {
  requests_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  sheds_.store(0, std::memory_order_relaxed);
  latency_.Reset();
}

RouteSnapshot ServeStats::RouteStats::Snapshot(const std::string& name) const {
  RouteSnapshot s;
  s.route = name;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.curve_hits = hits_.load(std::memory_order_relaxed);
  s.curve_misses = misses_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  util::HistogramSnapshot hist = latency_.Snapshot();
  if (!hist.empty()) {
    s.latency_p50_ms = hist.ValueAtQuantile(0.50);
    s.latency_p99_ms = hist.ValueAtQuantile(0.99);
  }
  return s;
}

// -------------------------------------------------------------- ServeStats ---

ServeStats::ServeStats() : start_(std::chrono::steady_clock::now()) {}

void ServeStats::RecordBatch(size_t batch_size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch_size, std::memory_order_relaxed);
}

void ServeStats::ConfigureSlowTrace(double threshold_ms, size_t capacity) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_threshold_ms_ = threshold_ms;
  slow_capacity_ = std::max<size_t>(1, capacity);
  slow_.clear();
  slow_next_ = 0;
  slow_seen_ = 0;
}

void ServeStats::RecordSpan(const SpanRecord& span) {
  for (size_t i = 0; i < kNumStages; ++i) {
    if (span.stage_ms[i] > 0.0) stage_[i].Record(span.stage_ms[i]);
  }
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (span.total_ms < slow_threshold_ms_) return;
  if (slow_.size() < slow_capacity_) {
    slow_.push_back(span);
  } else {
    slow_[slow_next_] = span;
  }
  slow_next_ = (slow_next_ + 1) % slow_capacity_;
  ++slow_seen_;
}

std::vector<SpanRecord> ServeStats::SlowSpans() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  std::vector<SpanRecord> out;
  out.reserve(slow_.size());
  if (slow_.size() < slow_capacity_) {
    out = slow_;  // Ring has not wrapped: insertion order IS oldest-first.
  } else {
    for (size_t i = 0; i < slow_.size(); ++i) {
      out.push_back(slow_[(slow_next_ + i) % slow_.size()]);
    }
  }
  return out;
}

void ServeStats::RecordPipelinePublish() {
  pipeline_publishes_.fetch_add(1, std::memory_order_relaxed);
  int64_t ns;
  {
    std::lock_guard<std::mutex> lock(start_mu_);
    ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
             .count();
  }
  last_publish_ns_.store(ns, std::memory_order_relaxed);
}

ServeStats::RouteStats* ServeStats::Route(const std::string& route) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  auto& slot = routes_[route];
  if (!slot) slot = std::make_unique<RouteStats>();
  return slot.get();
}

void ServeStats::Reset() {
  requests_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  batched_requests_.store(0, std::memory_order_relaxed);
  sweeps_.store(0, std::memory_order_relaxed);
  sweep_fastpath_.store(0, std::memory_order_relaxed);
  curve_hits_.store(0, std::memory_order_relaxed);
  curve_misses_.store(0, std::memory_order_relaxed);
  swaps_.store(0, std::memory_order_relaxed);
  traced_.store(0, std::memory_order_relaxed);
  for (auto& shed : sheds_) shed.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
  deadline_rows_dropped_.store(0, std::memory_order_relaxed);
  deadline_rows_predicted_.store(0, std::memory_order_relaxed);
  update_ops_.store(0, std::memory_order_relaxed);
  update_ops_applied_.store(0, std::memory_order_relaxed);
  retrains_.store(0, std::memory_order_relaxed);
  retrain_epochs_.store(0, std::memory_order_relaxed);
  pipeline_publishes_.store(0, std::memory_order_relaxed);
  last_drift_.store(0.0, std::memory_order_relaxed);
  last_publish_ns_.store(-1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (auto& [name, rs] : routes_) rs->Reset();
  }
  latency_.Reset();
  for (auto& h : stage_) h.Reset();
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_.clear();
    slow_next_ = 0;
    slow_seen_ = 0;
  }
  std::lock_guard<std::mutex> lock(start_mu_);
  start_ = std::chrono::steady_clock::now();
}

StatsSnapshot ServeStats::Snapshot() const {
  StatsSnapshot s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.sweeps = sweeps_.load(std::memory_order_relaxed);
  s.sweep_fastpath = sweep_fastpath_.load(std::memory_order_relaxed);
  s.curve_hits = curve_hits_.load(std::memory_order_relaxed);
  s.curve_misses = curve_misses_.load(std::memory_order_relaxed);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.traced = traced_.load(std::memory_order_relaxed);
  s.shed_total = 0;
  for (size_t i = 0; i < kNumShedReasons; ++i) {
    s.sheds[i] = sheds_[i].load(std::memory_order_relaxed);
    s.shed_total += s.sheds[i];
  }
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.deadline_rows_dropped =
      deadline_rows_dropped_.load(std::memory_order_relaxed);
  s.deadline_rows_predicted =
      deadline_rows_predicted_.load(std::memory_order_relaxed);
  if (deadline_row_source_) {
    auto [dropped, predicted] = deadline_row_source_();
    s.deadline_rows_dropped += dropped;
    s.deadline_rows_predicted += predicted;
  }
  s.update_ops = update_ops_.load(std::memory_order_relaxed);
  s.update_ops_applied = update_ops_applied_.load(std::memory_order_relaxed);
  s.retrains = retrains_.load(std::memory_order_relaxed);
  s.retrain_epochs = retrain_epochs_.load(std::memory_order_relaxed);
  s.pipeline_publishes = pipeline_publishes_.load(std::memory_order_relaxed);
  s.last_drift = last_drift_.load(std::memory_order_relaxed);
  // Kernel-engine observability: which micro-kernel dispatch resolved to and
  // how often the version-keyed pack cache spared a repack. Process-wide
  // (the packs hang off shared model parameters, not one server).
  tensor::PackStatsSnapshot pack = tensor::PackStats();
  s.pack_hits = pack.hits;
  s.pack_builds = pack.builds;
  s.gemm_kernel = tensor::ActiveKernel().name;

  {
    std::lock_guard<std::mutex> lock(start_mu_);
    s.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
  }
  int64_t publish_ns = last_publish_ns_.load(std::memory_order_relaxed);
  if (publish_ns >= 0) {
    s.last_publish_age_s = s.elapsed_seconds - double(publish_ns) * 1e-9;
  }
  if (s.elapsed_seconds > 0) s.qps = double(s.requests) / s.elapsed_seconds;
  if (s.batches > 0) {
    s.avg_batch_size = double(s.batched_requests) / double(s.batches);
  }
  s.latency_hist = latency_.Snapshot();
  if (!s.latency_hist.empty()) {
    s.latency_p50_ms = s.latency_hist.ValueAtQuantile(0.50);
    s.latency_p99_ms = s.latency_hist.ValueAtQuantile(0.99);
    s.latency_mean_ms = s.latency_hist.MeanMs();
  }
  s.stage_hists.reserve(kNumStages);
  for (const auto& h : stage_) s.stage_hists.push_back(h.Snapshot());
  s.slow_requests = SlowSpans();
  // Copy the stable (name, accumulator) pairs under the map lock, then do
  // the percentile work after releasing it — Route() sits on the request
  // admission path and must never wait behind a metrics scrape.
  std::vector<std::pair<std::string, const RouteStats*>> route_ptrs;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    route_ptrs.reserve(routes_.size());
    for (const auto& [name, rs] : routes_) route_ptrs.emplace_back(name, rs.get());
  }
  s.routes.reserve(route_ptrs.size());
  for (const auto& [name, rs] : route_ptrs) s.routes.push_back(rs->Snapshot(name));
  return s;
}

std::string ServeStats::Report(const std::string& title) const {
  StatsSnapshot s = Snapshot();
  util::AsciiTable table({"metric", "value"});
  table.AddRow({"requests", std::to_string(s.requests)});
  table.AddRow({"qps", util::AsciiTable::Num(s.qps, 1)});
  table.AddRow({"latency p50 (ms)", util::AsciiTable::Num(s.latency_p50_ms, 4)});
  table.AddRow({"latency p99 (ms)", util::AsciiTable::Num(s.latency_p99_ms, 4)});
  table.AddRow({"latency mean (ms)",
                util::AsciiTable::Num(s.latency_mean_ms, 4)});
  table.AddRow({"batches", std::to_string(s.batches)});
  table.AddRow({"avg batch size", util::AsciiTable::Num(s.avg_batch_size, 2)});
  table.AddRow({"sweeps", std::to_string(s.sweeps)});
  table.AddRow({"sweep fast-path", std::to_string(s.sweep_fastpath)});
  table.AddRow({"curve-cache hits", std::to_string(s.curve_hits)});
  table.AddRow({"curve-cache misses", std::to_string(s.curve_misses)});
  table.AddRow({"model swaps", std::to_string(s.swaps)});
  table.AddRow({"traced requests", std::to_string(s.traced)});
  table.AddRow({"gemm kernel", s.gemm_kernel});
  table.AddRow({"pack-cache hits", std::to_string(s.pack_hits)});
  table.AddRow({"pack builds", std::to_string(s.pack_builds)});
  std::string out = title + "\n" + table.ToString();

  // Overload section: only once something has been shed, degraded, or
  // deadline-dropped.
  if (s.shed_total > 0 || s.degraded > 0 || s.deadline_rows_dropped > 0 ||
      s.deadline_rows_predicted > 0) {
    util::AsciiTable ov({"overload", "value"});
    for (size_t i = 1; i < kNumShedReasons; ++i) {
      if (s.sheds[i] == 0) continue;
      ov.AddRow({std::string("shed: ") + ShedReasonName(ShedReason(i)),
                 std::to_string(s.sheds[i])});
    }
    ov.AddRow({"shed total", std::to_string(s.shed_total)});
    ov.AddRow({"degraded (cached curve)", std::to_string(s.degraded)});
    ov.AddRow({"deadline rows dropped",
               std::to_string(s.deadline_rows_dropped)});
    ov.AddRow({"deadline rows predicted",
               std::to_string(s.deadline_rows_predicted)});
    out += "\n" + ov.ToString();
  }

  // Per-stage section: only once sampling has traced something.
  bool any_stage = false;
  for (const auto& h : s.stage_hists) any_stage |= !h.empty();
  if (any_stage) {
    util::AsciiTable st({"stage", "samples", "p50 ms", "p99 ms"});
    for (size_t i = 0; i < s.stage_hists.size(); ++i) {
      const auto& h = s.stage_hists[i];
      if (h.empty()) continue;
      st.AddRow({StageName(Stage(i)), std::to_string(h.count),
                 util::AsciiTable::Num(h.ValueAtQuantile(0.50), 4),
                 util::AsciiTable::Num(h.ValueAtQuantile(0.99), 4)});
    }
    out += "\n" + st.ToString();
  }

  // Slow-request section: full span breakdowns of traced outliers.
  if (!s.slow_requests.empty()) {
    std::vector<std::string> headers = {"slow request", "total ms"};
    for (size_t i = 0; i < kNumStages; ++i) {
      headers.push_back(StageName(Stage(i)));
    }
    util::AsciiTable slow(headers);
    for (const auto& span : s.slow_requests) {
      std::vector<std::string> row;
      row.push_back(span.route.empty() ? "(default)" : span.route);
      row.push_back(util::AsciiTable::Num(span.total_ms, 3));
      for (size_t i = 0; i < kNumStages; ++i) {
        row.push_back(util::AsciiTable::Num(span.stage_ms[i], 3));
      }
      slow.AddRow(row);
    }
    out += "\n" + slow.ToString();
  }

  // Update-pipeline section: only once a pipeline has ingested anything.
  if (s.update_ops > 0 || s.pipeline_publishes > 0) {
    util::AsciiTable up({"update pipeline", "value"});
    up.AddRow({"ops ingested", std::to_string(s.update_ops)});
    up.AddRow({"ops applied", std::to_string(s.update_ops_applied)});
    up.AddRow({"retrains triggered", std::to_string(s.retrains)});
    up.AddRow({"retrain epochs", std::to_string(s.retrain_epochs)});
    up.AddRow({"republishes", std::to_string(s.pipeline_publishes)});
    up.AddRow({"last drift (MAE)", util::AsciiTable::Num(s.last_drift, 3)});
    up.AddRow({"last publish age (s)",
               util::AsciiTable::Num(s.last_publish_age_s, 2)});
    out += "\n" + up.ToString();
  }

  // Per-route section: the one-report A/B view.
  if (!s.routes.empty()) {
    util::AsciiTable routes({"route", "requests", "p50 ms", "p99 ms",
                             "curve hit rate"});
    for (const auto& r : s.routes) {
      routes.AddRow({r.route, std::to_string(r.requests),
                     util::AsciiTable::Num(r.latency_p50_ms, 4),
                     util::AsciiTable::Num(r.latency_p99_ms, 4),
                     util::AsciiTable::Num(CurveHitRate(r), 4)});
    }
    out += "\n" + routes.ToString();
  }
  return out;
}

StatsSnapshot AggregateSnapshots(const std::vector<StatsSnapshot>& shards) {
  StatsSnapshot agg;
  agg.stage_hists.resize(kNumStages);
  double mean_weighted = 0.0;
  uint64_t mean_weight = 0;
  double worst_p50 = 0.0, worst_p99 = 0.0;
  for (const StatsSnapshot& s : shards) {
    agg.requests += s.requests;
    agg.batches += s.batches;
    agg.batched_requests += s.batched_requests;
    agg.sweeps += s.sweeps;
    agg.sweep_fastpath += s.sweep_fastpath;
    agg.curve_hits += s.curve_hits;
    agg.curve_misses += s.curve_misses;
    agg.swaps += s.swaps;
    agg.traced += s.traced;
    for (size_t i = 0; i < kNumShedReasons && i < s.sheds.size(); ++i) {
      agg.sheds[i] += s.sheds[i];
    }
    agg.shed_total += s.shed_total;
    agg.degraded += s.degraded;
    agg.deadline_rows_dropped += s.deadline_rows_dropped;
    agg.deadline_rows_predicted += s.deadline_rows_predicted;
    agg.update_ops += s.update_ops;
    agg.update_ops_applied += s.update_ops_applied;
    agg.retrains += s.retrains;
    agg.retrain_epochs += s.retrain_epochs;
    agg.pipeline_publishes += s.pipeline_publishes;
    agg.qps += s.qps;
    agg.elapsed_seconds = std::max(agg.elapsed_seconds, s.elapsed_seconds);
    agg.latency_hist.Merge(s.latency_hist);
    for (size_t i = 0; i < kNumStages && i < s.stage_hists.size(); ++i) {
      agg.stage_hists[i].Merge(s.stage_hists[i]);
    }
    for (const SpanRecord& span : s.slow_requests) {
      agg.slow_requests.push_back(span);
    }
    worst_p50 = std::max(worst_p50, s.latency_p50_ms);
    worst_p99 = std::max(worst_p99, s.latency_p99_ms);
    mean_weighted += s.latency_mean_ms * double(s.requests);
    mean_weight += s.requests;
    if (s.last_publish_age_s >= 0.0 &&
        (agg.last_publish_age_s < 0.0 ||
         s.last_publish_age_s < agg.last_publish_age_s)) {
      agg.last_publish_age_s = s.last_publish_age_s;
      agg.last_drift = s.last_drift;
    }
    for (const RouteSnapshot& r : s.routes) agg.routes.push_back(r);
    // Pack stats are process-wide; every shard reports the same numbers.
    agg.pack_hits = s.pack_hits;
    agg.pack_builds = s.pack_builds;
    agg.gemm_kernel = s.gemm_kernel;
  }
  if (agg.batches > 0) {
    agg.avg_batch_size = double(agg.batched_requests) / double(agg.batches);
  }
  if (!agg.latency_hist.empty()) {
    // The real fleet percentiles: quantiles of the bucket-merged histogram
    // are the quantiles of the pooled per-shard samples (within the bucket
    // error bound), because merge is a bucket-wise sum.
    agg.latency_p50_ms = agg.latency_hist.ValueAtQuantile(0.50);
    agg.latency_p99_ms = agg.latency_hist.ValueAtQuantile(0.99);
    agg.latency_mean_ms = agg.latency_hist.MeanMs();
  } else {
    // Summary-only snapshots (no histogram data): fall back to worst-shard
    // percentiles and the request-weighted mean.
    agg.latency_p50_ms = worst_p50;
    agg.latency_p99_ms = worst_p99;
    if (mean_weight > 0) {
      agg.latency_mean_ms = mean_weighted / double(mean_weight);
    }
  }
  return agg;
}

std::string StatsToJson(const StatsSnapshot& s) {
  JsonWriter w;
  if (!s.node_id.empty()) w.Field("node", s.node_id);
  if (s.uptime_s > 0.0) w.Field("uptime_s", s.uptime_s);
  w.Field("requests", s.requests);
  w.Field("qps", s.qps);
  w.Field("elapsed_s", s.elapsed_seconds);
  w.Field("batches", s.batches);
  w.Field("avg_batch_size", s.avg_batch_size);
  w.Field("sweeps", s.sweeps);
  w.Field("sweep_fastpath", s.sweep_fastpath);
  w.Field("curve_hits", s.curve_hits);
  w.Field("curve_misses", s.curve_misses);
  w.Field("swaps", s.swaps);
  w.Field("traced", s.traced);
  {
    JsonWriter ov;
    JsonWriter sheds;
    for (size_t i = 1; i < kNumShedReasons && i < s.sheds.size(); ++i) {
      sheds.Field(ShedReasonName(ShedReason(i)), s.sheds[i]);
    }
    ov.RawField("sheds", sheds.Finish());
    ov.Field("shed_total", s.shed_total);
    ov.Field("degraded", s.degraded);
    ov.Field("deadline_rows_dropped", s.deadline_rows_dropped);
    ov.Field("deadline_rows_predicted", s.deadline_rows_predicted);
    w.RawField("overload", ov.Finish());
  }
  w.Field("pack_hits", s.pack_hits);
  w.Field("pack_builds", s.pack_builds);
  w.Field("gemm_kernel", s.gemm_kernel);
  {
    JsonWriter lat;
    lat.Field("count", s.latency_hist.count);
    lat.Field("p50_ms", s.latency_p50_ms);
    lat.Field("p99_ms", s.latency_p99_ms);
    lat.Field("mean_ms", s.latency_mean_ms);
    w.RawField("latency", lat.Finish());
  }
  {
    JsonWriter stages;
    for (size_t i = 0; i < s.stage_hists.size(); ++i) {
      const util::HistogramSnapshot& h = s.stage_hists[i];
      JsonWriter st;
      st.Field("count", h.count);
      st.Field("p50_ms", h.ValueAtQuantile(0.50));
      st.Field("p99_ms", h.ValueAtQuantile(0.99));
      st.Field("mean_ms", h.MeanMs());
      stages.RawField(StageName(Stage(i)), st.Finish());
    }
    w.RawField("stages", stages.Finish());
  }
  {
    std::string routes = "[";
    for (size_t i = 0; i < s.routes.size(); ++i) {
      const RouteSnapshot& r = s.routes[i];
      JsonWriter rw;
      rw.Field("route", r.route);
      rw.Field("requests", r.requests);
      rw.Field("sheds", r.sheds);
      rw.Field("p50_ms", r.latency_p50_ms);
      rw.Field("p99_ms", r.latency_p99_ms);
      rw.Field("curve_hits", r.curve_hits);
      rw.Field("curve_misses", r.curve_misses);
      if (i > 0) routes += ",";
      routes += rw.Finish();
    }
    routes += "]";
    w.RawField("routes", routes);
  }
  if (s.update_ops > 0 || s.pipeline_publishes > 0) {
    JsonWriter up;
    up.Field("ops", s.update_ops);
    up.Field("ops_applied", s.update_ops_applied);
    up.Field("retrains", s.retrains);
    up.Field("retrain_epochs", s.retrain_epochs);
    up.Field("publishes", s.pipeline_publishes);
    up.Field("last_drift", s.last_drift);
    up.Field("last_publish_age_s", s.last_publish_age_s);
    w.RawField("update_pipeline", up.Finish());
  }
  if (!s.slots.empty()) {
    std::string slots = "[";
    for (size_t i = 0; i < s.slots.size(); ++i) {
      const SlotSnapshot& sl = s.slots[i];
      JsonWriter sw;
      sw.Field("slot", uint64_t(sl.slot));
      sw.Field("kind", sl.kind);
      sw.Field("endpoint", sl.endpoint);
      sw.Field("health", sl.health);
      if (!sl.node_id.empty()) sw.Field("node", sl.node_id);
      if (sl.uptime_s > 0.0) sw.Field("uptime_s", sl.uptime_s);
      if (sl.scrape_age_s >= 0.0) sw.Field("scrape_age_s", sl.scrape_age_s);
      if (sl.kind == "remote") sw.Field("pending", sl.pending);
      if (i > 0) slots += ",";
      slots += sw.Finish();
    }
    slots += "]";
    w.RawField("slots", slots);
  }
  w.Field("slow_requests", uint64_t(s.slow_requests.size()));
  return w.Finish();
}

namespace {

void AppendSample(std::string& out, const std::string& name,
                  const std::string& labels, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += name + labels + " " + buf + "\n";
}

void AppendSample(std::string& out, const std::string& name,
                  const std::string& labels, uint64_t value) {
  out += name + labels + " " + std::to_string(value) + "\n";
}

std::string ExpositionLabel(const std::string& key, const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') escaped += '\\';
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped += c;
  }
  return "{" + key + "=\"" + escaped + "\"}";
}

void AppendSummary(std::string& out, const std::string& name,
                   const std::string& label_key, const std::string& label_val,
                   const util::HistogramSnapshot& h) {
  std::string base =
      label_val.empty() ? "" : label_key + "=\"" + label_val + "\",";
  AppendSample(out, name, "{" + base + "quantile=\"0.5\"}",
               h.ValueAtQuantile(0.50));
  AppendSample(out, name, "{" + base + "quantile=\"0.99\"}",
               h.ValueAtQuantile(0.99));
  std::string plain =
      label_val.empty() ? "" : ExpositionLabel(label_key, label_val);
  AppendSample(out, name + "_sum", plain,
               static_cast<double>(h.sum_ticks) / 1000.0);
  AppendSample(out, name + "_count", plain, h.count);
}

}  // namespace

std::string RenderStatsExposition(const StatsSnapshot& s) {
  std::string out;
  out += "# TYPE selnet_requests_total counter\n";
  AppendSample(out, "selnet_requests_total", "", s.requests);
  out += "# TYPE selnet_curve_hits_total counter\n";
  AppendSample(out, "selnet_curve_hits_total", "", s.curve_hits);
  out += "# TYPE selnet_curve_misses_total counter\n";
  AppendSample(out, "selnet_curve_misses_total", "", s.curve_misses);
  out += "# TYPE selnet_batches_total counter\n";
  AppendSample(out, "selnet_batches_total", "", s.batches);
  out += "# TYPE selnet_sweeps_total counter\n";
  AppendSample(out, "selnet_sweeps_total", "", s.sweeps);
  out += "# TYPE selnet_traced_total counter\n";
  AppendSample(out, "selnet_traced_total", "", s.traced);
  out += "# TYPE selnet_model_swaps_total counter\n";
  AppendSample(out, "selnet_model_swaps_total", "", s.swaps);
  out += "# TYPE selnet_sheds_total counter\n";
  for (size_t i = 1; i < kNumShedReasons && i < s.sheds.size(); ++i) {
    AppendSample(out, "selnet_sheds_total",
                 ExpositionLabel("reason", ShedReasonName(ShedReason(i))),
                 s.sheds[i]);
  }
  out += "# TYPE selnet_degraded_total counter\n";
  AppendSample(out, "selnet_degraded_total", "", s.degraded);
  out += "# TYPE selnet_deadline_rows_dropped_total counter\n";
  AppendSample(out, "selnet_deadline_rows_dropped_total", "",
               s.deadline_rows_dropped);
  out += "# TYPE selnet_uptime_seconds gauge\n";
  AppendSample(out, "selnet_uptime_seconds", "",
               s.uptime_s > 0.0 ? s.uptime_s : s.elapsed_seconds);
  out += "# TYPE selnet_latency_ms summary\n";
  AppendSummary(out, "selnet_latency_ms", "", "", s.latency_hist);
  bool any_stage = false;
  for (const auto& h : s.stage_hists) any_stage |= !h.empty();
  if (any_stage) {
    out += "# TYPE selnet_stage_latency_ms summary\n";
    for (size_t i = 0; i < s.stage_hists.size() && i < kNumStages; ++i) {
      if (s.stage_hists[i].empty()) continue;
      AppendSummary(out, "selnet_stage_latency_ms", "stage",
                    StageName(Stage(i)), s.stage_hists[i]);
    }
  }
  if (!s.routes.empty()) {
    // Replicated routes appear in more than one snapshot of a merged fleet
    // view (local shard + remote scrape): sum per route name so no series
    // is emitted twice.
    std::map<std::string, uint64_t> per_route;
    for (const RouteSnapshot& r : s.routes) {
      per_route[r.route.empty() ? "(default)" : r.route] += r.requests;
    }
    out += "# TYPE selnet_route_requests_total counter\n";
    for (const auto& [route, requests] : per_route) {
      AppendSample(out, "selnet_route_requests_total",
                   ExpositionLabel("route", route), requests);
    }
  }
  if (!s.slots.empty()) {
    out += "# TYPE selnet_slot_health gauge\n";
    for (const SlotSnapshot& sl : s.slots) {
      std::string labels = "{slot=\"" + std::to_string(sl.slot) +
                           "\",kind=\"" + sl.kind + "\",endpoint=\"" +
                           sl.endpoint + "\",state=\"" + sl.health + "\"";
      if (!sl.node_id.empty()) labels += ",node=\"" + sl.node_id + "\"";
      labels += "}";
      AppendSample(out, "selnet_slot_health", labels, uint64_t(1));
    }
    out += "# TYPE selnet_slot_scrape_age_seconds gauge\n";
    for (const SlotSnapshot& sl : s.slots) {
      if (sl.kind != "remote") continue;
      AppendSample(out, "selnet_slot_scrape_age_seconds",
                   ExpositionLabel("endpoint", sl.endpoint), sl.scrape_age_s);
    }
  }
  return out;
}

}  // namespace selnet::serve
