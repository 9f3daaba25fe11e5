/// \file serve_throughput.cc
/// \brief Serving throughput: batched scheduler vs one-request-at-a-time,
/// plus the sweep workload (SweepCapable fast path vs fallbacks).
///
/// Part 1 — scalar stream, two configurations:
///   unbatched — blocking single-row Predict per request (the baseline a
///               naive integration would ship);
///   batched   — the BatchScheduler coalescing concurrent requests into
///               wide Predict calls.
///
/// Part 2 — threshold sweeps, K=16 thresholds per query:
///   scalar x16   — 16 independent Estimate calls (16 single-row Predicts);
///   row expansion — one 16-row Predict on the model, timed directly;
///   fast path    — one Sweep request through SweepCapable: ONE control-point
///               evaluation + 16 piecewise-linear lookups.
///
/// Part 3 — pack-cache workload: repeated batched Predict on a fixed model,
///   warm (version-keyed packs + fold cached) vs cold (repack per call /
///   publish boundary per batch), interleaved over 7 repeats with the
///   median gated, plus per-dispatched-kernel rows/s.
///
/// Part 4 — live-update pipeline: the same batched scalar stream measured
///   idle vs while the pipeline continuously retrains + republishes in the
///   background (drift threshold 0, a feeder keeps drift-tripping ops
///   queued). The serve path must stay responsive through retrains.
///
/// Part 5 — sharded scale-out: the same model published under 8 routes,
///   served by a 1-shard vs an N-shard ShardedRegistry (one pool thread per
///   shard). Aggregate QPS must scale with shards when cores exist.
///
/// Part 6 — network frontend, three drivers against one sharded router:
///   in-process batched (the ceiling), blocking JSON-over-TCP round-trips
///   (the compat/debug mode — the old 17x cliff), and pipelined binary
///   frames over ClientChannel (hello-negotiated, a window of tagged
///   requests in flight per connection, batch-decoded into SubmitMany).
///   Gated: pipelined binary must land within 2x of in-process.
///
/// Part 7 — tracing overhead: the batched scalar stream with stage tracing
///   off vs sampling 1 request in 64. Sampled tracing must be cheap enough
///   to leave on in production.
///
/// Part 8 — fleet telemetry overhead: a 1-local + 1-remote fleet
///   (replication 2, 8 routes) driven twice — telemetry off vs the full
///   observability plane on (1-in-16 wire-traced requests, a 25 ms
///   remote-stats scrape tick, and a sidecar polling the merged snapshot +
///   text exposition like an external scraper). Same interleaved best-of-2
///   discipline as part 7.
///
/// Acceptance shapes: batched QPS >= 1.7x unbatched QPS (was 2x before the
/// kernel-engine PR; the UNBATCHED baseline then gained ~40% from the cached
/// fold constants and pack-aware kernels, compressing the ratio while both
/// absolute numbers improved), the fast path >= 3x faster per sweep than 16
/// independent scalar estimates, warm-pack batched Predict >= 1.3x rows/s vs
/// the cold-pack baseline, retrain-concurrent p99 <= 2x idle p99, N-shard
/// aggregate QPS >= 1.5x single-shard (gated only on >= 2 cores — shard
/// pools cannot parallelize a single core), pipelined binary wire QPS >= 0.5x
/// in-process batched QPS with zero wire errors (ratio gated on >= 2 cores,
/// like the other concurrency gates; the error check always applies),
/// 1-in-64 sampled tracing costs
/// <= 3% QPS vs tracing off, and the full fleet telemetry plane (traced +
/// scraped) costs <= 3% QPS vs telemetry off (gated on >= 2 cores — the
/// plane's scrape/scraper threads need spare cores to not timeslice the
/// data path).
///
/// `--json PATH` additionally writes every gate and headline metric as one
/// machine-readable JSON object — the CI bench-gate job archives it as the
/// perf trajectory (BENCH_serve.json is the committed baseline).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "serve/client_channel.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "serve/shard_node.h"
#include "serve/shard_router.h"
#include "serve/trace.h"
#include "serve/update_pipeline.h"
#include "serve/wire.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/pack_cache.h"
#include "tests/serve_await.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace selnet;

namespace {

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double avg_batch = 0.0;
};

/// Drive `total_requests` through the server from `num_clients` threads.
/// Each client keeps `pipeline` requests in flight — a selectivity service
/// embedded in a query optimizer scores many candidate predicates at once.
RunResult DriveLoad(serve::SelNetServer* server, const data::Workload& wl,
                    size_t total_requests, size_t num_clients,
                    size_t pipeline) {
  server->stats().Reset();
  std::atomic<size_t> remaining{total_requests};
  util::Stopwatch watch;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(7 + c);
      std::vector<std::future<float>> in_flight;
      in_flight.reserve(pipeline);
      for (;;) {
        size_t batch = 0;
        while (batch < pipeline) {
          size_t prev = remaining.fetch_sub(1);
          if (prev == 0 || prev > total_requests) {  // Underflow guard.
            remaining.store(0);
            break;
          }
          size_t qi = size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
          float t = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
          // One promise per request, resolved with the scalar estimate.
          auto promise = std::make_shared<std::promise<float>>();
          in_flight.push_back(promise->get_future());
          server->SubmitWith(
              serve::EstimateRequest::Point(wl.queries.row(qi),
                                            wl.queries.cols(), t),
              [promise](serve::EstimateResponse&& resp,
                        std::exception_ptr error) {
                if (error) {
                  promise->set_exception(error);
                } else {
                  promise->set_value(resp.estimates[0]);
                }
              });
          ++batch;
        }
        for (auto& f : in_flight) f.get();
        in_flight.clear();
        if (batch < pipeline) return;
      }
    });
  }
  for (auto& th : clients) th.join();
  server->Drain();
  double seconds = watch.ElapsedSeconds();

  serve::StatsSnapshot s = server->stats().Snapshot();
  RunResult r;
  r.qps = double(total_requests) / seconds;
  r.p50_ms = s.latency_p50_ms;
  r.p99_ms = s.latency_p99_ms;
  r.avg_batch = s.avg_batch_size;
  return r;
}

/// Drive `total_requests` scalar requests through a ShardedRegistry from
/// `num_clients` threads, round-robining across `routes`. Returns aggregate
/// QPS (the scale-out comparison only needs throughput).
double DriveShardLoad(serve::ShardedRegistry* reg, const data::Workload& wl,
                      const std::vector<std::string>& routes,
                      size_t total_requests, size_t num_clients,
                      size_t pipeline, size_t trace_every = 0) {
  std::atomic<size_t> remaining{total_requests};
  util::Stopwatch watch;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(11 + c);
      std::vector<std::future<serve::EstimateResponse>> in_flight;
      in_flight.reserve(pipeline);
      size_t rr = c;  // Stagger route round-robin across clients.
      size_t sent = 0;
      for (;;) {
        size_t batch = 0;
        while (batch < pipeline) {
          size_t prev = remaining.fetch_sub(1);
          if (prev == 0 || prev > total_requests) {  // Underflow guard.
            remaining.store(0);
            break;
          }
          size_t qi = size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
          float t = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
          serve::EstimateRequest req = serve::EstimateRequest::Point(
              wl.queries.row(qi), wl.queries.cols(), t,
              routes[rr++ % routes.size()]);
          // 1-in-N wire tracing: a remote primary then times its own stages
          // and the stage block rides back with the response.
          if (trace_every != 0 && ++sent % trace_every == 0) {
            req.trace = std::make_shared<serve::RequestTrace>();
          }
          in_flight.push_back(serve::SubmitAsync(*reg, std::move(req)));
          ++batch;
        }
        for (auto& f : in_flight) f.get();
        in_flight.clear();
        if (batch < pipeline) return;
      }
    });
  }
  for (auto& th : clients) th.join();
  reg->Drain();
  return double(total_requests) / watch.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::PrintBanner("Serving throughput: batched vs unbatched");

  data::SyntheticSpec spec;
  spec.n = 4000;
  spec.dim = 16;
  spec.num_clusters = 8;
  data::Database db(data::GenerateMixture(spec), data::Metric::kEuclidean);
  data::WorkloadSpec wspec;
  wspec.num_queries = 160;
  wspec.w = 8;
  wspec.max_sel_fraction = 0.1;
  data::Workload wl = data::GenerateWorkload(db, wspec);

  core::SelNetConfig cfg;
  cfg.input_dim = db.dim();
  cfg.tmax = wl.tmax;
  cfg.num_control = 12;
  eval::TrainContext ctx;
  ctx.db = &db;
  ctx.workload = &wl;
  ctx.epochs = 4;  // Latency does not depend on training quality.
  auto model = std::make_shared<core::SelNetCt>(cfg);
  model->Fit(ctx);

  const size_t kRequests = 20000;
  const size_t kClients = 8;
  const size_t kPipeline = 64;

  auto make_server = [&](bool batching) {
    serve::ServerConfig scfg;
    scfg.dim = db.dim();
    scfg.enable_batching = batching;
    scfg.scheduler.max_batch = 128;
    auto server = std::make_unique<serve::SelNetServer>(scfg);
    server->Publish(model);
    return server;
  };

  // One-request-at-a-time baseline: a single client, pipeline depth 1, no
  // batching — every request is one full single-row Predict.
  auto unbatched = make_server(false);
  RunResult base = DriveLoad(unbatched.get(), wl, kRequests / 4, 1, 1);

  auto batched = make_server(true);
  RunResult bat = DriveLoad(batched.get(), wl, kRequests, kClients, kPipeline);

  util::AsciiTable table({"config", "QPS", "p50 ms", "p99 ms", "avg batch"});
  auto add = [&](const char* name, const RunResult& r) {
    table.AddRow({name, util::AsciiTable::Num(r.qps, 0),
                  util::AsciiTable::Num(r.p50_ms, 3),
                  util::AsciiTable::Num(r.p99_ms, 3),
                  util::AsciiTable::Num(r.avg_batch, 1)});
  };
  add("unbatched (1 client)", base);
  add("batched (8 clients)", bat);
  table.Print("serve_throughput");

  double speedup = base.qps > 0 ? bat.qps / base.qps : 0.0;
  std::printf(
      "\nbatched vs unbatched speedup: %.2fx (acceptance: >= 1.7x) %s\n",
      speedup, speedup >= 1.7 ? "OK" : "BELOW TARGET");

  // ------------------------------------------------------ sweep workload ---
  // Batching and the curve cache are off so every mode measures pure compute
  // on the caller thread: the comparison is 16 single-row Predicts vs one
  // 16-row Predict vs one control-point evaluation + 16 PWL lookups.
  bench::PrintBanner("Sweep workload: K=16 thresholds per query");
  const size_t kThresholds = 16;
  const size_t kSweeps = 300;

  std::vector<float> ts(kThresholds);
  for (size_t i = 0; i < kThresholds; ++i) {
    ts[i] = wl.tmax * float(i + 1) / float(kThresholds);
  }
  auto query_for = [&](size_t s) {
    return wl.queries.row(s % wl.queries.rows());
  };

  auto sweep_server = make_server(/*batching=*/false);
  util::Stopwatch scalar_watch;
  for (size_t s = 0; s < kSweeps; ++s) {
    for (size_t i = 0; i < kThresholds; ++i) {
      serve::Await(*sweep_server, serve::EstimateRequest::Point(
                                      query_for(s), db.dim(), ts[i]));
    }
  }
  double scalar_us = scalar_watch.ElapsedMillis() * 1000.0 / double(kSweeps);

  // Row expansion, as the server runs it for a model without sweeps: the
  // query copied into K rows, one K-row Predict.
  util::Stopwatch fallback_watch;
  for (size_t s = 0; s < kSweeps; ++s) {
    tensor::Matrix xm(kThresholds, db.dim());
    tensor::Matrix tm(kThresholds, 1);
    for (size_t r = 0; r < kThresholds; ++r) {
      std::copy(query_for(s), query_for(s) + db.dim(), xm.row(r));
      tm(r, 0) = ts[r];
    }
    model->Predict(xm, tm);
  }
  double fallback_us =
      fallback_watch.ElapsedMillis() * 1000.0 / double(kSweeps);

  util::Stopwatch fast_watch;
  for (size_t s = 0; s < kSweeps; ++s) {
    serve::Await(*sweep_server,
                 serve::EstimateRequest::Sweep(query_for(s), db.dim(), ts));
  }
  double fast_us = fast_watch.ElapsedMillis() * 1000.0 / double(kSweeps);

  util::AsciiTable sweep_table({"mode", "us / sweep", "vs scalar x16"});
  auto add_sweep = [&](const char* name, double us) {
    sweep_table.AddRow({name, util::AsciiTable::Num(us, 1),
                        util::AsciiTable::Num(scalar_us / us, 2)});
  };
  add_sweep("scalar x16 (16 Predicts)", scalar_us);
  add_sweep("row expansion (1 16-row Predict)", fallback_us);
  add_sweep("fast path (1 control-point eval)", fast_us);
  sweep_table.Print("sweep_workload");

  double sweep_speedup = fast_us > 0 ? scalar_us / fast_us : 0.0;
  std::printf(
      "\nfast path vs 16 scalar estimates: %.2fx (acceptance: >= 3x) %s\n",
      sweep_speedup, sweep_speedup >= 3.0 ? "OK" : "BELOW TARGET");

  // -------------------------------------------------- pack-cache workload ---
  // Repeated batched Predict on a fixed model, three engine states:
  //   warm          — steady-state serving: version-keyed packs + fold reused;
  //   cold pack     — pack cache disabled, every GemmNN repacks B's panels
  //                   per call (the pre-cache engine); isolates the pack
  //                   cache's own share;
  //   cold caches   — every batch starts at the publish boundary: one
  //                   InvalidateInferenceCache (pack and fold generations are
  //                   unified) before each Predict. This is the cold-pack
  //                   BASELINE the acceptance ratio gates: what every batch
  //                   would pay if packs/folds were not keyed to a weight
  //                   version.
  // Batch = 16 rows (kGemmPackMinRows): the smallest batch at which the
  // cache-off path packs too, so warm and repack time the same micro-kernel
  // and differ only by the per-call pack pass.
  bench::PrintBanner("Pack cache: repeated batched Predict, cold vs warm");
  const size_t kPackBatch = 16;
  const size_t kPackIters = 600;
  tensor::Matrix px(kPackBatch, db.dim());
  tensor::Matrix pt(kPackBatch, 1);
  for (size_t r = 0; r < kPackBatch; ++r) {
    const float* q = wl.queries.row(r % wl.queries.rows());
    std::copy(q, q + db.dim(), px.row(r));
    pt(r, 0) = wl.tmax * float(r + 1) / float(kPackBatch + 1);
  }
  auto time_predicts = [&](bool invalidate_per_batch) {
    model->InvalidateInferenceCache();
    model->Predict(px, pt);  // Warm-up: folds (and packs, if enabled) build.
    util::Stopwatch watch;
    for (size_t i = 0; i < kPackIters; ++i) {
      if (invalidate_per_batch) model->InvalidateInferenceCache();
      model->Predict(px, pt);
    }
    return double(kPackIters * kPackBatch) / watch.ElapsedSeconds();
  };

  // Timed once each, in sequence, the three configs let host noise (CPU
  // steal on a shared box) land on one of them and fail the gate on an
  // unchanged engine. So each repeat times all three back to back, and the
  // rows/s and the gated ratios are medians over the repeats.
  const size_t kPackReps = 7;
  std::vector<double> warm_v, repack_v, cold_v, pack_only_v, pack_speedup_v;
  for (size_t rep = 0; rep < kPackReps; ++rep) {
    warm_v.push_back(time_predicts(false));
    tensor::SetPackCacheEnabled(false);
    repack_v.push_back(time_predicts(false));
    tensor::SetPackCacheEnabled(true);
    cold_v.push_back(time_predicts(true));
    pack_only_v.push_back(warm_v.back() / repack_v.back());
    pack_speedup_v.push_back(warm_v.back() / cold_v.back());
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  double warm_rows = median(warm_v);
  double repack_rows = median(repack_v);
  double cold_rows = median(cold_v);

  util::AsciiTable pack_table({"config", "kernel", "rows/s"});
  std::string default_kernel = tensor::ActiveKernel().name;
  pack_table.AddRow({"warm (version-keyed caches)", default_kernel,
                     util::AsciiTable::Num(warm_rows, 0)});
  pack_table.AddRow({"cold pack (repack per call)", default_kernel,
                     util::AsciiTable::Num(repack_rows, 0)});
  pack_table.AddRow({"cold caches (publish boundary per batch)",
                     default_kernel, util::AsciiTable::Num(cold_rows, 0)});
  // Per-kernel warm rows/s: how much each dispatched ISA variant buys on
  // this host. Reported, not gated — CI hardware varies.
  for (const auto& kern : tensor::AvailableKernels()) {
    if (default_kernel == kern.name) continue;
    tensor::SetActiveKernel(kern.name);
    pack_table.AddRow({"warm (version-keyed caches)", kern.name,
                       util::AsciiTable::Num(time_predicts(false), 0)});
  }
  tensor::SetActiveKernel(default_kernel);
  pack_table.Print("pack_cache");

  double pack_only = median(pack_only_v);
  double pack_speedup = median(pack_speedup_v);
  std::printf(
      "\nwarm vs repack-per-call (pack cache alone): %.2fx (median of %zu)\n",
      pack_only, kPackReps);
  std::printf(
      "warm-pack vs cold-pack batched Predict (B=%zu): %.2fx, median of %zu "
      "interleaved repeats (acceptance: >= 1.3x) %s\n",
      kPackBatch, pack_speedup, kPackReps,
      pack_speedup >= 1.3 ? "OK" : "BELOW TARGET");
  tensor::PackStatsSnapshot pack_stats = tensor::PackStats();
  std::printf("pack cache: %llu hits, %llu builds, %llu invalidations\n",
              (unsigned long long)pack_stats.hits,
              (unsigned long long)pack_stats.builds,
              (unsigned long long)pack_stats.invalidations);

  // --------------------------------------------- live-update pipeline ---
  // Same batched scalar stream, measured twice on one server: idle, then
  // while the update pipeline continuously patches labels, retrains the
  // shadow model and republishes. The pipeline thread runs at background
  // nice, so serve-path tail latency should survive even on few cores.
  // Pipelines attach at the router: the server is a one-shard registry's.
  bench::PrintBanner("Live updates: serve QPS/p99, idle vs during retrain");
  serve::ShardedConfig live_cfg;
  live_cfg.server.dim = db.dim();
  live_cfg.server.scheduler.max_batch = 128;
  live_cfg.num_shards = 1;
  serve::ShardedRegistry live_router(live_cfg);
  live_router.Publish(model);
  serve::SelNetServer* live_server = &live_router.shard(0);
  RunResult idle = DriveLoad(live_server, wl, kRequests, kClients, kPipeline);

  serve::UpdatePipelineConfig ucfg;
  ucfg.policy.mae_drift_fraction = 0.0;  // Every upward drift retrains.
  ucfg.policy.max_epochs = 4;
  ucfg.policy.patience = 2;
  serve::LiveUpdatePipeline& pipeline =
      live_router.AttachUpdatePipeline(ucfg, db, wl);

  // Pick validation-split queries: duplicating them inflates validation
  // labels, so every op drifts MAE upward and trips a retrain.
  std::vector<uint32_t> valid_qids;
  for (const auto& s : wl.valid) valid_qids.push_back(s.query_id);

  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    size_t round = 0;
    while (feeding.load()) {
      core::UpdateOp op;
      op.is_insert = true;
      const float* hot = wl.queries.row(valid_qids[round % valid_qids.size()]);
      for (int i = 0; i < 30; ++i) op.vectors.emplace_back(hot, hot + db.dim());
      pipeline.Submit(std::move(op));
      ++round;
      // Keep a small standing queue instead of unbounded backlog.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  // Let the first retrain actually start before measuring.
  while (pipeline.Snapshot().retrains_triggered == 0 &&
         pipeline.Snapshot().ops_applied < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  RunResult busy = DriveLoad(live_server, wl, kRequests, kClients, kPipeline);
  feeding.store(false);
  feeder.join();
  serve::UpdatePipelineState pstate = pipeline.Snapshot();
  pipeline.Stop();

  util::AsciiTable live_table({"config", "QPS", "p50 ms", "p99 ms"});
  auto add_live = [&](const char* name, const RunResult& r) {
    live_table.AddRow({name, util::AsciiTable::Num(r.qps, 0),
                       util::AsciiTable::Num(r.p50_ms, 3),
                       util::AsciiTable::Num(r.p99_ms, 3)});
  };
  add_live("idle (no pipeline work)", idle);
  add_live("during background retrain", busy);
  live_table.Print("live_updates");
  std::printf(
      "pipeline activity (cumulative): %llu ops applied, %llu retrains "
      "(%llu epochs), %llu republishes\n",
      (unsigned long long)pstate.ops_applied,
      (unsigned long long)pstate.retrains_triggered,
      (unsigned long long)pstate.epochs_run,
      (unsigned long long)pstate.publishes);

  double p99_ratio = idle.p99_ms > 0 ? busy.p99_ms / idle.p99_ms : 0.0;
  bool live_ok = p99_ratio <= 2.0 && pstate.retrains_triggered >= 1;
  std::printf(
      "retrain-concurrent p99 vs idle p99: %.2fx (acceptance: <= 2x, >= 1 "
      "retrain) %s\n",
      p99_ratio, live_ok ? "OK" : "BELOW TARGET");

  // ------------------------------------------------- sharded scale-out ---
  // The same trained model under 8 routes: a 1-shard registry (every route
  // behind one pool thread) vs an N-shard registry (one pool thread per
  // shard). Each client spreads its requests round-robin across routes, so
  // the N-shard fleet can run shards in parallel when cores exist.
  bench::PrintBanner("Sharded scale-out: 1 shard vs N shards, 8 routes");
  const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t kShards = std::min<size_t>(4, std::max<size_t>(2, cores));
  std::vector<std::string> routes;
  for (int r = 0; r < 8; ++r) routes.push_back("route" + std::to_string(r));

  auto run_sharded = [&](size_t num_shards) {
    serve::ShardedConfig scfg;
    scfg.server.dim = db.dim();
    scfg.server.scheduler.max_batch = 128;
    scfg.num_shards = num_shards;
    scfg.threads_per_shard = 1;
    serve::ShardedRegistry reg(scfg);
    for (const auto& route : routes) reg.Publish(route, model);
    // Warm-up pass, then the measured run.
    DriveShardLoad(&reg, wl, routes, kRequests / 10, kClients, kPipeline);
    return DriveShardLoad(&reg, wl, routes, kRequests, kClients, kPipeline);
  };

  double one_shard_qps = run_sharded(1);
  double n_shard_qps = run_sharded(kShards);

  util::AsciiTable shard_table({"config", "QPS"});
  shard_table.AddRow({"1 shard (8 routes)",
                      util::AsciiTable::Num(one_shard_qps, 0)});
  shard_table.AddRow({std::to_string(kShards) + " shards (8 routes)",
                      util::AsciiTable::Num(n_shard_qps, 0)});
  shard_table.Print("sharded_scaleout");

  double shard_speedup = one_shard_qps > 0 ? n_shard_qps / one_shard_qps : 0.0;
  // One core cannot run two shard pools in parallel, so the gate only
  // engages on multi-core hosts; single-core boxes still print the ratio.
  const bool shard_gate_active = cores >= 2;
  bool shard_ok = !shard_gate_active || shard_speedup >= 1.5;
  std::printf(
      "\n%zu-shard vs 1-shard aggregate QPS: %.2fx (acceptance: >= 1.5x on "
      ">= 2 cores; %zu core(s) -> gate %s) %s\n",
      kShards, shard_speedup, cores, shard_gate_active ? "active" : "skipped",
      shard_ok ? "OK" : "BELOW TARGET");

  // ---------------------------------------------------- network frontend ---
  // Three drivers against the SAME sharded backend:
  //   in-process     — DriveShardLoad straight into the router (the ceiling);
  //   JSON blocking  — one NetClient round trip at a time (the old 17x-off
  //                    cliff: per-float decimal codec + unamortized loopback
  //                    latency), reported for the trajectory, not gated;
  //   binary pipelined — ClientChannel after the hello upgrade, a window of
  //                    tagged frames in flight per connection, decoded in
  //                    read-round batches into SubmitMany.
  // The gate is wire_vs_inproc: pipelined binary within 2x of in-process.
  bench::PrintBanner("Network frontend: in-process vs JSON vs binary wire");
  double inproc_qps = 0.0;
  double wire_qps = 0.0;
  double wire_us = 0.0;
  uint64_t wire_requests = 0;
  double wire_binary_qps = 0.0;
  uint64_t wire_binary_errors = 0;
  double wire_vs_inproc = 0.0;
  bool wire_gate_active = false;
  bool wire_ok = true;
  {
    serve::ShardedConfig scfg;
    scfg.server.dim = db.dim();
    scfg.server.scheduler.max_batch = 128;
    scfg.num_shards = kShards;
    scfg.threads_per_shard = 1;
    serve::ShardedRegistry reg(scfg);
    for (const auto& route : routes) reg.Publish(route, model);
    serve::FrontendConfig fcfg;
    fcfg.num_loops = cores >= 4 ? 2 : 1;  // Spare cores -> split the loops.
    serve::NetFrontend frontend(fcfg, &reg);
    if (!frontend.status().ok()) {
      std::printf("frontend unavailable: %s\n",
                  frontend.status().ToString().c_str());
    } else {
      const size_t kWireClients = 4;
      const size_t kWirePerClient = 1500;
      const size_t kWireTotal = kWireClients * kWirePerClient;
      const size_t kWindow = 64;  // Pipelined frames in flight per client.

      // In-process ceiling: same total, same client count, pipelined the
      // same depth the channel uses.
      DriveShardLoad(&reg, wl, routes, kWireTotal / 4, kWireClients, kWindow);
      inproc_qps =
          DriveShardLoad(&reg, wl, routes, kWireTotal, kWireClients, kWindow);

      // JSON blocking round trips (the compat mode a debug client speaks).
      std::atomic<size_t> completed{0};
      util::Stopwatch wire_watch;
      std::vector<std::thread> wire_clients;
      for (size_t c = 0; c < kWireClients; ++c) {
        wire_clients.emplace_back([&, c] {
          serve::NetClient client;
          if (!client.Connect("127.0.0.1", frontend.port()).ok()) return;
          util::Rng rng(23 + c);
          for (size_t i = 0; i < kWirePerClient; ++i) {
            size_t qi =
                size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
            float t = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
            auto resp = client.Call(
                {serve::Command::kEstimate,
                 serve::EstimateRequest::Point(
                     wl.queries.row(qi), db.dim(), t,
                     routes[(c + i) % routes.size()])});
            if (resp.ok()) completed.fetch_add(1);
          }
        });
      }
      for (auto& th : wire_clients) th.join();
      double seconds = wire_watch.ElapsedSeconds();
      wire_requests = completed.load();
      wire_qps = seconds > 0 ? double(wire_requests) / seconds : 0.0;
      wire_us = wire_requests > 0
                    ? seconds * 1e6 / double(wire_requests) * kWireClients
                    : 0.0;

      // Pipelined binary frames over ClientChannel: each client keeps
      // kWindow tagged requests in flight on one negotiated connection,
      // shipping them in CallMany bursts (one contiguous write per burst —
      // the optimizer-scoring shape: many candidate predicates at once).
      const size_t kBurst = 16;
      auto drive_binary = [&](size_t total) {
        std::atomic<size_t> remaining{total};
        std::atomic<size_t> done{0};
        std::atomic<size_t> errors{0};
        util::Stopwatch watch;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < kWireClients; ++c) {
          threads.emplace_back([&, c] {
            serve::ClientChannelConfig ccfg;
            ccfg.address = "127.0.0.1";
            ccfg.port = frontend.port();
            ccfg.recv_timeout_ms = 60000;
            serve::ClientChannel channel(ccfg);
            if (!channel.Connect().ok()) {
              errors.fetch_add(1);
              return;
            }
            std::mutex mu;
            std::condition_variable cv;
            size_t inflight = 0;
            util::Rng rng(41 + c);
            size_t rr = c;
            for (;;) {
              size_t burst = 0;
              for (;;) {
                size_t prev = remaining.fetch_sub(1);
                if (prev == 0 || prev > total) {  // Underflow guard.
                  remaining.store(0);
                  break;
                }
                if (++burst == kBurst) break;
              }
              if (burst == 0) break;
              std::vector<serve::SelNetServer::Submission> batch;
              batch.reserve(burst);
              for (size_t b = 0; b < burst; ++b) {
                size_t qi =
                    size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
                float t = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
                serve::SelNetServer::Submission sub;
                sub.req = serve::EstimateRequest::Point(
                    wl.queries.row(qi), db.dim(), t,
                    routes[rr++ % routes.size()]);
                sub.done = [&](serve::EstimateResponse&&,
                               std::exception_ptr failed) {
                  if (failed) {
                    errors.fetch_add(1);
                  } else {
                    done.fetch_add(1);
                  }
                  {
                    std::lock_guard<std::mutex> lock(mu);
                    --inflight;
                  }
                  cv.notify_one();
                };
                batch.push_back(std::move(sub));
              }
              {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return inflight + burst <= kWindow; });
                inflight += burst;
              }
              channel.CallMany(std::move(batch));
            }
            {
              std::unique_lock<std::mutex> lock(mu);
              cv.wait(lock, [&] { return inflight == 0; });
            }
            channel.Close();
          });
        }
        for (auto& th : threads) th.join();
        struct {
          double qps;
          size_t errors;
        } r{watch.ElapsedSeconds() > 0
                ? double(done.load()) / watch.ElapsedSeconds()
                : 0.0,
            errors.load()};
        return r;
      };
      drive_binary(kWireTotal / 4);  // Warmup (connections, packs, caches).
      auto binary = drive_binary(kWireTotal);
      wire_binary_qps = binary.qps;
      wire_binary_errors = binary.errors;

      serve::FrontendStats fstats = frontend.Stats();
      util::AsciiTable wire_table({"config", "QPS"});
      wire_table.AddRow({"in-process batched (ceiling)",
                         util::AsciiTable::Num(inproc_qps, 0)});
      wire_table.AddRow({"wire JSON, blocking",
                         util::AsciiTable::Num(wire_qps, 0)});
      wire_table.AddRow({"wire binary, pipelined x" + std::to_string(kWindow),
                         util::AsciiTable::Num(wire_binary_qps, 0)});
      wire_table.Print("net_frontend");
      std::printf("blocking JSON: %llu round-trips, %.1f us each per client; "
                  "frontend: %llu responses, %llu request errors, %llu "
                  "binary-path errors\n",
                  (unsigned long long)wire_requests, wire_us,
                  (unsigned long long)fstats.responses,
                  (unsigned long long)fstats.request_errors,
                  (unsigned long long)wire_binary_errors);

      // The frontend's poll loop and the channel reader threads are built to
      // ride spare cores; on one core the ratio measures timeslicing against
      // the in-process drivers, not wire cost — same policy as the N-shard
      // and fleet gates. Errors stay gated everywhere.
      wire_gate_active = cores >= 2;
      wire_vs_inproc = inproc_qps > 0 ? wire_binary_qps / inproc_qps : 0.0;
      wire_ok = (!wire_gate_active || wire_vs_inproc >= 0.5) &&
                wire_binary_errors == 0;
      std::printf(
          "\npipelined binary wire vs in-process QPS: %.3fx (acceptance: >= "
          "0.5x on >= 2 cores, zero errors; %zu core(s) -> ratio gate %s) "
          "%s\n",
          wire_vs_inproc, cores, wire_gate_active ? "active" : "skipped",
          wire_ok ? "OK" : "BELOW TARGET");
    }
  }

  // ------------------------------------------------ tracing overhead gate ---
  // The same batched scalar stream, once with stage tracing off and once
  // sampling 1 request in 64 (the deployment default order of magnitude).
  // Sampling must be cheap enough to leave on in production: <= 3% QPS.
  // Both servers are built and warmed up front, then measurement reps
  // INTERLEAVE (off, on, off, on) with best-of-2 per config. Running one
  // config to completion before the other starts lets cache warmup and
  // clock-speed drift land entirely on the second config — an earlier
  // version of this gate recorded the traced server 1.2x FASTER than
  // untraced purely from that ordering bias.
  bench::PrintBanner("Tracing overhead: sampled 1-in-64 vs tracing off");
  auto make_traced_server = [&](size_t sample_every) {
    serve::ServerConfig scfg;
    scfg.dim = db.dim();
    scfg.enable_batching = true;
    scfg.scheduler.max_batch = 128;
    scfg.trace_sample_every = sample_every;
    auto server = std::make_unique<serve::SelNetServer>(scfg);
    server->Publish(model);
    return server;
  };
  auto untraced_server = make_traced_server(0);
  auto traced_server = make_traced_server(64);
  // One unmeasured warmup pass each, so first-touch costs bias neither side.
  DriveLoad(untraced_server.get(), wl, kRequests / 4, kClients, kPipeline);
  DriveLoad(traced_server.get(), wl, kRequests / 4, kClients, kPipeline);
  double untraced_qps = 0.0;
  double traced_qps = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    RunResult off =
        DriveLoad(untraced_server.get(), wl, kRequests, kClients, kPipeline);
    RunResult on =
        DriveLoad(traced_server.get(), wl, kRequests, kClients, kPipeline);
    untraced_qps = std::max(untraced_qps, off.qps);
    traced_qps = std::max(traced_qps, on.qps);
  }

  util::AsciiTable trace_table({"config", "QPS (best of 2)"});
  trace_table.AddRow({"tracing off", util::AsciiTable::Num(untraced_qps, 0)});
  trace_table.AddRow({"traced 1-in-64",
                      util::AsciiTable::Num(traced_qps, 0)});
  trace_table.Print("tracing_overhead");

  double trace_ratio = untraced_qps > 0 ? traced_qps / untraced_qps : 0.0;
  bool trace_ok = trace_ratio >= 0.97;
  std::printf(
      "\ntraced vs untraced QPS: %.3fx (acceptance: >= 0.97x, i.e. <= 3%% "
      "overhead) %s\n",
      trace_ratio, trace_ok ? "OK" : "BELOW TARGET");

  // ------------------------------------------- fleet telemetry overhead ---
  // What the PR-9 observability plane costs when ALL of it is on at once:
  // a 1-local + 1-remote fleet (replication 2) serving the same 8 routes,
  // once with telemetry off and once with 1-in-16 requests wire-traced, a
  // 25 ms remote-stats scrape tick, and a sidecar thread polling the merged
  // snapshot + text exposition like an external Prometheus scraper. Both
  // fleets are built and warmed up front; measurement reps interleave
  // (off, on, off, on) with best-of-2 per config, per the part-7 fix.
  bench::PrintBanner("Fleet telemetry: traced + scraped vs telemetry off");
  double fleet_plain_qps = 0.0;
  double fleet_telemetry_qps = 0.0;
  double fleet_telemetry_ratio = 0.0;
  bool fleet_gate_active = false;
  bool fleet_telemetry_ok = true;
  {
    auto fleet_bytes = core::SaveModelBytes(*model);
    auto make_node = [&] {
      serve::ShardNodeConfig ncfg;
      ncfg.server.dim = db.dim();
      ncfg.server.scheduler.max_batch = 128;
      ncfg.threads = 1;
      return std::make_unique<serve::ShardNode>(ncfg);
    };
    auto make_fleet = [&](uint16_t port, bool telemetry) {
      serve::ShardedConfig scfg;
      scfg.server.dim = db.dim();
      scfg.server.scheduler.max_batch = 128;
      scfg.num_shards = 1;
      scfg.threads_per_shard = 1;
      scfg.replication = 2;
      serve::RemoteShardConfig remote;
      remote.port = port;
      remote.recv_timeout_ms = 5000;
      scfg.remotes.push_back(remote);
      scfg.health_interval_ms = 20.0;
      scfg.scrape_interval_ms = telemetry ? 25.0 : 0.0;
      if (telemetry) scfg.node_id = "bench-coordinator";
      return std::make_unique<serve::ShardedRegistry>(scfg);
    };
    auto wait_healthy = [&](serve::ShardedRegistry* reg) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline &&
             reg->slot_health(1) != serve::ShardHealth::kHealthy) {
        reg->NudgeHealth();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return reg->slot_health(1) == serve::ShardHealth::kHealthy;
    };
    auto node_plain = make_node();
    auto node_telemetry = make_node();
    bool fleet_up = fleet_bytes.ok() && node_plain->status().ok() &&
                    node_telemetry->status().ok();
    const std::string model_bytes =
        fleet_bytes.ok() ? fleet_bytes.MoveValueUnsafe() : std::string();
    std::unique_ptr<serve::ShardedRegistry> plain_reg;
    std::unique_ptr<serve::ShardedRegistry> telemetry_reg;
    if (fleet_up) {
      plain_reg = make_fleet(node_plain->port(), /*telemetry=*/false);
      telemetry_reg = make_fleet(node_telemetry->port(), /*telemetry=*/true);
      fleet_up = wait_healthy(plain_reg.get()) &&
                 wait_healthy(telemetry_reg.get());
      for (const auto& route : routes) {
        fleet_up =
            fleet_up &&
            plain_reg->PublishFromBytes(route, model_bytes, "bench").ok() &&
            telemetry_reg->PublishFromBytes(route, model_bytes, "bench").ok();
      }
    }
    if (!fleet_up) {
      // Environment failure (port bind, serialization), not a perf result:
      // report and leave the gate inactive rather than failing the bench.
      std::printf("fleet telemetry bench unavailable on this host\n");
    } else {
      const size_t kFleetRequests = kRequests / 2;
      // Sidecar scraper: the merged fleet snapshot + full text exposition,
      // polled every 25 ms — but only while a telemetry run is measured, so
      // the plain runs don't share the bill.
      std::atomic<bool> sidecar_stop{false};
      std::atomic<bool> sidecar_active{false};
      std::thread sidecar([&] {
        while (!sidecar_stop.load()) {
          if (sidecar_active.load()) {
            (void)telemetry_reg->AggregateSnapshot();
            (void)telemetry_reg->MetricsText();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
      });
      DriveShardLoad(plain_reg.get(), wl, routes, kFleetRequests / 4,
                     kClients, kPipeline);
      sidecar_active.store(true);
      DriveShardLoad(telemetry_reg.get(), wl, routes, kFleetRequests / 4,
                     kClients, kPipeline, /*trace_every=*/16);
      sidecar_active.store(false);
      for (int rep = 0; rep < 2; ++rep) {
        double off = DriveShardLoad(plain_reg.get(), wl, routes,
                                    kFleetRequests, kClients, kPipeline);
        sidecar_active.store(true);
        double on = DriveShardLoad(telemetry_reg.get(), wl, routes,
                                   kFleetRequests, kClients, kPipeline,
                                   /*trace_every=*/16);
        sidecar_active.store(false);
        fleet_plain_qps = std::max(fleet_plain_qps, off);
        fleet_telemetry_qps = std::max(fleet_telemetry_qps, on);
      }
      sidecar_stop.store(true);
      sidecar.join();

      // The ratio only means something if the plane actually ran: the merged
      // view must carry the remote node's scraped identity.
      serve::StatsSnapshot agg = telemetry_reg->AggregateSnapshot();
      std::string remote_node = "(not scraped)";
      for (const auto& sl : agg.slots) {
        if (sl.kind == "remote" && !sl.node_id.empty()) remote_node = sl.node_id;
      }
      util::AsciiTable fleet_table({"config", "QPS (best of 2)"});
      fleet_table.AddRow({"telemetry off",
                          util::AsciiTable::Num(fleet_plain_qps, 0)});
      fleet_table.AddRow({"traced 1-in-16 + scraped",
                          util::AsciiTable::Num(fleet_telemetry_qps, 0)});
      fleet_table.Print("fleet_telemetry");
      std::printf("merged snapshot: %llu requests across %zu slots, remote "
                  "node \"%s\"\n",
                  (unsigned long long)agg.requests, agg.slots.size(),
                  remote_node.c_str());

      // The plane's threads (scrape tick, sidecar scraper, RemoteShard
      // readers) are designed to ride spare cores; on one core the ratio
      // measures timeslicing, not telemetry cost — same policy as the
      // N-shard gate.
      fleet_gate_active = cores >= 2;
      fleet_telemetry_ratio =
          fleet_plain_qps > 0 ? fleet_telemetry_qps / fleet_plain_qps : 0.0;
      fleet_telemetry_ok = !fleet_gate_active || fleet_telemetry_ratio >= 0.97;
      std::printf(
          "\ntraced+scraped vs telemetry-off QPS: %.3fx (acceptance: >= "
          "0.97x on >= 2 cores; %zu core(s) -> gate %s) %s\n",
          fleet_telemetry_ratio, cores,
          fleet_gate_active ? "active" : "skipped",
          fleet_telemetry_ok ? "OK" : "BELOW TARGET");
    }
  }

  bool all_ok = speedup >= 1.7 && sweep_speedup >= 3.0 &&
                pack_speedup >= 1.3 && live_ok && shard_ok && wire_ok &&
                trace_ok && fleet_telemetry_ok;

  // ------------------------------------------------ machine-readable out ---
  if (!json_path.empty()) {
    serve::JsonWriter gates;
    gates.RawField("batched_vs_unbatched",
                   serve::JsonWriter()
                       .Field("value", speedup)
                       .Field("threshold", 1.7)
                       .Field("op", ">=")
                       .Field("pass", speedup >= 1.7)
                       .Finish());
    gates.RawField("sweep_fastpath_vs_scalar",
                   serve::JsonWriter()
                       .Field("value", sweep_speedup)
                       .Field("threshold", 3.0)
                       .Field("op", ">=")
                       .Field("pass", sweep_speedup >= 3.0)
                       .Finish());
    gates.RawField("warm_vs_cold_pack",
                   serve::JsonWriter()
                       .Field("value", pack_speedup)
                       .Field("threshold", 1.3)
                       .Field("op", ">=")
                       .Field("pass", pack_speedup >= 1.3)
                       .Finish());
    gates.RawField("retrain_p99_vs_idle",
                   serve::JsonWriter()
                       .Field("value", p99_ratio)
                       .Field("threshold", 2.0)
                       .Field("op", "<=")
                       .Field("pass", live_ok)
                       .Finish());
    gates.RawField("nshard_vs_1shard_qps",
                   serve::JsonWriter()
                       .Field("value", shard_speedup)
                       .Field("threshold", 1.5)
                       .Field("op", ">=")
                       .Field("active", shard_gate_active)
                       .Field("pass", shard_ok)
                       .Finish());
    gates.RawField("wire_vs_inproc",
                   serve::JsonWriter()
                       .Field("value", wire_vs_inproc)
                       .Field("threshold", 0.5)
                       .Field("op", ">=")
                       .Field("active", wire_gate_active)
                       .Field("pass", wire_ok)
                       .Finish());
    gates.RawField("tracing_overhead",
                   serve::JsonWriter()
                       .Field("value", trace_ratio)
                       .Field("threshold", 0.97)
                       .Field("op", ">=")
                       .Field("pass", trace_ok)
                       .Finish());
    gates.RawField("fleet_telemetry_overhead",
                   serve::JsonWriter()
                       .Field("value", fleet_telemetry_ratio)
                       .Field("threshold", 0.97)
                       .Field("op", ">=")
                       .Field("active", fleet_gate_active)
                       .Field("pass", fleet_telemetry_ok)
                       .Finish());

    serve::JsonWriter metrics;
    metrics.Field("unbatched_qps", base.qps);
    metrics.Field("batched_qps", bat.qps);
    metrics.Field("sweep_scalar_us", scalar_us);
    metrics.Field("sweep_row_expansion_us", fallback_us);
    metrics.Field("sweep_fastpath_us", fast_us);
    metrics.Field("pack_warm_rows_s", warm_rows);
    metrics.Field("pack_repack_rows_s", repack_rows);
    metrics.Field("pack_cold_rows_s", cold_rows);
    metrics.Field("idle_qps", idle.qps);
    metrics.Field("idle_p99_ms", idle.p99_ms);
    metrics.Field("retrain_qps", busy.qps);
    metrics.Field("retrain_p99_ms", busy.p99_ms);
    metrics.Field("one_shard_qps", one_shard_qps);
    metrics.Field("n_shard_qps", n_shard_qps);
    metrics.Field("wire_inproc_qps", inproc_qps);
    metrics.Field("wire_json_qps", wire_qps);
    metrics.Field("wire_json_roundtrips", wire_requests);
    metrics.Field("wire_binary_qps", wire_binary_qps);
    metrics.Field("wire_binary_errors", wire_binary_errors);
    metrics.Field("untraced_qps", untraced_qps);
    metrics.Field("traced_qps", traced_qps);
    metrics.Field("fleet_plain_qps", fleet_plain_qps);
    metrics.Field("fleet_telemetry_qps", fleet_telemetry_qps);

    serve::JsonWriter doc;
    doc.Field("bench", "serve_throughput");
    doc.Field("cores", uint64_t(cores));
    doc.Field("shards", uint64_t(kShards));
    doc.Field("gemm_kernel", tensor::ActiveKernel().name);
    doc.RawField("gates", gates.Finish());
    doc.RawField("metrics", metrics.Finish());
    doc.Field("pass", all_ok);
    std::ofstream out(json_path);
    out << doc.Finish() << "\n";
    std::printf("\nwrote bench gate JSON to %s\n", json_path.c_str());
  }

  return all_ok ? 0 : 1;
}
