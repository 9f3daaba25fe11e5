/// \file serve_demo.cpp
/// \brief End-to-end serving: train, save, publish, serve under concurrent
/// clients, hot-swap an updated model mid-traffic, A/B a baseline behind the
/// same endpoint, and read the stats.
///
///   ./examples/serve_demo                  # in-process walkthrough (below)
///   ./examples/serve_demo server [port]    # sharded fleet + TCP frontend
///   ./examples/serve_demo client <port> [host]   # wire client
///   ./examples/serve_demo shard_node <port> [dim]  # one remote fleet shard
///   ./examples/serve_demo metrics <port> [host]  # dump {"cmd":"metrics"}
///
/// The flow mirrors a production deployment: an offline training job writes a
/// SaveModel file; the server publishes it into its ModelRegistry; clients
/// submit EstimateRequests (scalar or whole threshold sweeps) to the batched
/// endpoint; a KDE baseline is published under a second route for served A/B
/// comparison; and a LiveUpdatePipeline ingests insert batches, patches the
/// shadow labels, retrains on drift and republishes — all while queries stay
/// in flight on their pinned snapshots.
///
/// `server` mode brings the scale-out stack up for real: a 2-shard
/// ShardedRegistry (SelNet on one route, KDE on another, placed by the
/// consistent-hash ring) behind a NetFrontend speaking line-delimited JSON.
/// Run `client` from a second terminal — it sends a scalar request and a
/// threshold sweep over the wire and prints both. Ctrl-C (or 60s idle)
/// drains the server gracefully.
///
/// `shard_node` mode runs ONE remote fleet shard: a full serving stack
/// behind a frontend, started empty — a ShardedRegistry configured with this
/// endpoint in `ShardedConfig::remotes` pushes model state to it over the
/// checksummed state-transfer protocol and routes estimates to it through
/// the replication/failover machinery (see src/serve/README.md, "Fleet").
/// SIGTERM/Ctrl-C drains it; kill -9 it to watch the fleet fail over.

#include <atomic>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "baselines/kde.h"
#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "core/updater.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "serve/shard_node.h"
#include "serve/shard_router.h"
#include "serve/update_pipeline.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace selnet;

namespace {

/// Train the demo corpus + models once (shared by every mode).
struct DemoWorld {
  std::unique_ptr<data::Database> db;
  data::Workload wl;
  std::shared_ptr<core::SelNetCt> selnet;
  std::shared_ptr<bl::KdeEstimator> kde;
};

DemoWorld BuildWorld() {
  DemoWorld world;
  data::SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 16;
  spec.num_clusters = 8;
  world.db = std::make_unique<data::Database>(data::GenerateMixture(spec),
                                              data::Metric::kEuclidean);
  data::WorkloadSpec wspec;
  wspec.num_queries = 120;
  wspec.w = 10;
  wspec.max_sel_fraction = 0.1;
  world.wl = data::GenerateWorkload(*world.db, wspec);

  core::SelNetConfig cfg;
  cfg.input_dim = world.db->dim();
  cfg.tmax = world.wl.tmax;
  cfg.num_control = 12;
  eval::TrainContext ctx;
  ctx.db = world.db.get();
  ctx.workload = &world.wl;
  ctx.epochs = 12;
  world.selnet = std::make_shared<core::SelNetCt>(cfg);
  world.selnet->Fit(ctx);

  bl::KdeConfig kcfg;
  kcfg.num_samples = 500;
  world.kde = std::make_shared<bl::KdeEstimator>(kcfg);
  world.kde->Fit(ctx);
  return world;
}

std::atomic<bool> g_interrupted{false};
void OnSigInt(int) { g_interrupted.store(true); }

/// Submit one request through the server's entry point, SubmitWith, and wait
/// for its answer — the walkthrough reads each result before moving on.
/// Throws the request's error (unknown route, overload shed...).
serve::EstimateResponse Ask(serve::SelNetServer& server,
                            serve::EstimateRequest req) {
  auto answer = std::make_shared<std::promise<serve::EstimateResponse>>();
  std::future<serve::EstimateResponse> result = answer->get_future();
  server.SubmitWith(std::move(req), [answer](serve::EstimateResponse&& resp,
                                             std::exception_ptr error) {
    if (error) {
      answer->set_exception(error);
    } else {
      answer->set_value(std::move(resp));
    }
  });
  return result.get();
}

/// `serve_demo server [port]`: 2-shard fleet + JSON-over-TCP frontend.
int RunServer(uint16_t port) {
  std::printf("training demo models...\n");
  DemoWorld world = BuildWorld();

  serve::ShardedConfig scfg;
  scfg.server.dim = world.db->dim();
  scfg.num_shards = 2;
  scfg.server.scheduler.max_batch = 64;
  // Stage-trace 1 request in 16: cheap enough to leave on (see
  // bench/serve_throughput part 7) and enough samples for live per-stage
  // percentiles in the digest below and in {"cmd":"stats"} replies.
  scfg.server.trace_sample_every = 16;
  serve::ShardedRegistry registry(scfg);
  registry.Publish("selnet", world.selnet);
  registry.Publish("kde", world.kde);

  serve::FrontendConfig fcfg;
  fcfg.port = port;
  serve::NetFrontend frontend(fcfg, &registry);
  if (!frontend.status().ok()) {
    std::printf("frontend failed: %s\n", frontend.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "serving on 127.0.0.1:%u — routes: selnet (shard %zu), kde (shard "
      "%zu); tmax=%.3f dim=%zu\n"
      "try:  ./serve_demo client %u   (also sends {\"cmd\":\"stats\"})\n"
      "serving for 60s (Ctrl-C drains early)...\n",
      unsigned(frontend.port()), registry.ShardOf("selnet"),
      registry.ShardOf("kde"), world.wl.tmax, world.db->dim(),
      unsigned(frontend.port()));
  std::signal(SIGINT, OnSigInt);
  for (int tick = 0; tick < 600 && !g_interrupted.load(); ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (tick % 50 == 49) {
      // Digest every ~5s from the merged fleet snapshot — the same numbers a
      // wire client gets from {"cmd":"stats"}, plus the control-plane
      // counters behind {"cmd":"metrics"}: per-replica health and the
      // failover / state-transfer totals.
      serve::StatsSnapshot s = frontend.FleetSnapshot();
      std::printf(
          "[stats] %llu req, %.0f qps, p50 %.3f ms, p99 %.3f ms, curve hit "
          "rate %.2f, traced %llu, slow %zu\n",
          (unsigned long long)s.requests, s.qps, s.latency_p50_ms,
          s.latency_p99_ms, serve::CurveHitRate(s),
          (unsigned long long)s.traced, s.slow_requests.size());
      std::string replicas;
      for (const serve::SlotSnapshot& sl : s.slots) {
        replicas += " " + sl.endpoint + "=" + sl.health;
      }
      util::MetricsRegistry& m = registry.metrics();
      std::printf(
          "[fleet]%s | failover %llu/%llu ok, transitions %llu, "
          "transfer tx %lluB, scrapes %llu\n",
          replicas.c_str(),
          (unsigned long long)m.CounterTotal("selnet_failover_successes_total"),
          (unsigned long long)m.CounterTotal("selnet_failover_attempts_total"),
          (unsigned long long)m.CounterTotal(
              "selnet_health_transitions_total"),
          (unsigned long long)m.CounterTotal("selnet_transfer_tx_bytes_total"),
          (unsigned long long)m.CounterTotal("selnet_scrape_total"));
    }
  }
  frontend.Stop();  // Graceful drain: accepted requests are answered.
  std::printf("\n%s\n", registry.StatsReport().c_str());
  return 0;
}

/// `serve_demo client <port> [host]`: one scalar + one sweep over the wire.
int RunClient(const std::string& host, uint16_t port) {
  serve::NetClient client;
  util::Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::printf("connect failed: %s\n", connected.ToString().c_str());
    return 1;
  }
  // The demo server's corpus is 16-dimensional with tmax ~= a few units; a
  // mid-range query vector exercises both routes.
  std::vector<float> x(16, 0.25f);
  for (const std::string& route : {std::string("selnet"), std::string("kde")}) {
    serve::EstimateRequest scalar =
        serve::EstimateRequest::Point(x.data(), x.size(), 1.0f, route);
    scalar.tag = 1;
    auto resp = client.Call({serve::Command::kEstimate, scalar});
    if (!resp.ok()) {
      std::printf("[%s] scalar failed: %s\n", route.c_str(),
                  resp.status().ToString().c_str());
      continue;
    }
    const serve::EstimateResponse& point = resp.ValueOrDie().estimate;
    std::printf("[%s] estimate(x, t=1.0) = %.2f (v%llu)\n", route.c_str(),
                point.estimates[0], (unsigned long long)point.version);

    std::vector<float> ts;
    for (int i = 1; i <= 8; ++i) ts.push_back(0.5f * float(i));
    serve::EstimateRequest sweep =
        serve::EstimateRequest::Sweep(x.data(), x.size(), ts, route);
    sweep.tag = 2;
    auto sresp = client.Call({serve::Command::kEstimate, sweep});
    if (!sresp.ok()) {
      std::printf("[%s] sweep failed: %s\n", route.c_str(),
                  sresp.status().ToString().c_str());
      continue;
    }
    const serve::EstimateResponse& curve = sresp.ValueOrDie().estimate;
    std::printf("[%s] sweep (fast_path=%d):", route.c_str(),
                int(curve.fast_path));
    for (float v : curve.estimates) std::printf(" %.1f", v);
    std::printf("\n");
  }
  // The admin plane rides the same connection: fleet stats as one JSON line.
  auto stats = client.Call({serve::Command::kStats});
  if (stats.ok()) {
    std::printf("\n{\"cmd\":\"stats\"} -> %s\n",
                stats.ValueOrDie().body.c_str());
  }
  return 0;
}

/// `serve_demo metrics <port> [host]`: fetch and print the Prometheus-style
/// exposition plus the event ring — what a scraper sidecar would pull.
int RunMetrics(const std::string& host, uint16_t port) {
  serve::NetClient client;
  util::Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::printf("connect failed: %s\n", connected.ToString().c_str());
    return 1;
  }
  client.set_recv_timeout_ms(5000);
  auto metrics = client.Call({serve::Command::kMetrics});
  if (!metrics.ok()) {
    std::printf("metrics failed: %s\n", metrics.status().ToString().c_str());
    return 1;
  }
  std::fputs(metrics.ValueOrDie().text.c_str(), stdout);
  auto events = client.Call({serve::Command::kEvents});
  if (events.ok()) {
    std::printf("\n# events\n%s\n", events.ValueOrDie().body.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "server") == 0) {
    return RunServer(argc >= 3 ? uint16_t(std::atoi(argv[2])) : 7979);
  }
  if (argc >= 2 && std::strcmp(argv[1], "shard_node") == 0) {
    if (argc < 3) {
      std::printf("usage: serve_demo shard_node <port> [dim]\n");
      return 2;
    }
    serve::ShardNodeProcessOptions opts;
    opts.port = uint16_t(std::atoi(argv[2]));
    opts.dim = argc >= 4 ? size_t(std::atoi(argv[3])) : 16;
    return serve::RunShardNodeProcess(opts);
  }
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    if (argc < 3) {
      std::printf("usage: serve_demo client <port> [host]\n");
      return 1;
    }
    return RunClient(argc >= 4 ? argv[3] : "127.0.0.1",
                     uint16_t(std::atoi(argv[2])));
  }
  if (argc >= 2 && std::strcmp(argv[1], "metrics") == 0) {
    if (argc < 3) {
      std::printf("usage: serve_demo metrics <port> [host]\n");
      return 1;
    }
    return RunMetrics(argc >= 4 ? argv[3] : "127.0.0.1",
                      uint16_t(std::atoi(argv[2])));
  }
  // 1. Offline: build data, train SelNet-ct, write a model file.
  data::SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 16;
  spec.num_clusters = 8;
  data::Database db(data::GenerateMixture(spec), data::Metric::kEuclidean);
  data::WorkloadSpec wspec;
  wspec.num_queries = 120;
  wspec.w = 10;
  wspec.max_sel_fraction = 0.1;
  data::Workload wl = data::GenerateWorkload(db, wspec);

  core::SelNetConfig cfg;
  cfg.input_dim = db.dim();
  cfg.tmax = wl.tmax;
  cfg.num_control = 12;
  eval::TrainContext ctx;
  ctx.db = &db;
  ctx.workload = &wl;
  ctx.epochs = 12;
  core::SelNetCt trained(cfg);
  trained.Fit(ctx);
  std::string model_path = "/tmp/selnet_serve_demo.selm";
  util::Status saved = core::SaveModel(trained, model_path);
  if (!saved.ok()) {
    std::printf("save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("offline: trained %s (%zu params), wrote %s\n",
              trained.Name().c_str(), trained.NumParams(), model_path.c_str());

  // 2. Online: bring up the server and publish the file. The server is a
  //    one-shard router's, because the router is where the live-update
  //    pipeline of step 4 attaches.
  serve::ShardedConfig rcfg;
  rcfg.server.dim = db.dim();
  rcfg.server.scheduler.max_batch = 64;
  rcfg.server.enable_curve_cache = true;
  rcfg.num_shards = 1;
  serve::ShardedRegistry router(rcfg);
  serve::SelNetServer& server = router.shard(0);
  auto version = server.PublishFromFile(model_path);
  if (!version.ok()) {
    std::printf("publish failed: %s\n", version.status().ToString().c_str());
    return 1;
  }
  std::printf("online: published model v%llu\n",
              (unsigned long long)version.ValueOrDie());

  // 3. A monotone threshold sweep as ONE request object: SelNet is
  //    SweepCapable, so the server answers all 8 thresholds from a single
  //    control-point evaluation (one network forward + 8 PWL lookups).
  //    Consistency guarantees the column is sorted.
  std::vector<float> ts;
  for (int i = 1; i <= 8; ++i) ts.push_back(wl.tmax * float(i) / 8.0f);
  serve::EstimateResponse sweep =
      Ask(server,
          serve::EstimateRequest::Sweep(wl.queries.row(0), db.dim(), ts));
  std::printf("\nthreshold sweep (query 0, fast_path=%d):\n%8s %12s\n",
              int(sweep.fast_path), "t", "estimate");
  for (size_t i = 0; i < ts.size(); ++i) {
    std::printf("%8.3f %12.1f\n", ts[i], sweep.estimates[i]);
  }
  // The same query at NEW thresholds: the curve cache holds query 0's
  // control points, so this sweep skips the network entirely.
  std::vector<float> shifted;
  for (float t : ts) shifted.push_back(0.95f * t);
  Ask(server,
      serve::EstimateRequest::Sweep(wl.queries.row(0), db.dim(), shifted));
  for (const serve::RouteSnapshot& r : server.stats().Snapshot().routes) {
    std::printf("route %s: curve hit rate %.2f (%llu hits, %llu misses)\n",
                r.route.c_str(), serve::CurveHitRate(r),
                (unsigned long long)r.curve_hits,
                (unsigned long long)r.curve_misses);
  }

  // 3b. Served A/B comparison: publish a KDE baseline under a second route
  //     and sweep both models through the same endpoint.
  bl::KdeConfig kcfg;
  kcfg.num_samples = 500;
  auto kde = std::make_shared<bl::KdeEstimator>(kcfg);
  kde->Fit(ctx);
  server.Publish("kde", kde);
  serve::EstimateResponse kde_sweep = Ask(
      server,
      serve::EstimateRequest::Sweep(wl.queries.row(0), db.dim(), ts, "kde"));
  std::printf("\nA/B sweep (query 0): %12s %12s\n", "SelNet", "KDE");
  for (size_t i = 0; i < ts.size(); ++i) {
    std::printf("t=%6.3f %12.1f %12.1f\n", ts[i], sweep.estimates[i],
                kde_sweep.estimates[i]);
  }

  // 4. Live updates: attach the pipeline, then hammer the endpoint from
  //    concurrent clients while insert batches stream in. The pipeline
  //    patches its shadow labels per op, retrains a clone when MAE drift
  //    trips, and hot-swaps the route — no query fails, nothing blocks.
  serve::UpdatePipelineConfig ucfg;
  ucfg.policy.mae_drift_fraction = 0.0;  // Always retrain in the demo.
  ucfg.policy.max_epochs = 4;
  // The demo clients saturate every core with a spin loop, which would
  // starve an idle-class background thread outright; the nice fallback
  // keeps the retrain visibly progressing while traffic flows. Production
  // serving has scheduling gaps, so the default SCHED_IDLE is the better
  // tail-latency choice there (see bench/serve_throughput part 4).
  ucfg.background_idle_sched = false;
  serve::LiveUpdatePipeline& pipeline =
      router.AttachUpdatePipeline(ucfg, db, wl);

  std::atomic<bool> stop{false};
  std::atomic<size_t> ok_count{0}, fail_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(50 + c);
      while (!stop.load()) {
        size_t qi = size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
        float t = wl.tmax * float(rng.Uniform());
        try {
          Ask(server,
              serve::EstimateRequest::Point(wl.queries.row(qi), db.dim(), t));
          ok_count.fetch_add(1);
        } catch (const std::exception&) {
          fail_count.fetch_add(1);
        }
      }
    });
  }

  util::Stopwatch watch;
  for (int round = 0; round < 2; ++round) {
    // A mutating database: fresh objects arrive in batches. Submitting them
    // costs one queue push; all heavy work happens on the pipeline thread.
    core::UpdateOp op;
    op.is_insert = true;
    tensor::Matrix fresh = data::DrawFromSameMixture(spec, 60, 900 + round);
    for (size_t i = 0; i < fresh.rows(); ++i) {
      op.vectors.emplace_back(fresh.row(i), fresh.row(i) + db.dim());
    }
    pipeline.Submit(std::move(op));
  }
  // Keep the clients hammering until at least one retrained version has been
  // hot-swapped in mid-traffic, then let the rest of the queue drain.
  while (pipeline.Snapshot().publishes == 0 && watch.ElapsedSeconds() < 60.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  pipeline.Flush();  // Demo only: wait so the printout below is final.

  serve::UpdatePipelineState pstate = pipeline.Snapshot();
  std::printf(
      "\nlive updates: %llu ops (+%llu records) applied in %.0f ms, "
      "%llu drift retrains (%llu epochs), republished %llu times "
      "(now serving v%llu, MAE %.2f)\n",
      (unsigned long long)pstate.ops_applied,
      (unsigned long long)pstate.records_inserted, watch.ElapsedMillis(),
      (unsigned long long)pstate.retrains_triggered,
      (unsigned long long)pstate.epochs_run,
      (unsigned long long)pstate.publishes,
      (unsigned long long)pstate.last_published_version, pstate.last_mae);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& th : clients) th.join();
  server.Drain();

  std::printf("\ntraffic during swaps: %zu served, %zu failed\n",
              ok_count.load(), fail_count.load());
  std::printf("\n%s\n", server.StatsReport().c_str());
  std::remove(model_path.c_str());
  return fail_count.load() == 0 ? 0 : 1;
}
