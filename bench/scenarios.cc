/// \file scenarios.cc
/// \brief Adversarial serving scenarios: the overload harness.
///
/// serve_throughput.cc measures the serving stack on cooperative CLOSED-LOOP
/// load — clients wait for answers, so offered load can never exceed
/// capacity and the overload machinery never engages. This harness drives
/// the opposite regime: OPEN-LOOP arrivals (requests land on a clock, not on
/// completions), deliberately pushed past measured capacity, plus the other
/// ways production traffic misbehaves. Each scenario is a declarative
/// ScenarioSpec row; each emits the same `--json` gate format the CI
/// bench-gate job already consumes (BENCH_scenarios.json is the committed
/// baseline).
///
/// Scenarios:
///   burst — Poisson arrivals with a square-wave burst at 2x measured
///           capacity against an admission-controlled server. Gates: typed
///           admission rejections with p99 <= 2 ms, accepted-request p99
///           <= 3x the steady-state p99, zero deadline-expired rows reach
///           Predict, and every failure is a TYPED rejection.
///   skew  — Zipf-skewed route traffic against the sharded consistent-hash
///           ring at 1.5x capacity: the hot shard sheds, every arrival
///           resolves exactly once, nothing is silently dropped. The
///           accepted-latency gate needs shard pools that can actually run
///           in parallel, so it deactivates (with a printed reason) on a
///           1-core box.
///   drift — a drift storm keeps the LiveUpdatePipeline permanently
///           retraining (drift threshold 0 + a feeder thread) while
///           open-loop overload runs: retrains must happen AND overload
///           failures must stay typed with no expired row predicted.
///   churn — frontend connect/disconnect churn: clients that connect, send,
///           and vanish mid-response, while one well-behaved wire client
///           must keep getting answers; the frontend must survive to answer
///           a clean round-trip at the end.
///   fault — fleet fault injection against R=2 replication over real
///           `shard_node` child processes (the harness re-execs itself with
///           a hidden flag to become one): SIGSTOP gray shard (alive TCP,
///           no answers — only the recv-timeout failover path catches it),
///           kill -9 of the primary replica mid-traffic, crash-then-rejoin
///           with a state re-sync that must serve bit-identical answers,
///           and a connection blackhole (bound listener that never answers).
///           Gates: ZERO failed client queries through every fault, and the
///           reborn process answers bit-identically to the pre-crash fleet.
///           Not in the default scenario list — it forks child processes
///           and owns its own CI job (BENCH_fault.json is its committed
///           baseline).
///   metrics — fleet telemetry smoke: boots a 1-local + 1-remote fleet (a
///           real `shard_node` child), drives traced traffic through both
///           replicas, forces a remote-stats scrape, then fetches
///           `{"cmd":"metrics"}` and `{"cmd":"events"}` over the wire from
///           the coordinator AND the node and lints the expositions
///           (`util::LintExposition` — empty or malformed output is a
///           failed gate). Not in the default list — it forks a child
///           process and owns its own CI job.
///
/// Flags: --json PATH (gate output), --smoke (short CI durations),
/// --scenario NAME (repeatable; default = burst+skew+drift+churn).

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#endif
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "serve/admission.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "serve/shard_node.h"
#include "serve/shard_router.h"
#include "serve/trace.h"
#include "serve/update_pipeline.h"
#include "serve/wire.h"
#include "tests/serve_await.h"
#include "util/backoff.h"
#include "util/metrics.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace selnet;

namespace {

using Clock = std::chrono::steady_clock;
using RequestSink = std::function<void(serve::EstimateRequest,
                                       serve::SelNetServer::ResponseFn)>;

// ------------------------------------------------------------------ gates ---

struct Gate {
  std::string name;
  double value = 0.0;
  double threshold = 0.0;
  std::string op;  // ">=" or "<="
  bool active = true;
  std::string skip_reason;

  bool Pass() const {
    if (!active) return true;
    return op == ">=" ? value >= threshold : value <= threshold;
  }
};

struct Report {
  std::vector<Gate> gates;
  std::vector<std::pair<std::string, double>> metrics;

  void AddGate(std::string name, double value, const char* op,
               double threshold, bool active = true,
               std::string skip_reason = "") {
    gates.push_back(Gate{std::move(name), value, threshold, op, active,
                         std::move(skip_reason)});
  }
  void AddMetric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

void PrintGates(const Report& report) {
  for (const auto& g : report.gates) {
    if (!g.active) {
      std::printf("  gate %-38s SKIPPED (%s)\n", g.name.c_str(),
                  g.skip_reason.c_str());
      continue;
    }
    std::printf("  gate %-38s %10.4f (%s %.4f) %s\n", g.name.c_str(), g.value,
                g.op.c_str(), g.threshold,
                g.Pass() ? "OK" : "BELOW TARGET");
  }
}

// ------------------------------------------------------------ percentiles ---

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = size_t(std::ceil(p * double(v.size())));
  if (idx > 0) --idx;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

// ------------------------------------------------------- open-loop driver ---

/// One open-loop run's outcome: every arrival resolves into exactly one
/// bucket (success, degraded success, typed shed by reason, untyped error)
/// or is counted unresolved if its completion never came back.
struct LoadResult {
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t untyped = 0;
  uint64_t typed[serve::kNumShedReasons] = {};
  std::vector<double> accepted_ms;
  std::vector<double> admission_shed_ms;  // queue_full + priority_shed only.
  double achieved_qps = 0.0;
  uint64_t unresolved = 0;

  uint64_t TypedTotal() const {
    uint64_t n = 0;
    for (uint64_t c : typed) n += c;
    return n;
  }
  uint64_t Resolved() const {
    return ok + degraded + untyped + TypedTotal();
  }
};

/// Drive arrivals for `seconds` at `rate_at(t)` requests/s on a 1 ms tick
/// (arrival count per tick is Poisson with mean rate * actual-tick-length,
/// so a driver that falls behind self-corrects instead of silently offering
/// less). Arrivals NEVER wait for completions — that is the point. The
/// driver runs on its own thread at nice +10: a load generator that crowds
/// the serving pool off the core would measure its own scheduling pressure,
/// not the server's overload behavior (this matters on 1-core CI boxes;
/// with spare cores the nice level is irrelevant).
LoadResult DriveOpenLoop(
    const RequestSink& submit, const data::Workload& wl, double seconds,
    const std::function<double(double)>& rate_at, double deadline_ms,
    const std::function<std::string(util::Rng&)>& route_of, uint64_t seed) {
  struct Shared {
    std::mutex mu;
    LoadResult r;
    std::atomic<uint64_t> outstanding{0};
  };
  auto shared = std::make_shared<Shared>();
  // Latency vectors grow mid-run at hundreds of kQPS; reallocation pauses
  // there would bleed into the very tail being measured.
  shared->r.accepted_ms.reserve(1 << 20);
  shared->r.admission_shed_ms.reserve(1 << 20);
  const int64_t max_qi = int64_t(wl.queries.rows()) - 1;
  const size_t dim = wl.queries.cols();

  uint64_t offered = 0;
  std::thread driver([&] {
#ifdef __linux__
    setpriority(PRIO_PROCESS, pid_t(syscall(SYS_gettid)), 10);
#endif
    util::Rng rng(seed);
    const auto start = Clock::now();
    auto prev = start;
    auto next_tick = start;
    for (;;) {
      const auto now = Clock::now();
      const double t = std::chrono::duration<double>(now - start).count();
      if (t >= seconds) break;
      const double dt =
          std::max(1e-4, std::chrono::duration<double>(now - prev).count());
      prev = now;
      std::poisson_distribution<int> arrivals(rate_at(t) * dt);
      int n = arrivals(rng.engine());
      for (int i = 0; i < n; ++i) {
        size_t qi = size_t(rng.UniformInt(0, max_qi));
        float thr = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
        serve::EstimateRequest req = serve::EstimateRequest::Point(
            wl.queries.row(qi), dim, thr, route_of ? route_of(rng) : "");
        if (deadline_ms > 0) {
          req.deadline =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     deadline_ms));
        }
        const auto t0 = Clock::now();
        ++offered;
        shared->outstanding.fetch_add(1, std::memory_order_relaxed);
        submit(std::move(req), [shared, t0](serve::EstimateResponse&& resp,
                                            std::exception_ptr error) {
          const double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - t0)
                                .count();
          {
            std::lock_guard<std::mutex> lock(shared->mu);
            LoadResult& r = shared->r;
            if (!error) {
              if (resp.degraded) {
                ++r.degraded;
              } else {
                ++r.ok;
              }
              r.accepted_ms.push_back(ms);
            } else {
              serve::ShedReason reason = serve::ShedReasonFrom(error);
              if (reason == serve::ShedReason::kNone) {
                ++r.untyped;
              } else {
                ++r.typed[size_t(reason)];
                if (reason == serve::ShedReason::kQueueFull ||
                    reason == serve::ShedReason::kPriorityShed) {
                  r.admission_shed_ms.push_back(ms);
                }
              }
            }
          }
          shared->outstanding.fetch_sub(1, std::memory_order_relaxed);
        });
      }
      next_tick += std::chrono::milliseconds(1);
      std::this_thread::sleep_until(next_tick);
    }
  });
  driver.join();
  // Grace drain: open loop means some completions are still in flight.
  const auto drain_deadline = Clock::now() + std::chrono::seconds(10);
  while (shared->outstanding.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard<std::mutex> lock(shared->mu);
  LoadResult result = std::move(shared->r);
  result.offered = offered;
  result.unresolved = offered - result.Resolved();
  result.achieved_qps = double(offered) / seconds;
  return result;
}

/// Closed-loop capacity probe: `clients` threads keep `pipeline` requests in
/// flight each; the sustained completion rate is what "capacity" means for
/// every over-capacity multiplier below.
double MeasureCapacityQps(const RequestSink& submit, const data::Workload& wl,
                          size_t total, size_t clients, size_t pipeline) {
  std::atomic<size_t> remaining{total};
  const int64_t max_qi = int64_t(wl.queries.rows()) - 1;
  const size_t dim = wl.queries.cols();
  util::Stopwatch watch;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(101 + c);
      std::vector<std::future<void>> in_flight;
      in_flight.reserve(pipeline);
      for (;;) {
        size_t batch = 0;
        while (batch < pipeline) {
          size_t left = remaining.fetch_sub(1);
          if (left == 0 || left > total) {  // Underflow guard.
            remaining.store(0);
            break;
          }
          size_t qi = size_t(rng.UniformInt(0, max_qi));
          float thr = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
          auto done = std::make_shared<std::promise<void>>();
          in_flight.push_back(done->get_future());
          submit(serve::EstimateRequest::Point(wl.queries.row(qi), dim, thr),
                 [done](serve::EstimateResponse&&, std::exception_ptr) {
                   done->set_value();
                 });
          ++batch;
        }
        for (auto& f : in_flight) f.get();
        in_flight.clear();
        if (batch < pipeline) return;
      }
    });
  }
  for (auto& th : threads) th.join();
  return double(total) / watch.ElapsedSeconds();
}

/// Inflight budget sized from measured capacity: admit about `budget_ms`
/// worth of work, so accepted queueing delay stays bounded near the latency
/// target instead of scaling with the burst. The default budget is 1 ms —
/// under overload the effective service rate is below the healthy measured
/// capacity (the arrival driver and completion accounting share the cores),
/// so a tighter ticket budget is what actually keeps accepted p99 within
/// the 3x-steady gate.
size_t InflightForCapacity(double capacity_qps, double budget_ms) {
  double tickets = capacity_qps * budget_ms / 1000.0;
  return size_t(std::min(512.0, std::max(8.0, tickets)));
}

serve::ServerConfig BaseServerConfig(size_t dim) {
  serve::ServerConfig scfg;
  scfg.dim = dim;
  scfg.enable_batching = true;
  scfg.enable_cache = false;
  scfg.scheduler.max_batch = 64;
  return scfg;
}

// -------------------------------------------------------------- scenarios ---

struct ScenarioContext {
  const data::Database* db;
  const data::Workload* wl;
  std::shared_ptr<core::SelNetCt> model;
  bool smoke = false;
  size_t cores = 1;

  double steady_seconds() const { return smoke ? 0.8 : 2.0; }
  double storm_seconds() const { return smoke ? 1.5 : 4.0; }
  size_t capacity_requests() const { return smoke ? 3000 : 8000; }
};

void CommonLoadMetrics(Report* rep, const std::string& prefix,
                       const LoadResult& r) {
  rep->AddMetric(prefix + "_offered", double(r.offered));
  rep->AddMetric(prefix + "_achieved_qps", r.achieved_qps);
  rep->AddMetric(prefix + "_ok", double(r.ok));
  rep->AddMetric(prefix + "_degraded", double(r.degraded));
  rep->AddMetric(prefix + "_typed_sheds", double(r.TypedTotal()));
  rep->AddMetric(prefix + "_untyped_errors", double(r.untyped));
  rep->AddMetric(prefix + "_unresolved", double(r.unresolved));
}

/// Every failed arrival must carry a machine-readable shed reason; 1.0 means
/// "all failures typed AND at least one overload rejection actually
/// happened" — an idle harness scores 0, loudly.
double TypedRejectionFraction(const LoadResult& r) {
  uint64_t failures = r.TypedTotal() + r.untyped + r.unresolved;
  if (failures == 0) return 0.0;
  return double(r.TypedTotal()) / double(failures);
}

Report RunBurst(const ScenarioContext& ctx) {
  bench::PrintBanner("scenario: burst (open-loop square wave at 2x capacity)");
  Report rep;
  const data::Workload& wl = *ctx.wl;

  // Capacity is measured on a twin server WITHOUT admission, so the probe
  // itself is never shed.
  serve::SelNetServer probe(BaseServerConfig(ctx.db->dim()));
  probe.Publish(ctx.model);
  RequestSink probe_submit = [&probe](serve::EstimateRequest req,
                                   serve::SelNetServer::ResponseFn done) {
    probe.SubmitWith(std::move(req), std::move(done));
  };
  double capacity =
      MeasureCapacityQps(probe_submit, wl, ctx.capacity_requests(), 2, 32);
  probe.Drain();

  serve::ServerConfig scfg = BaseServerConfig(ctx.db->dim());
  scfg.admission.enabled = true;
  scfg.admission.max_inflight = InflightForCapacity(capacity, 0.25);
  serve::SelNetServer server(scfg);
  server.Publish(ctx.model);
  RequestSink submit = [&server](serve::EstimateRequest req,
                              serve::SelNetServer::ResponseFn done) {
    server.SubmitWith(std::move(req), std::move(done));
  };

  // Interleaved best-of-3, each side kept at its own best — the same
  // discipline the tracing-overhead gate uses (min traced / min untraced).
  // Interleaving keeps slow drift (thermal, box load) from landing on only
  // one side; taking each side's minimum discards the 1-core scheduler
  // noise that occasionally triples a single p99 sample.
  double steady_p99 = 0.0;
  double burst_accepted_p99 = 0.0;
  LoadResult steady, burst;
  const double phase_s = 0.1;
  for (int rep = 0; rep < 3; ++rep) {
    LoadResult steady_i = DriveOpenLoop(
        submit, wl, ctx.steady_seconds(),
        [&](double) { return 0.55 * capacity; },
        /*deadline_ms=*/50.0, nullptr, /*seed=*/17 + uint64_t(rep));
    // Square-wave burst: 100 ms at 2x capacity, 100 ms at 0.3x. Burst
    // traffic declares a 2 ms deadline SLO — the deadline-aware scheduler
    // is what bounds accepted-request latency under overload (rows that
    // would blow the budget become typed deadline_exceeded rejections
    // instead of slow completions).
    LoadResult burst_i = DriveOpenLoop(
        submit, wl, ctx.storm_seconds(),
        [&](double t) {
          bool high = std::fmod(t, 2.0 * phase_s) < phase_s;
          return high ? 2.0 * capacity : 0.3 * capacity;
        },
        /*deadline_ms=*/2.0, nullptr, /*seed=*/31 + uint64_t(rep));
    double s99 = Percentile(steady_i.accepted_ms, 0.99);
    double b99 = Percentile(burst_i.accepted_ms, 0.99);
    if (rep == 0 || s99 < steady_p99) {
      steady_p99 = s99;
      steady = std::move(steady_i);
    }
    if (rep == 0 || b99 < burst_accepted_p99) {
      burst_accepted_p99 = b99;
      burst = std::move(burst_i);
    }
  }
  // Denominator floors at 1 ms: steady p99 on a quiet box sinks toward one
  // batched Predict, and a ratio against sub-millisecond scheduling noise
  // would measure the clock, not the admission mechanism.
  double p99_ratio = burst_accepted_p99 / std::max(steady_p99, 1.0);
  // A shorter wave of tight-deadline traffic on the same server: budgets
  // near the queueing delay, so rows genuinely expire while queued (those
  // rejections are typed deadline_exceeded, not admission sheds).
  LoadResult tight_wave = DriveOpenLoop(
      submit, wl, std::min(1.0, ctx.storm_seconds() / 3.0),
      [&](double) { return 1.5 * capacity; },
      /*deadline_ms=*/2.0, nullptr, /*seed=*/37);
  server.Drain();

  serve::StatsSnapshot snap = server.stats().Snapshot();
  std::vector<double> shed_ms = burst.admission_shed_ms;
  shed_ms.insert(shed_ms.end(), tight_wave.admission_shed_ms.begin(),
                 tight_wave.admission_shed_ms.end());
  double shed_p99 = Percentile(shed_ms, 0.99);

  std::printf(
      "  capacity %.0f qps | steady p99 %.3f ms | burst accepted p99 %.3f ms "
      "| admission sheds %llu (p99 %.3f ms) | deadline sheds %llu | rows "
      "dropped %llu, predicted-after-expiry %llu\n",
      capacity, steady_p99, burst_accepted_p99,
      (unsigned long long)shed_ms.size(), shed_p99,
      (unsigned long long)(burst.typed[size_t(
                               serve::ShedReason::kDeadlineExpired)] +
                           tight_wave.typed[size_t(
                               serve::ShedReason::kDeadlineExpired)]),
      (unsigned long long)snap.deadline_rows_dropped,
      (unsigned long long)snap.deadline_rows_predicted);

  rep.AddGate("burst_admission_shed_p99_ms", shed_p99, "<=", 2.0);
  rep.AddGate("burst_accepted_p99_vs_steady", p99_ratio, "<=", 3.0);
  rep.AddGate("burst_deadline_rows_predicted",
              double(snap.deadline_rows_predicted), "<=", 0.0);
  double typed_fraction = std::min(TypedRejectionFraction(burst),
                                   TypedRejectionFraction(tight_wave));
  rep.AddGate("burst_typed_rejection_fraction", typed_fraction, ">=", 1.0);

  rep.AddMetric("burst_capacity_qps", capacity);
  rep.AddMetric("burst_steady_p99_ms", steady_p99);
  rep.AddMetric("burst_accepted_p99_ms", burst_accepted_p99);
  rep.AddMetric("burst_admission_shed_p99_ms", shed_p99);
  rep.AddMetric("burst_deadline_rows_dropped",
                double(snap.deadline_rows_dropped));
  rep.AddMetric("burst_max_inflight", double(scfg.admission.max_inflight));
  CommonLoadMetrics(&rep, "burst", burst);
  CommonLoadMetrics(&rep, "burst_steady", steady);
  CommonLoadMetrics(&rep, "burst_tight", tight_wave);
  PrintGates(rep);
  return rep;
}

Report RunSkew(const ScenarioContext& ctx) {
  bench::PrintBanner("scenario: skew (Zipf routes on the sharded ring)");
  Report rep;
  const data::Workload& wl = *ctx.wl;
  const size_t kShards = 2;
  const size_t kRoutes = 8;
  std::vector<std::string> routes;
  for (size_t r = 0; r < kRoutes; ++r) {
    routes.push_back("route" + std::to_string(r));
  }

  auto make_ring = [&](bool admission, size_t max_inflight) {
    serve::ShardedConfig scfg;
    scfg.server = BaseServerConfig(ctx.db->dim());
    scfg.server.admission.enabled = admission;
    scfg.server.admission.max_inflight = max_inflight;
    scfg.num_shards = kShards;
    scfg.threads_per_shard = 1;
    auto reg = std::make_unique<serve::ShardedRegistry>(scfg);
    for (const auto& route : routes) reg->Publish(route, ctx.model);
    return reg;
  };

  // Zipf(1.2) over the routes: route r drawn with weight 1 / (r+1)^1.2.
  std::vector<double> cdf(kRoutes);
  double total = 0.0;
  for (size_t r = 0; r < kRoutes; ++r) {
    total += 1.0 / std::pow(double(r + 1), 1.2);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  auto zipf_route = [cdf, routes](util::Rng& rng) {
    double u = rng.Uniform();
    size_t idx = size_t(std::lower_bound(cdf.begin(), cdf.end(), u) -
                        cdf.begin());
    return routes[std::min(idx, routes.size() - 1)];
  };
  util::Rng probe_rng(5);
  auto uniform_route = [routes](util::Rng& rng) {
    return routes[size_t(rng.UniformInt(0, int64_t(routes.size()) - 1))];
  };

  auto probe = make_ring(false, 0);
  RequestSink probe_submit = [&](serve::EstimateRequest req,
                              serve::SelNetServer::ResponseFn done) {
    probe->SubmitWith(std::move(req), std::move(done));
  };
  // Capacity probe routes UNIFORMLY — it measures the ring's healthy
  // aggregate rate, not the skewed regime under test.
  double capacity = MeasureCapacityQps(
      [&](serve::EstimateRequest req, serve::SelNetServer::ResponseFn done) {
        req.model = uniform_route(probe_rng);
        probe->SubmitWith(std::move(req), std::move(done));
      },
      wl, ctx.capacity_requests(), 2, 32);
  probe->Drain();
  probe.reset();

  auto ring = make_ring(true, InflightForCapacity(capacity / kShards, 0.25));
  RequestSink submit = [&](serve::EstimateRequest req,
                        serve::SelNetServer::ResponseFn done) {
    ring->SubmitWith(std::move(req), std::move(done));
  };

  LoadResult steady = DriveOpenLoop(
      submit, wl, ctx.steady_seconds(), [&](double) { return 0.4 * capacity; },
      /*deadline_ms=*/50.0, zipf_route, /*seed=*/43);
  double steady_p99 = Percentile(steady.accepted_ms, 0.99);

  LoadResult skew = DriveOpenLoop(
      submit, wl, ctx.storm_seconds(), [&](double) { return 1.5 * capacity; },
      /*deadline_ms=*/50.0, zipf_route, /*seed=*/47);
  ring->Drain();
  double skew_p99 = Percentile(skew.accepted_ms, 0.99);
  double p99_ratio = steady_p99 > 0 ? skew_p99 / steady_p99 : 0.0;

  std::vector<serve::StatsSnapshot> per_shard = ring->ShardSnapshots();
  uint64_t min_shard_requests = UINT64_MAX;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    std::printf("  shard %zu: %llu requests, %llu sheds\n", s,
                (unsigned long long)per_shard[s].requests,
                (unsigned long long)per_shard[s].shed_total);
    min_shard_requests =
        std::min(min_shard_requests, per_shard[s].requests);
  }
  double resolved_fraction =
      skew.offered > 0 ? double(skew.Resolved()) / double(skew.offered) : 0.0;
  std::printf(
      "  ring capacity %.0f qps | steady p99 %.3f ms | skew accepted p99 "
      "%.3f ms | typed sheds %llu | resolved %.6f\n",
      capacity, steady_p99, skew_p99, (unsigned long long)skew.TypedTotal(),
      resolved_fraction);

  rep.AddGate("skew_all_arrivals_resolved", resolved_fraction, ">=", 1.0);
  rep.AddGate("skew_typed_rejection_fraction", TypedRejectionFraction(skew),
              ">=", 1.0);
  rep.AddGate("skew_both_shards_served", double(min_shard_requests), ">=",
              1.0);
  // Accepted tail under skew needs the shard pools actually parallel; on one
  // core two pools timeslice and the tail is scheduler noise, not a serving
  // property.
  const bool multi_core = ctx.cores >= 2;
  rep.AddGate("skew_accepted_p99_vs_steady", p99_ratio, "<=", 3.0, multi_core,
              "needs >= 2 cores to run shard pools in parallel; " +
                  std::to_string(ctx.cores) + " core(s) present");

  rep.AddMetric("skew_capacity_qps", capacity);
  rep.AddMetric("skew_steady_p99_ms", steady_p99);
  rep.AddMetric("skew_accepted_p99_ms", skew_p99);
  rep.AddMetric("skew_min_shard_requests", double(min_shard_requests));
  CommonLoadMetrics(&rep, "skew", skew);
  PrintGates(rep);
  return rep;
}

Report RunDrift(const ScenarioContext& ctx) {
  bench::PrintBanner("scenario: drift (permanent retrain storm + overload)");
  Report rep;
  const data::Workload& wl = *ctx.wl;
  const data::Database& db = *ctx.db;

  serve::SelNetServer probe(BaseServerConfig(db.dim()));
  probe.Publish(ctx.model);
  double capacity = MeasureCapacityQps(
      [&](serve::EstimateRequest req, serve::SelNetServer::ResponseFn done) {
        probe.SubmitWith(std::move(req), std::move(done));
      },
      wl, ctx.capacity_requests(), 2, 32);
  probe.Drain();

  serve::ServerConfig scfg = BaseServerConfig(db.dim());
  scfg.admission.enabled = true;
  scfg.admission.max_inflight = InflightForCapacity(capacity, 0.25);
  serve::SelNetServer server(scfg);
  server.Publish(ctx.model);
  RequestSink submit = [&server](serve::EstimateRequest req,
                              serve::SelNetServer::ResponseFn done) {
    server.SubmitWith(std::move(req), std::move(done));
  };

  // Drift storm: threshold 0 means every upward validation drift retrains;
  // the feeder duplicates validation-split queries so every op drifts.
  serve::UpdatePipelineConfig ucfg;
  ucfg.policy.mae_drift_fraction = 0.0;
  ucfg.policy.max_epochs = 2;
  ucfg.policy.patience = 1;
  serve::LiveUpdatePipeline& pipeline =
      server.AttachUpdatePipeline(ucfg, db, wl);
  std::vector<uint32_t> valid_qids;
  for (const auto& s : wl.valid) valid_qids.push_back(s.query_id);
  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    size_t round = 0;
    while (feeding.load()) {
      core::UpdateOp op;
      op.is_insert = true;
      const float* hot = wl.queries.row(valid_qids[round % valid_qids.size()]);
      for (int i = 0; i < 30; ++i) {
        op.vectors.emplace_back(hot, hot + db.dim());
      }
      pipeline.Submit(std::move(op));
      ++round;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  util::Backoff poll({/*base_ms=*/1.0, /*cap_ms=*/20.0}, /*seed=*/11);
  while (pipeline.Snapshot().retrains_triggered == 0 &&
         pipeline.Snapshot().ops_applied < 50) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll.NextDelayMs()));
  }

  LoadResult storm = DriveOpenLoop(
      submit, wl, ctx.storm_seconds(), [&](double) { return 1.2 * capacity; },
      /*deadline_ms=*/50.0, nullptr, /*seed=*/53);
  feeding.store(false);
  feeder.join();
  serve::UpdatePipelineState pstate = pipeline.Snapshot();
  server.DetachUpdatePipeline();
  server.Drain();
  serve::StatsSnapshot snap = server.stats().Snapshot();

  double storm_p99 = Percentile(storm.accepted_ms, 0.99);
  double resolved_fraction =
      storm.offered > 0 ? double(storm.Resolved()) / double(storm.offered)
                        : 0.0;
  std::printf(
      "  capacity %.0f qps | retrains %llu (%llu epochs, %llu republishes) | "
      "storm accepted p99 %.3f ms | typed sheds %llu | resolved %.6f\n",
      capacity, (unsigned long long)pstate.retrains_triggered,
      (unsigned long long)pstate.epochs_run,
      (unsigned long long)pstate.publishes, storm_p99,
      (unsigned long long)storm.TypedTotal(), resolved_fraction);

  rep.AddGate("drift_retrains_triggered", double(pstate.retrains_triggered),
              ">=", 1.0);
  rep.AddGate("drift_typed_rejection_fraction", TypedRejectionFraction(storm),
              ">=", 1.0);
  rep.AddGate("drift_deadline_rows_predicted",
              double(snap.deadline_rows_predicted), "<=", 0.0);
  rep.AddGate("drift_all_arrivals_resolved", resolved_fraction, ">=", 1.0);

  rep.AddMetric("drift_capacity_qps", capacity);
  rep.AddMetric("drift_accepted_p99_ms", storm_p99);
  rep.AddMetric("drift_retrains", double(pstate.retrains_triggered));
  rep.AddMetric("drift_republishes", double(pstate.publishes));
  CommonLoadMetrics(&rep, "drift", storm);
  PrintGates(rep);
  return rep;
}

Report RunChurn(const ScenarioContext& ctx) {
  bench::PrintBanner("scenario: churn (frontend connect/disconnect storm)");
  Report rep;
  const data::Workload& wl = *ctx.wl;

  serve::ServerConfig scfg = BaseServerConfig(ctx.db->dim());
  scfg.admission.enabled = true;
  scfg.admission.max_inflight = 64;
  serve::SelNetServer server(scfg);
  server.Publish(ctx.model);
  serve::NetFrontend frontend(serve::FrontendConfig{}, &server);
  if (!frontend.status().ok()) {
    std::printf("  frontend unavailable: %s\n",
                frontend.status().ToString().c_str());
    rep.AddGate("churn_frontend_alive", 0.0, ">=", 1.0);
    return rep;
  }
  const uint16_t port = frontend.port();
  const double seconds = ctx.storm_seconds();
  const size_t dim = ctx.db->dim();

  // Churners: connect, fire a few requests, read some replies or none at
  // all, vanish — often with responses still in flight.
  std::atomic<bool> running{true};
  std::atomic<uint64_t> churn_connects{0};
  std::vector<std::thread> churners;
  for (size_t c = 0; c < 2; ++c) {
    churners.emplace_back([&, c] {
      util::Rng rng(61 + c);
      while (running.load()) {
        serve::NetClient client;
        if (!client.Connect("127.0.0.1", port).ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        churn_connects.fetch_add(1);
        client.set_recv_timeout_ms(200);
        int sends = int(rng.UniformInt(1, 3));
        for (int i = 0; i < sends; ++i) {
          size_t qi =
              size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
          float thr = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
          serve::EstimateRequest req = serve::EstimateRequest::Point(
              wl.queries.row(qi), dim, thr);
          req.tag = uint64_t(i + 1);
          if (!client.SendRaw(serve::SerializeRequest(req) + "\n").ok()) break;
        }
        // Half the time read one reply; otherwise disconnect mid-response.
        if (rng.Bernoulli(0.5)) client.ReadLine().status();
        client.Close();
      }
    });
  }

  // The well-behaved client: blocking round-trips with a receive bound. A
  // typed overload rejection is a correct answer; an I/O error or timeout
  // is not.
  uint64_t stable_ok = 0, stable_typed = 0, stable_bad = 0;
  {
    serve::NetClient stable;
    bool connected = stable.Connect("127.0.0.1", port).ok();
    if (connected) stable.set_recv_timeout_ms(2000);
    util::Rng rng(71);
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    while (connected && Clock::now() < end) {
      size_t qi = size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
      float thr = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
      util::Result<serve::ClientReply> resp = stable.Call(
          {serve::Command::kEstimate,
           serve::EstimateRequest::Point(wl.queries.row(qi), dim, thr)});
      if (resp.ok()) {
        ++stable_ok;
      } else if (resp.status().code() == util::StatusCode::kUnavailable ||
                 resp.status().code() ==
                     util::StatusCode::kDeadlineExceeded) {
        ++stable_typed;
      } else {
        ++stable_bad;
      }
    }
    stable.Close();
  }
  running.store(false);
  for (auto& th : churners) th.join();

  // The frontend must still answer a clean round-trip after the storm.
  double alive = 0.0;
  {
    serve::NetClient post;
    if (post.Connect("127.0.0.1", port).ok()) {
      post.set_recv_timeout_ms(2000);
      util::Result<serve::ClientReply> resp = post.Call(
          {serve::Command::kEstimate,
           serve::EstimateRequest::Point(wl.queries.row(0), dim,
                                         0.5f * wl.tmax)});
      alive = resp.ok() ? 1.0 : 0.0;
    }
    post.Close();
  }
  frontend.Stop();
  server.Drain();

  uint64_t stable_total = stable_ok + stable_typed + stable_bad;
  double stable_fraction =
      stable_total > 0
          ? double(stable_ok + stable_typed) / double(stable_total)
          : 0.0;
  serve::FrontendStats fstats = frontend.Stats();
  std::printf(
      "  churn connects %llu | stable ok %llu, typed %llu, bad %llu | "
      "frontend accepted %llu, dropped %llu, parse errors %llu\n",
      (unsigned long long)churn_connects.load(),
      (unsigned long long)stable_ok, (unsigned long long)stable_typed,
      (unsigned long long)stable_bad,
      (unsigned long long)fstats.connections_accepted,
      (unsigned long long)fstats.connections_dropped,
      (unsigned long long)fstats.parse_errors);

  rep.AddGate("churn_connections", double(churn_connects.load()), ">=", 20.0);
  rep.AddGate("churn_stable_success_fraction", stable_fraction, ">=", 0.99);
  rep.AddGate("churn_frontend_alive", alive, ">=", 1.0);

  rep.AddMetric("churn_connects", double(churn_connects.load()));
  rep.AddMetric("churn_stable_ok", double(stable_ok));
  rep.AddMetric("churn_stable_typed", double(stable_typed));
  rep.AddMetric("churn_stable_bad", double(stable_bad));
  rep.AddMetric("churn_frontend_dropped",
                double(fstats.connections_dropped));
  PrintGates(rep);
  return rep;
}

// ------------------------------------------------------- fault injection ---

/// One `shard_node` child process: the harness re-execs its own binary with
/// the hidden --shard-node-child flag, so the shard under test is a REAL
/// separate process it can SIGKILL and SIGSTOP — in-process fault injection
/// cannot produce a half-dead TCP peer.
struct NodeProc {
  pid_t pid = -1;
  uint16_t port = 0;
  std::string port_file;

  bool ok() const { return pid > 0 && port != 0; }
};

std::string SelfExe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// Fork + exec a shard_node child; blocks until its port file appears (the
/// write-then-rename handshake means "bound and serving"). `port` 0 asks the
/// node for an ephemeral port, read back from the file; a nonzero port pins
/// the reborn process to the crashed one's address.
NodeProc SpawnNode(size_t dim, uint16_t port, int idx) {
  NodeProc node;
  node.port_file =
      "selnet_fault_" + std::to_string(::getpid()) + "_" +
      std::to_string(idx) + ".port";
  std::remove(node.port_file.c_str());
  std::string exe = SelfExe();
  if (exe.empty()) return node;
  std::string port_s = std::to_string(unsigned(port));
  std::string dim_s = std::to_string(dim);
  pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(exe.c_str(), exe.c_str(), "--shard-node-child",
            node.port_file.c_str(), port_s.c_str(), dim_s.c_str(),
            (char*)nullptr);
    _exit(127);
  }
  if (pid < 0) return node;
  node.pid = pid;
  util::Backoff poll({/*base_ms=*/1.0, /*cap_ms=*/50.0}, /*seed=*/7);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    std::ifstream in(node.port_file);
    unsigned p = 0;
    if (in && (in >> p) && p != 0) {
      node.port = uint16_t(p);
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll.NextDelayMs()));
  }
  return node;
}

/// Signal + reap. SIGKILL is the crash path (no goodbye on the wire);
/// SIGTERM is the clean shutdown at scenario end.
void ReapNode(NodeProc* node, int sig) {
  if (node->pid <= 0) return;
  ::kill(node->pid, sig);
  int status = 0;
  ::waitpid(node->pid, &status, 0);
  node->pid = -1;
  std::remove(node->port_file.c_str());
}

bool WaitForSlotHealth(serve::ShardedRegistry* reg, size_t slot,
                       serve::ShardHealth want, double timeout_s) {
  util::Backoff poll({/*base_ms=*/2.0, /*cap_ms=*/50.0}, /*seed=*/13);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (reg->slot_health(slot) == want) return true;
    reg->NudgeHealth();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll.NextDelayMs()));
  }
  return reg->slot_health(slot) == want;
}

/// First route name whose primary replica is `slot` (placement is a
/// deterministic hash, so scan until one lands there).
std::string RouteWithPrimary(const serve::ShardedRegistry& reg, size_t slot) {
  for (int i = 0; i < 10000; ++i) {
    std::string name = "fault-route-" + std::to_string(i);
    if (reg.ShardOf(name) == slot) return name;
  }
  return "fault-route-0";
}

struct FaultTraffic {
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<double> ms;
};

/// Closed-loop waves of `wave` concurrent submits against one route; fires
/// `trigger` between two submissions once `trigger_at` requests are out —
/// i.e. with a wave of requests genuinely in flight on the wire.
FaultTraffic DriveFaultTraffic(serve::ShardedRegistry* reg,
                               const data::Workload& wl,
                               const std::string& route, size_t total,
                               size_t wave, size_t trigger_at,
                               const std::function<void()>& trigger,
                               uint64_t seed) {
  FaultTraffic out;
  util::Rng rng(seed);
  const size_t dim = wl.queries.cols();
  const int64_t max_qi = int64_t(wl.queries.rows()) - 1;
  bool fired = false;
  size_t sent = 0;
  while (sent < total) {
    std::vector<std::pair<std::future<serve::EstimateResponse>,
                          Clock::time_point>>
        batch;
    for (size_t i = 0; i < wave && sent < total; ++i, ++sent) {
      if (!fired && trigger && sent >= trigger_at) {
        trigger();
        fired = true;
      }
      size_t qi = size_t(rng.UniformInt(0, max_qi));
      float thr = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
      batch.emplace_back(
          serve::SubmitAsync(*reg, serve::EstimateRequest::Point(
                                       wl.queries.row(qi), dim, thr, route)),
          Clock::now());
    }
    for (auto& [fut, t0] : batch) {
      try {
        fut.get();
        ++out.ok;
        out.ms.push_back(std::chrono::duration<double, std::milli>(
                             Clock::now() - t0)
                             .count());
      } catch (const std::exception&) {
        ++out.failed;
      }
    }
  }
  if (!fired && trigger) trigger();
  return out;
}

Report RunFault(const ScenarioContext& ctx) {
  bench::PrintBanner(
      "scenario: fault (kill -9 / SIGSTOP / blackhole / rejoin, R=2)");
  Report rep;
  const data::Workload& wl = *ctx.wl;
  const size_t dim = ctx.db->dim();

  NodeProc node_a = SpawnNode(dim, 0, 0);
  NodeProc node_b = SpawnNode(dim, 0, 1);
  if (!node_a.ok() || !node_b.ok()) {
    std::printf("  cannot spawn shard_node children (self exe '%s')\n",
                SelfExe().c_str());
    rep.AddGate("fault_fleet_admitted", 0.0, ">=", 1.0);
    ReapNode(&node_a, SIGKILL);
    ReapNode(&node_b, SIGKILL);
    return rep;
  }

  // Fleet: 1 in-process shard + 2 shard_node processes, every route on 2
  // replicas. Short recv timeout: the gray-shard phase pays it once per
  // in-flight request before failover, so it IS the detection latency.
  serve::ShardedConfig fcfg;
  fcfg.server = BaseServerConfig(dim);
  fcfg.num_shards = 1;
  fcfg.threads_per_shard = 1;
  fcfg.replication = 2;
  fcfg.health_interval_ms = 25.0;
  serve::RemoteShardConfig rcfg;
  rcfg.address = "127.0.0.1";
  rcfg.recv_timeout_ms = 300;
  rcfg.admin_timeout_ms = 1000;
  rcfg.port = node_a.port;
  fcfg.remotes.push_back(rcfg);
  rcfg.port = node_b.port;
  fcfg.remotes.push_back(rcfg);
  auto reg = std::make_unique<serve::ShardedRegistry>(fcfg);
  const size_t kSlotA = 1;  // Slot 0 is the local shard.
  const size_t kSlotB = 2;

  double admitted =
      (reg->slot_health(kSlotA) == serve::ShardHealth::kHealthy &&
       reg->slot_health(kSlotB) == serve::ShardHealth::kHealthy)
          ? 1.0
          : 0.0;
  rep.AddGate("fault_fleet_admitted", admitted, ">=", 1.0);
  if (admitted < 1.0) {
    std::printf("  fleet admission failed: A=%s B=%s\n",
                serve::ShardHealthName(reg->slot_health(kSlotA)),
                serve::ShardHealthName(reg->slot_health(kSlotB)));
    reg.reset();
    ReapNode(&node_a, SIGKILL);
    ReapNode(&node_b, SIGKILL);
    PrintGates(rep);
    return rep;
  }

  // Victim route: primary on node A, second replica wherever the ring puts
  // it — both stay serving, so every fault below has a live fallback.
  const std::string route = RouteWithPrimary(*reg, kSlotA);
  reg->Publish(route, ctx.model);

  // Reference answers from the healthy fleet (wire floats round-trip
  // shortest-form, so these are exact bits, not approximations).
  const size_t kProbes = 10;
  std::vector<serve::EstimateRequest> probes;
  std::vector<float> reference;
  for (size_t i = 0; i < kProbes; ++i) {
    size_t qi = i % size_t(wl.queries.rows());
    float thr = wl.tmax * float(i % 8 + 1) / 8.0f;
    probes.push_back(
        serve::EstimateRequest::Point(wl.queries.row(qi), dim, thr, route));
  }
  bool reference_ok = true;
  for (const auto& p : probes) {
    try {
      reference.push_back(serve::Await(*reg, p).estimates.at(0));
    } catch (const std::exception& e) {
      std::printf("  reference probe failed: %s\n", e.what());
      reference_ok = false;
      break;
    }
  }
  rep.AddGate("fault_reference_served", reference_ok ? 1.0 : 0.0, ">=", 1.0);

  const size_t kill_total = ctx.smoke ? 160 : 320;
  const size_t gray_total = ctx.smoke ? 48 : 96;
  const size_t base_total = ctx.smoke ? 80 : 160;

  // Healthy baseline for the failover-latency ratio gate.
  FaultTraffic baseline = DriveFaultTraffic(reg.get(), wl, route, base_total,
                                            8, 0, nullptr, /*seed=*/83);
  double base_p99 = Percentile(baseline.ms, 0.99);

  // --- Phase 1: SIGSTOP gray shard. The process is alive and its TCP stack
  // answers SYNs, so only the recv-timeout path can catch it: each in-flight
  // request waits out recv_timeout_ms, fails over, and the first failure
  // marks the slot suspect so later waves route around it.
  FaultTraffic gray = DriveFaultTraffic(
      reg.get(), wl, route, gray_total, 6, 6,
      [&] { ::kill(node_a.pid, SIGSTOP); }, /*seed=*/89);
  ::kill(node_a.pid, SIGCONT);
  bool gray_readmitted =
      WaitForSlotHealth(reg.get(), kSlotA, serve::ShardHealth::kHealthy, 15.0);
  std::printf(
      "  gray: %llu ok, %llu failed | slot A %s after SIGCONT\n",
      (unsigned long long)gray.ok, (unsigned long long)gray.failed,
      serve::ShardHealthName(reg->slot_health(kSlotA)));

  // --- Phase 2: kill -9 the primary mid-traffic. The acceptance criterion:
  // with R=2 not one client query may fail — the RST fails in-flight
  // requests over to the surviving replica.
  FaultTraffic kill9 = DriveFaultTraffic(
      reg.get(), wl, route, kill_total, 8, kill_total / 3,
      [&] { ReapNode(&node_a, SIGKILL); }, /*seed=*/97);
  double kill9_p99 = Percentile(kill9.ms, 0.99);
  std::printf("  kill9: %llu ok, %llu failed | p99 %.3f ms (baseline %.3f)\n",
              (unsigned long long)kill9.ok, (unsigned long long)kill9.failed,
              kill9_p99, base_p99);

  // --- Phase 3: crash-then-rejoin. The reborn process binds the SAME port
  // with an EMPTY registry; re-admission must re-publish from the retained
  // bytes before traffic resumes, then serve bit-identical answers.
  NodeProc reborn = SpawnNode(dim, node_a.port, 2);
  bool rejoined =
      reborn.ok() &&
      WaitForSlotHealth(reg.get(), kSlotA, serve::ShardHealth::kHealthy, 15.0);
  size_t identical = 0;
  if (rejoined) {
    serve::NetClient direct;
    if (direct.Connect("127.0.0.1", reborn.port).ok()) {
      direct.set_recv_timeout_ms(2000);
      for (size_t i = 0; i < probes.size() && i < reference.size(); ++i) {
        util::Result<serve::ClientReply> resp =
            direct.Call({serve::Command::kEstimate, probes[i]});
        if (resp.ok() && resp.ValueOrDie().estimate.estimates.size() == 1 &&
            resp.ValueOrDie().estimate.estimates[0] == reference[i]) {
          ++identical;
        }
      }
      direct.Close();
    }
  }
  double rejoin_identical =
      (reference_ok && identical == reference.size()) ? 1.0 : 0.0;
  std::printf("  rejoin: %s | %zu/%zu probes bit-identical\n",
              rejoined ? "healthy" : "NOT healthy", identical,
              reference.size());

  reg->Drain();
  reg.reset();
  ReapNode(&reborn, SIGTERM);
  ReapNode(&node_b, SIGTERM);

  // --- Phase 4: connection blackhole. A bound listener that never accepts:
  // connect() succeeds against the kernel backlog, then nothing ever
  // answers. The admission probe must classify the endpoint dead (it never
  // acks) and traffic must flow through the healthy replica untouched.
  util::TcpListener hole;
  util::Status hole_st = hole.Listen("127.0.0.1", 0);
  FaultTraffic dark;
  double hole_not_healthy = 0.0;
  double dark_p99 = 0.0;
  if (hole_st.ok()) {
    serve::ShardedConfig bcfg;
    bcfg.server = BaseServerConfig(dim);
    bcfg.num_shards = 1;
    bcfg.threads_per_shard = 1;
    bcfg.replication = 2;
    bcfg.health_interval_ms = 50.0;
    serve::RemoteShardConfig hcfg;
    hcfg.address = "127.0.0.1";
    hcfg.port = hole.port();
    hcfg.recv_timeout_ms = 200;
    hcfg.admin_timeout_ms = 250;
    bcfg.remotes.push_back(hcfg);
    serve::ShardedRegistry dark_reg(bcfg);
    std::string dark_route = RouteWithPrimary(dark_reg, 1);
    dark_reg.Publish(dark_route, ctx.model);
    dark = DriveFaultTraffic(&dark_reg, wl, dark_route,
                             ctx.smoke ? 40 : 80, 8, 0, nullptr, /*seed=*/101);
    dark_p99 = Percentile(dark.ms, 0.99);
    hole_not_healthy =
        dark_reg.slot_health(1) != serve::ShardHealth::kHealthy ? 1.0 : 0.0;
    dark_reg.Drain();
  } else {
    std::printf("  blackhole listener unavailable: %s\n",
                hole_st.ToString().c_str());
  }
  std::printf(
      "  blackhole: %llu ok, %llu failed | p99 %.3f ms | hole slot %s\n",
      (unsigned long long)dark.ok, (unsigned long long)dark.failed, dark_p99,
      hole_not_healthy > 0 ? "quarantined" : "NOT quarantined");

  rep.AddGate("fault_gray_failed_queries", double(gray.failed), "<=", 0.0);
  rep.AddGate("fault_gray_readmitted", gray_readmitted ? 1.0 : 0.0, ">=", 1.0);
  rep.AddGate("fault_kill9_failed_queries", double(kill9.failed), "<=", 0.0);
  rep.AddGate("fault_rejoin_healthy", rejoined ? 1.0 : 0.0, ">=", 1.0);
  rep.AddGate("fault_rejoin_bit_identical", rejoin_identical, ">=", 1.0);
  rep.AddGate("fault_blackhole_failed_queries", double(dark.failed), "<=",
              0.0);
  rep.AddGate("fault_blackhole_quarantined", hole_not_healthy, ">=", 1.0);
  // The failover tail vs the healthy baseline needs the local shard pool,
  // the RemoteShard readers and the child processes actually in parallel;
  // on one core the ratio measures timeslicing, not failover.
  const bool multi_core = ctx.cores >= 2;
  double p99_ratio = kill9_p99 / std::max(base_p99, 1.0);
  rep.AddGate("fault_kill9_p99_vs_baseline", p99_ratio, "<=", 5.0, multi_core,
              "needs >= 2 cores to run fleet and driver in parallel; " +
                  std::to_string(ctx.cores) + " core(s) present");

  rep.AddMetric("fault_baseline_p99_ms", base_p99);
  rep.AddMetric("fault_kill9_p99_ms", kill9_p99);
  rep.AddMetric("fault_kill9_ok", double(kill9.ok));
  rep.AddMetric("fault_gray_ok", double(gray.ok));
  rep.AddMetric("fault_blackhole_ok", double(dark.ok));
  rep.AddMetric("fault_blackhole_p99_ms", dark_p99);
  rep.AddMetric("fault_rejoin_probes_identical", double(identical));
  PrintGates(rep);
  return rep;
}

// --------------------------------------------------------- metrics smoke ---

/// Fleet telemetry smoke: a 1-local + 1-remote fleet (real `shard_node`
/// child) serves traced traffic, then BOTH telemetry planes are scraped
/// over the wire — `{"cmd":"metrics"}` text exposition and
/// `{"cmd":"events"}` — from the coordinator and from the node, and linted.
/// `util::LintExposition` rejects an EMPTY page as well as a malformed one,
/// so a silently-dead metrics plane fails the gate, not just a crashed
/// process.
Report RunMetrics(const ScenarioContext& ctx) {
  bench::PrintBanner(
      "scenario: metrics (fleet telemetry smoke over the wire)");
  Report rep;
  const data::Workload& wl = *ctx.wl;
  const size_t dim = ctx.db->dim();

  NodeProc node = SpawnNode(dim, 0, 9);
  if (!node.ok()) {
    std::printf("  cannot spawn shard_node child (self exe '%s')\n",
                SelfExe().c_str());
    rep.AddGate("metrics_fleet_admitted", 0.0, ">=", 1.0);
    ReapNode(&node, SIGKILL);
    PrintGates(rep);
    return rep;
  }

  serve::ShardedConfig fcfg;
  fcfg.server = BaseServerConfig(dim);
  fcfg.num_shards = 1;
  fcfg.threads_per_shard = 1;
  fcfg.replication = 2;
  fcfg.health_interval_ms = 25.0;
  fcfg.scrape_interval_ms = 25.0;
  fcfg.node_id = "scenario-coordinator";
  serve::RemoteShardConfig rcfg;
  rcfg.address = "127.0.0.1";
  rcfg.port = node.port;
  rcfg.recv_timeout_ms = 1000;
  rcfg.admin_timeout_ms = 2000;
  fcfg.remotes.push_back(rcfg);
  auto reg = std::make_unique<serve::ShardedRegistry>(fcfg);
  const bool admitted =
      WaitForSlotHealth(reg.get(), 1, serve::ShardHealth::kHealthy, 10.0);
  rep.AddGate("metrics_fleet_admitted", admitted ? 1.0 : 0.0, ">=", 1.0);
  if (!admitted) {
    reg.reset();
    ReapNode(&node, SIGKILL);
    PrintGates(rep);
    return rep;
  }

  // One route primary on the remote (cross-process trace propagation), one
  // on the local shard; 1-in-4 requests carry an explicit trace.
  const std::string remote_route = RouteWithPrimary(*reg, 1);
  const std::string local_route = RouteWithPrimary(*reg, 0);
  reg->Publish(remote_route, ctx.model);
  reg->Publish(local_route, ctx.model);
  util::Rng rng(77);
  uint64_t served = 0;
  uint64_t failed = 0;
  for (int i = 0; i < 64; ++i) {
    size_t qi = size_t(rng.UniformInt(0, int64_t(wl.queries.rows()) - 1));
    float thr = wl.tmax * float(rng.UniformInt(1, 16)) / 16.0f;
    serve::EstimateRequest req = serve::EstimateRequest::Point(
        wl.queries.row(qi), dim, thr, (i % 2) ? remote_route : local_route);
    if (i % 4 == 0) req.trace = std::make_shared<serve::RequestTrace>();
    try {
      serve::Await(*reg, std::move(req));
      ++served;
    } catch (const std::exception&) {
      ++failed;
    }
  }
  rep.AddGate("metrics_traffic_failed", double(failed), "<=", 0.0);
  reg->ScrapeNow();  // Deterministic merge: don't race the 25 ms tick.

  double lint_ok = 0.0;
  double node_lint_ok = 0.0;
  double series_ok = 0.0;
  double events_ok = 0.0;
  double merged_ok = 0.0;
  double expo_bytes = 0.0;
  serve::NetFrontend frontend(serve::FrontendConfig{}, reg.get());
  if (!frontend.status().ok()) {
    std::printf("  coordinator frontend unavailable: %s\n",
                frontend.status().ToString().c_str());
  } else {
    serve::NetClient client;
    if (client.Connect("127.0.0.1", frontend.port()).ok()) {
      auto text = client.Call({serve::Command::kMetrics, {}, {"metrics", 1}});
      if (text.ok()) {
        const std::string& expo = text.ValueOrDie().text;
        expo_bytes = double(expo.size());
        util::Status lint = util::LintExposition(expo);
        lint_ok = lint.ok() ? 1.0 : 0.0;
        if (!lint.ok()) {
          std::printf("  exposition lint: %s\n", lint.ToString().c_str());
        }
        const char* needles[] = {"selnet_requests_total", "selnet_slot_health",
                                 "selnet_scrape_total",
                                 "node=\"scenario-coordinator\""};
        series_ok = 1.0;
        for (const char* n : needles) {
          if (expo.find(n) == std::string::npos) {
            std::printf("  missing series: %s\n", n);
            series_ok = 0.0;
          }
        }
      } else {
        std::printf("  metrics fetch failed: %s\n",
                    text.status().ToString().c_str());
      }
      auto events = client.Call({serve::Command::kEvents, {}, {"events", 2}});
      events_ok = events.ok() && events.ValueOrDie().body.find(
                                     "\"kind\":\"health\"") != std::string::npos
                      ? 1.0
                      : 0.0;
    }
    // The node's own plane, scraped directly — a shard_node must expose a
    // valid page too, or fleet dashboards only ever see the coordinator.
    serve::NetClient node_client;
    if (node_client.Connect("127.0.0.1", node.port).ok()) {
      auto ntext =
          node_client.Call({serve::Command::kMetrics, {}, {"metrics", 3}});
      node_lint_ok =
          ntext.ok() && util::LintExposition(ntext.ValueOrDie().text).ok()
              ? 1.0
              : 0.0;
    }
  }
  serve::StatsSnapshot snap = reg->AggregateSnapshot();
  bool merged = snap.requests >= served && snap.slots.size() == 2 &&
                !snap.slots[1].node_id.empty();
  merged_ok = merged ? 1.0 : 0.0;
  if (!merged) {
    std::printf("  merge check: requests=%llu (served %llu) slots=%zu\n",
                (unsigned long long)snap.requests, (unsigned long long)served,
                snap.slots.size());
  }

  rep.AddGate("metrics_exposition_lint", lint_ok, ">=", 1.0);
  rep.AddGate("metrics_node_exposition_lint", node_lint_ok, ">=", 1.0);
  rep.AddGate("metrics_fleet_series_present", series_ok, ">=", 1.0);
  rep.AddGate("metrics_events_nonempty", events_ok, ">=", 1.0);
  rep.AddGate("metrics_scrape_merged", merged_ok, ">=", 1.0);
  rep.AddMetric("metrics_exposition_bytes", expo_bytes);
  rep.AddMetric("metrics_requests_served", double(served));

  reg->Drain();
  reg.reset();
  ReapNode(&node, SIGTERM);
  PrintGates(rep);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden re-exec hook: `scenarios --shard-node-child PORT_FILE PORT DIM`
  // becomes a real shard_node process — the fault scenario's children.
  if (argc >= 5 && std::strcmp(argv[1], "--shard-node-child") == 0) {
    serve::ShardNodeProcessOptions opts;
    opts.port_file = argv[2];
    opts.port = uint16_t(std::atoi(argv[3]));
    opts.dim = size_t(std::atoi(argv[4]));
    opts.threads = 1;
    return serve::RunShardNodeProcess(opts);
  }
  std::string json_path;
  bool smoke = false;
  std::vector<std::string> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      selected.push_back(argv[++i]);
    } else {
      std::printf("unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (selected.empty()) selected = {"burst", "skew", "drift", "churn"};

  bench::PrintBanner("Adversarial serving scenarios");

  data::SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.num_clusters = 8;
  data::Database db(data::GenerateMixture(spec), data::Metric::kEuclidean);
  data::WorkloadSpec wspec;
  wspec.num_queries = 120;
  wspec.w = 8;
  wspec.max_sel_fraction = 0.1;
  data::Workload wl = data::GenerateWorkload(db, wspec);

  core::SelNetConfig cfg;
  cfg.input_dim = db.dim();
  cfg.tmax = wl.tmax;
  cfg.num_control = 12;
  eval::TrainContext ctx_train;
  ctx_train.db = &db;
  ctx_train.workload = &wl;
  ctx_train.epochs = 3;  // Overload behavior does not depend on accuracy.
  auto model = std::make_shared<core::SelNetCt>(cfg);
  model->Fit(ctx_train);

  ScenarioContext ctx;
  ctx.db = &db;
  ctx.wl = &wl;
  ctx.model = model;
  ctx.smoke = smoke;
  ctx.cores = std::max<size_t>(1, std::thread::hardware_concurrency());

  Report all;
  for (const std::string& name : selected) {
    Report rep;
    if (name == "burst") {
      rep = RunBurst(ctx);
    } else if (name == "skew") {
      rep = RunSkew(ctx);
    } else if (name == "drift") {
      rep = RunDrift(ctx);
    } else if (name == "churn") {
      rep = RunChurn(ctx);
    } else if (name == "fault") {
      rep = RunFault(ctx);
    } else if (name == "metrics") {
      rep = RunMetrics(ctx);
    } else {
      std::printf(
          "unknown scenario: %s (have burst, skew, drift, churn, fault, "
          "metrics)\n",
          name.c_str());
      return 2;
    }
    all.gates.insert(all.gates.end(), rep.gates.begin(), rep.gates.end());
    all.metrics.insert(all.metrics.end(), rep.metrics.begin(),
                       rep.metrics.end());
  }

  bool all_ok = true;
  for (const auto& g : all.gates) all_ok = all_ok && g.Pass();
  std::printf("\nscenarios: %zu gates, %s\n", all.gates.size(),
              all_ok ? "ALL OK" : "BELOW TARGET");

  if (!json_path.empty()) {
    serve::JsonWriter gates;
    for (const auto& g : all.gates) {
      serve::JsonWriter one;
      one.Field("value", g.value);
      one.Field("threshold", g.threshold);
      one.Field("op", g.op);
      if (!g.active) one.Field("active", false);
      one.Field("pass", g.Pass());
      gates.RawField(g.name, one.Finish());
    }
    serve::JsonWriter metrics;
    for (const auto& m : all.metrics) metrics.Field(m.first, m.second);
    serve::JsonWriter doc;
    doc.Field("bench", "scenarios");
    doc.Field("cores", uint64_t(ctx.cores));
    doc.Field("smoke", smoke);
    doc.RawField("gates", gates.Finish());
    doc.RawField("metrics", metrics.Finish());
    doc.Field("pass", all_ok);
    std::ofstream out(json_path);
    out << doc.Finish() << "\n";
    std::printf("wrote scenario gate JSON to %s\n", json_path.c_str());
  }

  return all_ok ? 0 : 1;
}
