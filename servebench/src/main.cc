/// \file main.cc
/// \brief servebench: one serving benchmark over three long-run workloads.
///
///   servebench --workload point_inproc|sweep_wire|fleet_swap --seed N
///              --seconds S --trace 0|1 [--commit SHA] [--setup-reps K]
///              [--inject-fault] [--calibrate]
///
/// --trace 0 (binary `servebench`): set up K times (setup_s is the median),
/// drive the workload for S seconds, check every answer, and print the
/// end-to-end metrics. --trace 1 (binary `servebench_traced`, which counts
/// operator new): set up once, drive S/2 seconds untraced and S/2 seconds
/// traced (timing decorator published, allocation counting on), run the
/// layer ladder, and print the per-layer metrics. The last stdout line is
/// one JSON object: {"correct", "attempted", "failed", "metrics"}; the exit
/// code is non-zero when any answer failed or was wrong.
///
/// --inject-fault corrupts every timed answer on its way from the entry point
/// to the checker: the checker must reject the run. --calibrate drives
/// the workload's target closed-loop (window 64) instead, which is how the
/// frozen fleet_swap rate was chosen.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "drive.h"
#include "ladder.h"
#include "proc.h"
#include "setup.h"
#include "targets.h"
#include "tensor/kernel_dispatch.h"

using namespace servebench;
using namespace selnet;

namespace {

const Clock::time_point kProcessStart = Clock::now();

constexpr uint64_t kSampleEvery = 64;  ///< 1-in-N bit-identity sample.
constexpr size_t kWarmupRequests = 4000;

struct Args {
  Workload workload = Workload::kPointInproc;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  size_t setup_reps = 3;
  bool inject_fault = false;
  bool calibrate = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "point_inproc|sweep_wire|fleet_swap --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--setup-reps K] [--inject-fault] "
               "[--calibrate]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      if (!ParseWorkload(value(), &a.workload)) Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--setup-reps") {
      a.setup_reps = std::max(1, std::atoi(value().c_str()));
    } else if (flag == "--inject-fault") {
      a.inject_fault = true;
    } else if (flag == "--calibrate") {
      a.calibrate = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  if (a.trace == 1 && !alloc::Available()) {
    Usage("--trace 1 needs the servebench_traced binary");
  }
  return a;
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Per-layer metrics: the end-to-end metric @ workload it should move,
  /// and where it should stay flat.
  std::string note = "";
};

void PrintHeader(const Args& a) {
  std::printf("servebench  workload=%s  seed=%llu  seconds=%g  trace=%d\n",
              WorkloadName(a.workload), (unsigned long long)a.seed, a.seconds,
              a.trace);
  std::printf(
      "  nproc=%ld  gemm_kernel=%s  build=%s  commit=%s\n"
      "  dataset=%zux%zu gaussian mixture (face-like), %zu queries, w=%zu, "
      "SelNetCt %zu epochs, %zu routes\n"
      "  src/serve lines=%llu\n",
      sysconf(_SC_NPROCESSORS_ONLN), tensor::ActiveKernel().name,
      SERVEBENCH_BUILD_TYPE, a.commit.c_str(), kRows, kDim, kQueries,
      kThresholdsPerQuery, kEpochs, kRoutes,
      (unsigned long long)CountSourceLines("src/serve"));
  std::fflush(stdout);
}

/// The final line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Warm packs, folds and caches: a closed loop of kWarmupRequests on a
/// request stream of its own. Returns its checker violations + failures.
uint64_t WarmUp(const Setup& setup, Workload w, Target* target,
                uint64_t seed) {
  Checker checker(setup, kSampleEvery);
  DriveSpec spec = SpecFor(w, target, setup, seed + 1000003);
  spec.rate = 0.0;
  spec.publish = nullptr;
  spec.max_requests = kWarmupRequests;
  PassResult pass = Drive(setup, &checker, spec, target->send);
  return pass.failed + pass.check_failed + checker.totals().violations();
}

std::shared_ptr<eval::Estimator> ServedModel(const Args& a,
                                             const Setup& setup) {
  if (a.workload == Workload::kFleetSwap) return nullptr;  // published as bytes
  return setup.model;
}

/// The checker's self-test: wrap `inner` so every answer is corrupted before
/// the checker sees it. A sweep comes back in descending order and a single
/// estimate is off by one.
SendFn CorruptAnswers(SendFn inner) {
  return [inner = std::move(inner)](
             size_t lane, std::vector<serve::SelNetServer::Submission>* batch) {
    for (auto& sub : *batch) {
      sub.done = [done = std::move(sub.done)](serve::EstimateResponse&& resp,
                                              std::exception_ptr error) {
        std::vector<float>& e = resp.estimates;
        if (e.size() > 1) {
          std::sort(e.begin(), e.end(), std::greater<float>());
        } else if (!e.empty()) {
          e[0] += 1.0f;
        }
        done(std::move(resp), error);
      };
    }
    inner(lane, batch);
  };
}

struct Prepared {
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Target> target;
  std::vector<double> setup_s;
  uint64_t warmup_failures = 0;
};

/// Set up `reps` times from scratch (the first from process start); keep
/// the last.
Prepared Prepare(const Args& a, size_t reps) {
  Prepared p;
  for (size_t rep = 0; rep < reps; ++rep) {
    Clock::time_point start = rep == 0 ? kProcessStart : Clock::now();
    p.target.reset();
    p.setup.reset();
    p.setup = RunOnSetupWorker([] { return BuildSetup(); });
    p.target = BuildTarget(OptionsFor(a.workload), *p.setup);
    p.target->PublishAll(*p.setup, ServedModel(a, *p.setup));
    p.warmup_failures += WarmUp(*p.setup, a.workload, p.target.get(), a.seed);
    p.setup_s.push_back(SecondsSince(start));
    std::printf("  set-up %zu/%zu: %.3f s\n", rep + 1, reps, p.setup_s.back());
    std::fflush(stdout);
  }
  return p;
}

[[noreturn]] void Undrained(const PassResult& pass) {
  std::fprintf(stderr,
               "servebench: %llu of %llu requests never completed\n",
               (unsigned long long)(pass.attempted - pass.completed),
               (unsigned long long)pass.attempted);
  std::fflush(nullptr);
  std::_Exit(1);  // Completions may still arrive: skip destructors.
}

void PrintPass(const char* label, const PassResult& pass, const Summary& s) {
  std::printf(
      "  %s: %.2f s, attempted=%llu completed=%llu failed=%llu "
      "check_failed=%llu\n"
      "    qps=%.1f  p50=%.4f ms  p99=%.4f ms (best quartile of %zu quiet of "
      "%zu segments; whole pass p50=%.4f p99=%.4f ms, n=%zu)\n"
      "    cpu=%.3f s  ctx=%llu+%llu  rw_syscalls=%llu  steal=%.2f s\n",
      label, pass.seconds, (unsigned long long)pass.attempted,
      (unsigned long long)pass.completed, (unsigned long long)pass.failed,
      (unsigned long long)pass.check_failed, s.qps, s.p50_ms, s.p99_ms,
      s.quiet_segments, s.segments, s.all_p50_ms, s.all_p99_ms, s.samples, pass.proc.cpu_s,
      (unsigned long long)pass.proc.vol_ctx,
      (unsigned long long)pass.proc.invol_ctx,
      (unsigned long long)pass.proc.syscalls_rw, pass.proc.steal_s);
  std::printf("    segments (steal s / kqps / p99 ms):");
  for (size_t i = 0; i < s.seg_qps.size(); ++i) {
    std::printf(" %.2f/%.1f/%.2f", s.seg_steal_s[i], s.seg_qps[i] * 1e-3,
                s.seg_p99_ms[i]);
  }
  std::printf("\n");
  std::fflush(stdout);
}

void PrintChecker(const CheckTotals& c) {
  std::printf(
      "  checker: responses=%llu wrong_count=%llu bad_value=%llu "
      "nonmonotone=%llu bit_mismatches=%llu (of %llu sampled 1-in-%llu)\n",
      (unsigned long long)c.responses, (unsigned long long)c.wrong_count,
      (unsigned long long)c.bad_value, (unsigned long long)c.nonmonotone,
      (unsigned long long)c.mismatches, (unsigned long long)c.sampled,
      (unsigned long long)kSampleEvery);
}

int RunEndToEnd(const Args& a) {
  Prepared p = Prepare(a, a.setup_reps);
  const Setup& setup = *p.setup;
  Checker checker(setup, kSampleEvery);
  DriveSpec spec = SpecFor(a.workload, p.target.get(), setup, a.seed);
  spec.seconds = a.seconds;
  if (a.calibrate) {
    spec.rate = 0.0;
    spec.window = 64;
  }
  spec.sample_capacity = 1 << 21;
  SendFn send = p.target->send;
  if (a.inject_fault) send = CorruptAnswers(std::move(send));
  PassResult pass = Drive(setup, &checker, spec, send);
  if (!pass.drained) Undrained(pass);
  double rss_mb = PeakRssMb();
  RunOnSetupWorker([&] { return checker.VerifySamples(*setup.model); });
  CheckTotals c = checker.totals();
  Summary s = Summarize(pass, SloMs(a.workload));

  uint64_t failed = pass.failed + c.violations() + p.warmup_failures;
  double error_rate = double(failed) / double(std::max<uint64_t>(1, pass.attempted));
  PrintPass("timed pass", pass, s);
  PrintChecker(c);
  if (a.workload == Workload::kFleetSwap) {
    std::printf("  open loop at %.0f req/s: generator late p99=%.4f ms, "
                "%zu publishes (median %.3f ms)\n",
                spec.rate, Quantile(pass.late_ms, 0.99),
                pass.publish_ms.size(), Quantile(pass.publish_ms, 0.5));
  }
  std::printf("  error_rate=%.6g  (failed+refused+checker mismatches, "
              "incl. %llu in warm-up)\n",
              error_rate, (unsigned long long)p.warmup_failures);
  std::printf("  slo: %.0f ms limit, ok share %.6f\n", SloMs(a.workload),
              s.slo_ok_share);
  double completed = double(std::max<uint64_t>(1, pass.completed));
  // qps, p50 and p99 are printed above but not registered: a closed loop's
  // throughput and tail move by 2x when the host's other tenants are busy
  // (/proc/stat steal above one CPU). The traced run records them as the
  // ungated e2e.* metrics.
  std::vector<Metric> m = {
      {"cpu_us_per_req", pass.proc.cpu_s * 1e6 / completed, "us"},
      {"mape", c.mape(), "ratio"},
      {"rss_mb", rss_mb, "MB"},
      {"setup_s", Quantile(p.setup_s, 0.5), "s"},
      {"slo_ok_share", s.slo_ok_share, "ratio"},
  };
  bool correct = failed == 0;
  PrintResult(correct, pass.attempted, failed, m);
  return correct ? 0 : 1;
}

int RunTraced(const Args& a) {
  Prepared p = Prepare(a, 1);
  const Setup& setup = *p.setup;
  Target* target = p.target.get();
  Checker checker(setup, kSampleEvery);

  DriveSpec spec = SpecFor(a.workload, target, setup, a.seed);
  spec.seconds = a.seconds / 2;
  PassResult plain = Drive(setup, &checker, spec, target->send);
  if (!plain.drained) Undrained(plain);
  Summary u = Summarize(plain, SloMs(a.workload));
  PrintPass("untraced pass", plain, u);

  std::shared_ptr<TimedModel> timed;
  if (a.workload != Workload::kFleetSwap) {
    timed = std::make_shared<TimedModel>(setup.model);
    target->PublishAll(setup, timed);
    p.warmup_failures += WarmUp(setup, a.workload, target, a.seed + 7);
  }
  serve::StatsSnapshot before = target->reg->AggregateSnapshot();
  spec.seed = a.seed + 1;
  alloc::Enable(true);
  PassResult traced = Drive(setup, &checker, spec, target->send);
  alloc::Enable(false);
  if (!traced.drained) Undrained(traced);
  serve::StatsSnapshot after = target->reg->AggregateSnapshot();
  Summary t = Summarize(traced, SloMs(a.workload));
  PrintPass("traced pass", traced, t);
  uint64_t fleet_failovers =
      target->reg->metrics().CounterTotal("selnet_failover_attempts_total");
  p.target.reset();

  TimedModel::Totals tm = timed ? timed->totals() : TimedModel::Totals{};
  uint64_t batches = after.batches - before.batches;
  double rows_per_call =
      tm.predict_calls
          ? double(tm.predict_rows) / double(tm.predict_calls)
          : (batches ? double(after.batched_requests - before.batched_requests) /
                           double(batches)
                     : 1.0);

  LadderSpec ls;
  ls.mix = MixOf(a.workload);
  ls.seed = a.seed;
  ls.curve_cache = a.workload == Workload::kSweepWire;
  ls.batch_rows = std::max<size_t>(1, size_t(std::lround(rows_per_call)));
  switch (a.workload) {
    case Workload::kPointInproc: ls.window = 64; break;
    case Workload::kSweepWire: ls.window = 128; break;
    case Workload::kFleetSwap:
      // Little's law: the open loop's mean number in flight.
      ls.window = std::max<size_t>(
          1, size_t(std::lround(u.qps * u.mean_latency_ms * 1e-3)));
      break;
  }
  LadderResult l = RunLadder(setup, &checker, ls);
  RunOnSetupWorker([&] { return checker.VerifySamples(*setup.model); });
  CheckTotals c = checker.totals();
  PrintChecker(c);

  double completed = double(std::max<uint64_t>(1, traced.completed));
  uint64_t per_slot[2] = {0, 0};
  for (const Sample& s : traced.samples) ++per_slot[s.slot & 1];
  double mean_slot = double(per_slot[0] + per_slot[1]) / 2.0;
  double curve_lookups = double((after.curve_hits - before.curve_hits) +
                                (after.curve_misses - before.curve_misses));
  bool fleet = a.workload == Workload::kFleetSwap;
  double below_server =
      a.workload == Workload::kSweepWire ? l.model_us : l.scheduler_us;
  double top = a.workload == Workload::kPointInproc ? l.router_us
               : a.workload == Workload::kSweepWire ? l.wire_us
                                                    : l.remote_us;
  std::vector<Metric> m = {
      {"e2e.qps", u.qps, "req/s", "untraced half; host contention moves it"},
      {"e2e.p50_ms", u.p50_ms, "ms", "untraced half; host contention moves it"},
      {"e2e.p99_ms", u.p99_ms, "ms", "untraced half; host contention moves it"},
      {"tensor.gemm_ns_per_row", l.gemm_ns_per_row, "ns",
       "cpu_us_per_req, qps @ point_inproc | flat: sweep_wire"},
      {"tensor.gemm_gflops", l.gemm_gflops, "GFLOP/s",
       "cpu_us_per_req, qps @ point_inproc | flat: sweep_wire"},
      {"tensor.gemm_bytes_per_row", l.gemm_bytes_per_row, "B",
       "computed from the shapes"},
      {"core.predict_us_per_row",
       tm.predict_rows ? tm.predict_us / double(tm.predict_rows)
                       : l.predict_us_per_row,
       "us",
       "qps, cpu_us_per_req @ point_inproc | flat: sweep_wire"},
      {"core.predict_rows_per_call", rows_per_call, "rows",
       "qps, cpu_us_per_req @ point_inproc | flat: sweep_wire"},
      {"core.sweep_us_per_call",
       tm.sweep_calls ? tm.sweep_us / double(tm.sweep_calls)
                      : l.sweep_us_per_call,
       "us",
       "p50_ms, cpu_us_per_req @ sweep_wire | flat: point_inproc"},
      {"core.curve_us_per_call",
       tm.curve_calls ? tm.curve_us / double(tm.curve_calls)
                      : l.curve_us_per_call,
       "us",
       "p50_ms, cpu_us_per_req @ sweep_wire | flat: point_inproc"},
      {"scheduler.queue_us_p50", l.queue_us_p50, "us",
       "p50_ms, p99_ms @ point_inproc | flat: sweep_wire"},
      {"scheduler.queue_us_p99", l.queue_us_p99, "us",
       "p50_ms, p99_ms @ point_inproc | flat: sweep_wire"},
      {"cache.scalar_hit_share",
       traced.thresholds ? double(traced.cache_hit_thresholds) /
                               double(traced.thresholds)
                         : 0.0,
       "ratio",
       "p50_ms @ sweep_wire | flat: point_inproc (~0 hits)"},
      {"cache.curve_hit_rate",
       curve_lookups > 0 ? double(after.curve_hits - before.curve_hits) /
                               curve_lookups
                         : 0.0,
       "ratio",
       "p50_ms @ sweep_wire | flat: point_inproc (~0 hits)"},
      {"server.submit_us", l.server_us - below_server, "us",
       "cpu_us_per_req @ point_inproc; p50_ms @ sweep_wire"},
      {"server.fastpath_share", double(traced.fast_path) / completed, "ratio",
       "cpu_us_per_req @ point_inproc; p50_ms @ sweep_wire"},
      {"router.submit_us", l.router_us - l.server_us, "us",
       "cpu_us_per_req, p99_ms @ point_inproc"},
      {"router.shard_load_max_over_mean",
       mean_slot > 0 ? double(std::max(per_slot[0], per_slot[1])) / mean_slot
                     : 0.0,
       "ratio",
       "cpu_us_per_req, p99_ms @ point_inproc"},
      {"wire.call_us", l.wire_us, "us",
       "qps, p50_ms @ sweep_wire | flat: point_inproc"},
      {"wire.overhead_us_p50", l.wire_us - l.router_us, "us",
       "qps, p50_ms @ sweep_wire | flat: point_inproc"},
      {"wire.syscalls_per_req", l.wire_syscalls_per_req, "count",
       "qps, p50_ms @ sweep_wire | flat: point_inproc"},
      {"remote.hop_us_p50", l.remote_hop_us_p50, "us",
       "p50_ms, p99_ms, error_rate @ fleet_swap | flat: point_inproc, sweep_wire"},
      {"remote.failover_attempts",
       double(fleet ? fleet_failovers : l.failover_attempts), "count",
       "p50_ms, p99_ms, error_rate @ fleet_swap | flat: point_inproc, sweep_wire"},
      {"registry.publish_ms",
       fleet ? Quantile(traced.publish_ms, 0.5) : l.publish_ms, "ms",
       "p99_ms, slo_ok_share @ fleet_swap | flat: point_inproc, sweep_wire"},
      {"registry.post_swap_p99_ms",
       fleet ? PostSwapP99Ms(traced, 0.020) : l.post_swap_p99_ms, "ms",
       "p99_ms, slo_ok_share @ fleet_swap | flat: point_inproc, sweep_wire"},
      {"proc.allocs_per_req", double(traced.proc.allocs) / completed, "count",
       "cpu_us_per_req @ all"},
      {"proc.ctx_switches_per_req",
       double(traced.proc.vol_ctx + traced.proc.invol_ctx) / completed,
       "count",
       "cpu_us_per_req @ all"},
      {"gen.late_ms_p99", Quantile(traced.late_ms, 0.99), "ms",
       "run validity (0 for closed loops)"},
      {"proc.cpu_steal_s", plain.proc.steal_s + traced.proc.steal_s, "s",
       "run validity"},
      {"trace.overhead", u.qps > 0 ? t.qps / u.qps : 0.0, "ratio",
       "run validity: traced qps / untraced qps"},
      {"ladder.residual_us", u.all_p50_ms * 1e3 - top, "us",
       "run validity: e2e p50 - sum of layer deltas"},
      {"ladder.gemm_us", l.gemm_us, "us",
       "ladder step 1"},
      {"ladder.model_us", l.model_us, "us",
       "ladder step 2"},
      {"ladder.scheduler_us", l.scheduler_us, "us",
       "ladder step 3"},
      {"ladder.server_us", l.server_us, "us",
       "ladder step 4"},
      {"ladder.router_us", l.router_us, "us",
       "ladder step 5"},
      {"ladder.wire_us", l.wire_us, "us",
       "ladder step 6"},
      {"ladder.remote_us", l.remote_us, "us",
       "ladder step 7"},
  };
  std::printf("  %-34s %14s %-8s  %s\n", "per-layer metric", "value", "unit",
              "should move @ workload | flat on");
  for (const Metric& x : m) {
    std::printf("  %-34s %14.4f %-8s  %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.note.c_str());
  }
  std::printf("  ladder path: %s; ladder window %zu, batch rows %zu\n",
              a.workload == Workload::kPointInproc
                  ? "gemm > model > scheduler > server > router"
              : a.workload == Workload::kSweepWire
                  ? "gemm > model(sweep) > server > router > wire"
                  : "gemm > model > scheduler > server > router > remote",
              ls.window, ls.batch_rows);

  uint64_t failed = traced.failed + plain.failed + c.violations() +
                    p.warmup_failures + l.failed;
  uint64_t attempted = traced.attempted + plain.attempted + l.attempted;
  bool correct = failed == 0;
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = ParseArgs(argc, argv);
  PrintHeader(a);
  int code = a.trace ? RunTraced(a) : RunEndToEnd(a);
  // Every serving object is gone by now; skip static teardown of the
  // set-up pool so a late exit path cannot race it.
  std::fflush(nullptr);
  std::_Exit(code);
}
