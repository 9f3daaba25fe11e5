#include "ladder.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "serve/batch_scheduler.h"
#include "targets.h"
#include "tensor/blas.h"
#include "tensor/pack_cache.h"
#include "util/rng.h"

namespace servebench {

using namespace selnet;

namespace {

constexpr double kStepS = 0.6;  ///< Timed length of each closed-loop step.

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Repeat `fn` until `min_s` seconds and `min_reps` repetitions have passed;
/// the median repetition in microseconds.
template <typename F>
double MedianUs(F&& fn, double min_s = 0.2, size_t min_reps = 20) {
  std::vector<double> reps;
  Clock::time_point begin = Clock::now();
  while (reps.size() < min_reps || UsSince(begin) < min_s * 1e6) {
    Clock::time_point start = Clock::now();
    fn(reps.size());
    reps.push_back(UsSince(start));
  }
  return Quantile(reps, 0.5);
}

struct GemmShape {
  size_t k, n;
};

/// The GEMMs of one SelNetCt inference pass, per layer: the encoder, the
/// knot-position head, the value head's hidden layers and its folded tail.
std::vector<GemmShape> InferenceShapes(const core::SelNetConfig& c) {
  size_t in = c.input_dim + c.latent_dim;
  return {{c.input_dim, c.ae_hidden}, {c.ae_hidden, c.latent_dim},
          {in, c.tau_hidden},         {c.tau_hidden, c.tau_hidden},
          {c.tau_hidden, c.num_control + 1},
          {in, c.p_hidden},           {c.p_hidden, c.p_hidden},
          {c.p_hidden, c.p_hidden},   {c.p_hidden, c.num_control + 2}};
}

void GemmStep(const Setup& setup, size_t rows, LadderResult* r) {
  util::Rng rng(5);
  std::vector<GemmShape> shapes = InferenceShapes(setup.model->config());
  std::vector<tensor::Matrix> a, b, c;
  std::vector<tensor::PackedWeights> packed(shapes.size());
  double flops = 0.0;
  double elems = 0.0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    a.push_back(tensor::Matrix::Uniform(rows, shapes[i].k, &rng));
    b.push_back(tensor::Matrix::Uniform(shapes[i].k, shapes[i].n, &rng));
    c.emplace_back(rows, shapes[i].n);
    tensor::PackB(b[i], &packed[i]);
    flops += 2.0 * double(rows * shapes[i].k * shapes[i].n);
    elems += double(rows * shapes[i].k + shapes[i].k * shapes[i].n +
                    rows * shapes[i].n);
  }
  // Same dispatch as ag::MatMul on constant weights: pre-packed panels from
  // kGemmPackMinRows rows up, the batch-size auto dispatch below that.
  r->gemm_us = MedianUs([&](size_t) {
    for (size_t i = 0; i < shapes.size(); ++i) {
      std::fill(c[i].data(), c[i].data() + c[i].size(), 0.0f);
      if (rows >= tensor::kGemmPackMinRows) {
        tensor::GemmNNPrepacked(a[i], packed[i], 1.0f, &c[i]);
      } else {
        tensor::GemmNNWithKernel(a[i], b[i], 1.0f, &c[i],
                                 tensor::GemmKernel::kAuto);
      }
    }
  });
  r->gemm_ns_per_row = r->gemm_us * 1e3 / double(rows);
  r->gemm_gflops = flops / (r->gemm_us * 1e3);
  r->gemm_bytes_per_row = elems * sizeof(float) / double(rows);
}

void ModelStep(const Setup& setup, const LadderSpec& spec, LadderResult* r) {
  core::SelNetCt& model = *setup.model;
  RequestGen gen(setup, spec.mix, spec.seed);
  const size_t kBatches = 16;
  std::vector<tensor::Matrix> xs, ts;
  std::vector<float> thresholds;
  size_t qi = 0, route = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    tensor::Matrix x(spec.batch_rows, kDim), t(spec.batch_rows, 1);
    for (size_t row = 0; row < spec.batch_rows; ++row) {
      gen.Next(&qi, &thresholds, &route);
      std::copy(setup.query(qi), setup.query(qi) + kDim, x.row(row));
      t(row, 0) = thresholds[0];
    }
    xs.push_back(std::move(x));
    ts.push_back(std::move(t));
  }
  double predict_us = MedianUs(
      [&](size_t i) { model.Predict(xs[i % kBatches], ts[i % kBatches]); });
  r->predict_us_per_row = predict_us / double(spec.batch_rows);

  RequestGen sweeps(setup, Mix::kSweep, spec.seed);
  std::vector<size_t> qis(256);
  std::vector<std::vector<float>> sweep_ts(qis.size());
  for (size_t i = 0; i < qis.size(); ++i) {
    sweeps.Next(&qis[i], &sweep_ts[i], &route);
  }
  r->sweep_us_per_call = MedianUs([&](size_t i) {
    i %= qis.size();
    model.SweepEstimate(setup.query(qis[i]), sweep_ts[i].data(), kSweepK);
  });
  std::vector<float> tau, p;
  r->curve_us_per_call = MedianUs([&](size_t i) {
    model.SweepCurve(setup.query(qis[i % qis.size()]), &tau, &p);
  });
  r->model_us = spec.mix == Mix::kSweep ? r->sweep_us_per_call : predict_us;
}

/// Warm a closed-loop entry point up, then time it; failures add to `r`.
PassResult Step(const Setup& setup, Checker* checker, const LadderSpec& spec,
                const SendFn& send, LadderResult* r, size_t lanes = 1,
                const std::vector<uint8_t>& route_slot = {}) {
  DriveSpec d;
  d.mix = spec.mix;
  d.seed = spec.seed;
  d.lanes = lanes;
  d.window = std::max<size_t>(1, spec.window / lanes);
  d.burst = lanes > 1 ? std::min<size_t>(8, d.window) : 1;
  d.route_slot = route_slot;
  d.max_requests = 4 * spec.window + 256;
  Drive(setup, checker, d, send);
  d.max_requests = 0;
  d.seconds = kStepS;
  PassResult pass = Drive(setup, checker, d, send);
  r->attempted += pass.attempted;
  r->failed += pass.failed;  // Checker rejections count in the checker.
  return pass;
}

double P50Us(const PassResult& pass, int slot = -1) {
  std::vector<double> v;
  for (const Sample& s : pass.samples) {
    if (s.ok && (slot < 0 || s.slot == slot)) v.push_back(s.latency_us);
  }
  return Quantile(v, 0.5);
}

// Steps 3 and 4 get two workers: the same worker count as step 5's two
// shards, so step 5 adds routing and not capacity.
constexpr size_t kWorkers = 2;

void SchedulerStep(const Setup& setup, Checker* checker,
                   const LadderSpec& spec, LadderResult* r) {
  util::ThreadPool pool(kWorkers);
  serve::SchedulerConfig cfg;
  cfg.dim = kDim;
  cfg.pool = &pool;
  serve::BatchScheduler scheduler(
      cfg, [&](const std::string&, const tensor::Matrix& x,
               const tensor::Matrix& t) { return setup.model->Predict(x, t); });

  // One request = its thresholds as rows; it answers when its last row does.
  struct Gather {
    std::mutex mu;
    serve::SelNetServer::ResponseFn done;
    std::vector<float> estimates;
    size_t left = 0;
    std::exception_ptr error;
  };
  std::mutex queue_mu;
  std::vector<double> queue_us;
  SendFn send = [&](size_t,
                    std::vector<serve::SelNetServer::Submission>* batch) {
    std::vector<serve::BatchScheduler::Row> rows;
    for (auto& sub : *batch) {
      auto gather = std::make_shared<Gather>();
      gather->done = std::move(sub.done);
      gather->left = sub.req.thresholds.size();
      gather->estimates.resize(gather->left);
      for (size_t k = 0; k < sub.req.thresholds.size(); ++k) {
        serve::BatchScheduler::Row row;
        row.model = sub.req.model;
        row.x = sub.req.x;
        row.t = sub.req.thresholds[k];
        row.done = [gather, k, &queue_mu, &queue_us](
                       float value, std::exception_ptr error,
                       const serve::BatchScheduler::RowTiming& timing) {
          {
            std::lock_guard<std::mutex> lock(queue_mu);
            queue_us.push_back(timing.queue_ms * 1e3);
          }
          std::unique_lock<std::mutex> lock(gather->mu);
          gather->estimates[k] = value;
          if (error) gather->error = error;
          if (--gather->left > 0) return;
          lock.unlock();
          serve::EstimateResponse resp;
          resp.estimates = std::move(gather->estimates);
          gather->done(std::move(resp), gather->error);
        };
        rows.push_back(std::move(row));
      }
    }
    batch->clear();
    scheduler.SubmitRows(std::move(rows));
  };
  PassResult pass = Step(setup, checker, spec, send, r);
  r->scheduler_us = P50Us(pass);
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    // The warm-up's rows come first; keep the timed pass's.
    size_t timed = std::min(queue_us.size(), size_t(pass.thresholds));
    std::vector<double> tail(queue_us.end() - timed, queue_us.end());
    r->queue_us_p50 = Quantile(tail, 0.50);
    r->queue_us_p99 = Quantile(tail, 0.99);
  }
  scheduler.Drain();
}

void ServerStep(const Setup& setup, Checker* checker, const LadderSpec& spec,
                LadderResult* r) {
  util::ThreadPool pool(kWorkers);
  serve::ServerConfig cfg;
  cfg.dim = kDim;
  cfg.scheduler.pool = &pool;
  cfg.enable_curve_cache = spec.curve_cache;
  serve::SelNetServer server(cfg);
  for (const std::string& route : setup.routes) {
    server.Publish(route, setup.model);
  }
  PassResult pass = Step(setup, checker, spec, InProcessSend(&server), r);
  r->server_us = P50Us(pass);
  server.Drain();
}

}  // namespace

double PostSwapP99Ms(const PassResult& pass, double window_s) {
  std::vector<double> v;
  const std::vector<double>& ends = pass.publish_end_s;
  for (const Sample& s : pass.samples) {
    if (!s.ok) continue;
    auto it = std::upper_bound(ends.begin(), ends.end(), double(s.send_s));
    if (it == ends.begin()) continue;
    if (double(s.send_s) - *(it - 1) <= window_s) {
      v.push_back(double(s.latency_us) * 1e-3);
    }
  }
  return Quantile(v, 0.99);
}

LadderResult RunLadder(const Setup& setup, Checker* checker,
                       const LadderSpec& spec) {
  LadderResult r;
  RunOnSetupWorker([&] {
    GemmStep(setup, spec.mix == Mix::kSweep ? 1 : spec.batch_rows, &r);
    ModelStep(setup, spec, &r);
    return 0;
  });
  SchedulerStep(setup, checker, spec, &r);
  ServerStep(setup, checker, spec, &r);

  TargetOptions opts;
  opts.curve_cache = spec.curve_cache;
  {
    auto router = BuildTarget(opts, setup);
    router->PublishAll(setup, setup.model);
    r.router_us = P50Us(Step(setup, checker, spec, router->send, &r));
  }
  {
    opts.wire = true;
    auto wire = BuildTarget(opts, setup);
    wire->PublishAll(setup, setup.model);
    PassResult pass = Step(setup, checker, spec, wire->send, &r, 2);
    r.wire_us = P50Us(pass);
    r.wire_syscalls_per_req =
        pass.completed ? double(pass.proc.syscalls_rw) / double(pass.completed)
                       : 0.0;
  }
  {
    opts.wire = false;
    opts.remote = true;
    auto fleet = BuildTarget(opts, setup);
    fleet->PublishAll(setup, nullptr);
    PassResult pass =
        Step(setup, checker, spec, fleet->send, &r, 1, fleet->route_slot);
    r.remote_us = P50Us(pass);
    r.remote_hop_us_p50 = P50Us(pass, 1) - P50Us(pass, 0);
    {
      DriveSpec d;
      d.mix = spec.mix;
      d.seed = spec.seed + 1;
      d.window = spec.window;
      d.route_slot = fleet->route_slot;
      d.seconds = 1.0;
      d.publish_every_s = 0.25;
      d.publish = [&] {
        fleet->reg->PublishFromBytes(setup.routes[0], setup.model_bytes,
                                     "servebench");
      };
      PassResult probe = Drive(setup, checker, d, fleet->send);
      r.attempted += probe.attempted;
      r.failed += probe.failed;
      r.publish_ms = Quantile(probe.publish_ms, 0.5);
      r.post_swap_p99_ms = PostSwapP99Ms(probe, 0.020);
    }
    r.failover_attempts =
        fleet->reg->metrics().CounterTotal("selnet_failover_attempts_total");
  }
  return r;
}

}  // namespace servebench
