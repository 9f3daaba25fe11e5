/// \file micro_ops.cc
/// \brief google-benchmark microbenchmarks for the hot kernels: GEMM (per
/// dispatched micro-kernel, with GFLOP/s), pack-cache hit/build cost,
/// autograd round trips, PWL gather, cover-tree operations, single-query
/// SelNet prediction latency and the serving cache's per-request key cost.
///
/// Doubles as the CI kernel-dispatch smoke: with SELNET_REQUIRE_SIMD=1 the
/// process exits non-zero unless runtime dispatch resolved a non-scalar
/// micro-kernel (CI's default leg runs this after ctest).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "autograd/ops.h"
#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "eval/suite.h"
#include "index/cover_tree.h"
#include "serve/estimate_cache.h"
#include "tensor/blas.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/pack_cache.h"

namespace {

using namespace selnet;
using tensor::Matrix;

void BM_Gemm(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  Matrix a = Matrix::Gaussian(n, n, &rng);
  Matrix b = Matrix::Gaussian(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    tensor::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_AutogradMlpRoundTrip(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  util::Rng rng(2);
  nn::Mlp mlp({32, 128, 128, 1}, &rng);
  Matrix x = Matrix::Gaussian(batch, 32, &rng);
  Matrix y = Matrix::Gaussian(batch, 1, &rng);
  for (auto _ : state) {
    ag::ZeroGrad(mlp.Params());
    ag::Var loss = ag::MseLoss(mlp.Forward(ag::Constant(x)), ag::Constant(y));
    ag::Backward(loss);
    benchmark::DoNotOptimize(loss->value(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_AutogradMlpRoundTrip)->Arg(64)->Arg(256);

void BM_PwlGather(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  size_t knots = 52;
  util::Rng rng(3);
  Matrix tau(batch, knots), p(batch, knots), t(batch, 1);
  for (size_t r = 0; r < batch; ++r) {
    float acc_t = 0.0f, acc_p = 0.0f;
    for (size_t k = 0; k < knots; ++k) {
      acc_t += static_cast<float>(rng.Uniform(0.001, 0.05));
      acc_p += static_cast<float>(rng.Uniform(0.0, 10.0));
      tau(r, k) = acc_t;
      p(r, k) = acc_p;
    }
    t(r, 0) = static_cast<float>(rng.Uniform(0.0, acc_t));
  }
  for (auto _ : state) {
    ag::Var out = ag::PiecewiseLinearGather(ag::Constant(tau), ag::Constant(p),
                                            ag::Constant(t));
    benchmark::DoNotOptimize(out->value.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PwlGather)->Arg(256)->Arg(1024);

void BM_CoverTreeBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  data::SyntheticSpec spec;
  spec.n = n;
  spec.dim = 16;
  Matrix pts = data::GenerateMixture(spec);
  for (auto _ : state) {
    idx::CoverTree tree = idx::CoverTree::Build(pts, data::Metric::kEuclidean);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoverTreeBuild)->Arg(1000)->Arg(4000);

void BM_CoverTreeRangeCount(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.n = 4000;
  spec.dim = 16;
  Matrix pts = data::GenerateMixture(spec);
  idx::CoverTree tree = idx::CoverTree::Build(pts, data::Metric::kEuclidean);
  util::Rng rng(4);
  size_t q = 0;
  for (auto _ : state) {
    q = (q + 1) % pts.rows();
    benchmark::DoNotOptimize(tree.RangeCount(pts.row(q), 0.5f));
  }
}
BENCHMARK(BM_CoverTreeRangeCount);

void BM_SelNetPredictSingleQuery(benchmark::State& state) {
  util::ScaleConfig scale;
  scale.scale = util::Scale::kSmoke;
  scale.n = 2000;
  scale.dim = 16;
  scale.num_queries = 50;
  scale.w = 8;
  scale.epochs = 2;
  scale.control_points = 16;
  eval::PreparedData data =
      eval::PrepareData(eval::SettingByName("fasttext-l2"), scale);
  auto model = eval::MakeModel(eval::ModelKind::kSelNetCt, data);
  eval::TrainContext ctx;
  ctx.db = &data.db;
  ctx.workload = &data.workload;
  ctx.epochs = 2;
  model->Fit(ctx);
  Matrix x(1, data.db.dim()), t(1, 1);
  std::copy(data.workload.queries.row(0),
            data.workload.queries.row(0) + data.db.dim(), x.row(0));
  t(0, 0) = data.workload.tmax / 2;
  for (auto _ : state) {
    Matrix out = model->Predict(x, t);
    benchmark::DoNotOptimize(out(0, 0));
  }
}
BENCHMARK(BM_SelNetPredictSingleQuery);

void BM_ExactSelectivityScan(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.n = static_cast<size_t>(state.range(0));
  spec.dim = 24;
  data::Database db(data::GenerateMixture(spec), data::Metric::kEuclidean);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ExactSelectivity(db.vector(0), 0.5f));
  }
  state.SetItemsProcessed(state.iterations() * spec.n);
}
BENCHMARK(BM_ExactSelectivityScan)->Arg(2000)->Arg(8000);

// items/s in the report = FLOP/s (items = 2mnk per iteration): read the
// per-kernel GFLOP/s straight off the BM_GemmPackedKernel rows.
void RunPackedKernelBench(benchmark::State& state, const std::string& kernel,
                          size_t n) {
  std::string prev = tensor::ActiveKernel().name;
  tensor::SetActiveKernel(kernel);
  util::Rng rng(12);
  Matrix a = Matrix::Gaussian(n, n, &rng);
  Matrix b = Matrix::Gaussian(n, n, &rng);
  Matrix c(n, n);
  for (auto _ : state) {
    c.Fill(0.0f);
    tensor::GemmNNWithKernel(a, b, 1.0f, &c, tensor::GemmKernel::kPacked);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  tensor::SetActiveKernel(prev);
}

void BM_GemmPrepackedVsRepack(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool cached = state.range(1) != 0;
  util::Rng rng(13);
  Matrix a = Matrix::Gaussian(64, n, &rng);
  Matrix b = Matrix::Gaussian(n, n, &rng);
  Matrix c(64, n);
  tensor::PackCache cache;
  for (auto _ : state) {
    c.Fill(0.0f);
    if (cached) {
      tensor::GemmNNPrepacked(a, *cache.Get(b), 1.0f, &c);
    } else {
      tensor::GemmNNWithKernel(a, b, 1.0f, &c, tensor::GemmKernel::kPacked);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 64 * n * n);
}
BENCHMARK(BM_GemmPrepackedVsRepack)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({512, 0})
    ->Args({512, 1});

// One request's cache-key work as the server does it: one QueryDigest of a
// dim-128 query, then K threshold keys derived from it (K = 1: a point, K =
// 16: a sweep).
void BM_CacheKeys(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t dim = 128;
  util::Rng rng(14);
  Matrix x = Matrix::Gaussian(1, dim, &rng);
  serve::EstimateCache cache;
  for (auto _ : state) {
    uint64_t digest = cache.QueryDigest(x.data(), dim);
    for (size_t i = 0; i < k; ++i) {
      benchmark::DoNotOptimize(cache.Key(1, digest, float(i) / float(k)));
    }
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_CacheKeys)->Arg(1)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  using selnet::tensor::ActiveKernel;
  using selnet::tensor::AvailableKernels;
  for (const auto& kern : AvailableKernels()) {
    for (size_t n : {128, 256}) {
      std::string name = std::string("BM_GemmPackedKernel/") + kern.name + "/" +
                         std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kernel = std::string(kern.name), n](benchmark::State& st) {
            RunPackedKernelBench(st, kernel, n);
          });
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::string available;
  for (const auto& kern : AvailableKernels()) {
    available += std::string(available.empty() ? "" : ",") + kern.name;
  }
  std::printf("gemm dispatch: active=%s available=[%s]\n", ActiveKernel().name,
              available.c_str());
  const char* require = std::getenv("SELNET_REQUIRE_SIMD");
  if (require != nullptr && require[0] == '1' &&
      std::string(ActiveKernel().name) == "scalar") {
    std::fprintf(stderr,
                 "SELNET_REQUIRE_SIMD=1 but dispatch picked the scalar "
                 "kernel — SIMD variants missing from this build/host\n");
    return 1;
  }
  return 0;
}
