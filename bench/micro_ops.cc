/// \file micro_ops.cc
/// \brief google-benchmark microbenchmarks for the hot kernels: GEMM (per
/// dispatched micro-kernel, with GFLOP/s), pack-cache hit/build cost,
/// autograd round trips, PWL gather, cover-tree operations, single-query
/// SelNet prediction latency, the training kernels (the backward dX GEMM and
/// the exact distance scan, per dispatched kernel), the serving cache's
/// per-request key cost, and
/// the publish path's model load and CRC-32 pass.
///
/// Doubles as the CI kernel-dispatch smoke: with SELNET_REQUIRE_SIMD=1 the
/// process exits non-zero unless runtime dispatch resolved a non-scalar
/// micro-kernel (CI's default leg runs this after ctest).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "autograd/ops.h"
#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "eval/suite.h"
#include "index/cover_tree.h"
#include "serve/estimate_cache.h"
#include "tensor/blas.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/pack_cache.h"
#include "util/crc32.h"

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

// One exact count over an (n x dim) Euclidean corpus on the given kernel
// set (the 16-row squared-L2 block): {20000, 128} is the servebench corpus,
// what each labelling query and each ground-truth profile costs.
void RunExactScanBench(benchmark::State& state, const std::string& kernel,
                       size_t n, size_t dim) {
  std::string prev = tensor::ActiveKernel().name;
  tensor::SetActiveKernel(kernel);
  data::SyntheticSpec spec;
  spec.n = n;
  spec.dim = dim;
  data::Database db(data::GenerateMixture(spec), data::Metric::kEuclidean);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ExactSelectivity(db.vector(0), 0.5f));
  }
  state.SetItemsProcessed(state.iterations() * spec.n);
  tensor::SetActiveKernel(prev);
}

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

// The dX product of an ag::MatMul backward, Gemm(dY, false, W, true), on
// the given kernel set: a 256-row batch against (k, n) = (layer output
// width, layer input width). items/s = FLOP/s.
void RunGemmNTBench(benchmark::State& state, const std::string& kernel,
                    size_t k, size_t n) {
  std::string prev = tensor::ActiveKernel().name;
  tensor::SetActiveKernel(kernel);
  const size_t m = 256;
  util::Rng rng(15);
  Matrix dy = Matrix::Gaussian(m, k, &rng);
  Matrix w = Matrix::Gaussian(n, k, &rng);
  Matrix dx(m, n);
  for (auto _ : state) {
    tensor::Gemm(dy, false, w, true, 1.0f, 1.0f, &dx);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  tensor::SetActiveKernel(prev);
}

// One request's cache-key work as the server does it: one QueryDigest of a
// dim-128 query and the curve key derived from it.
void BM_CacheKeys(benchmark::State& state) {
  const size_t dim = 128;
  util::Rng rng(14);
  Matrix x = Matrix::Gaussian(1, dim, &rng);
  serve::EstimateCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.CurveKey(1, cache.QueryDigest(x.data(), dim)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheKeys);

// The publish path's two per-replica costs on the servebench model shape
// (dim 128, default config: a 600,322-byte SaveModel payload): building the
// model straight from its bytes, and one CRC-32 pass over them.
std::string ServebenchModelBytes() {
  core::SelNetConfig cfg;
  cfg.input_dim = 128;
  cfg.tmax = 1.0f;
  auto bytes = core::SaveModelBytes(core::SelNetCt(cfg));
  if (!bytes.ok()) std::abort();
  return bytes.MoveValueUnsafe();
}

void BM_LoadModelBytes(benchmark::State& state) {
  const std::string bytes = ServebenchModelBytes();
  for (auto _ : state) {
    auto model = core::LoadModelBytes(bytes, "micro_ops");
    if (!model.ok()) state.SkipWithError("LoadModelBytes failed");
    benchmark::DoNotOptimize(model);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(bytes.size()));
}
BENCHMARK(BM_LoadModelBytes)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  const std::string bytes = ServebenchModelBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

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
  // The servebench model's backward shapes: the p-net's output layer
  // (432 -> 128), a p-net hidden layer (128 -> 128), a tau-net hidden layer
  // (96 -> 96) and the AE encoder's input layer (64 -> 128).
  const std::pair<size_t, size_t> nt_shapes[] = {
      {432, 128}, {128, 128}, {96, 96}, {64, 128}};
  const std::pair<size_t, size_t> scan_shapes[] = {
      {2000, 24}, {8000, 24}, {20000, 128}};
  for (const auto& kern : AvailableKernels()) {
    const std::string kernel = kern.name;
    for (auto [k, n] : nt_shapes) {
      std::string name = "BM_GemmNT/" + kernel + "/" + std::to_string(k) +
                         "/" + std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(), [kernel, k = k, n = n](benchmark::State& st) {
            RunGemmNTBench(st, kernel, k, n);
          });
    }
    for (auto [n, dim] : scan_shapes) {
      std::string name = "BM_ExactSelectivityScan/" + kernel + "/" +
                         std::to_string(n) + "/" + std::to_string(dim);
      benchmark::RegisterBenchmark(
          name.c_str(), [kernel, n = n, dim = dim](benchmark::State& st) {
            RunExactScanBench(st, kernel, n, dim);
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
