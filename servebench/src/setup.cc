#include "setup.h"

#include <algorithm>

#include "core/model_io.h"
#include "data/synthetic.h"
#include "serve/shard_router.h"
#include "util/check.h"

namespace servebench {

using namespace selnet;

float Setup::ExactSelectivity(size_t qi, float t) const {
  const std::vector<float>& p = profiles[qi];
  return float(std::upper_bound(p.begin(), p.end(), t) - p.begin());
}

util::ThreadPool& SetupPool() {
  static util::ThreadPool pool(1);
  return pool;
}

std::unique_ptr<Setup> BuildSetup() {
  auto s = std::make_unique<Setup>();

  // Face-like mixture (many tight identity clusters on the unit sphere).
  data::SyntheticSpec spec;
  spec.n = kRows;
  spec.dim = kDim;
  spec.num_clusters = 96;
  spec.zipf_s = 0.4;
  spec.cluster_std_min = 0.04f;
  spec.cluster_std_max = 0.15f;
  spec.normalize = true;
  spec.seed = 13;
  s->db = std::make_unique<data::Database>(data::GenerateMixture(spec),
                                           data::Metric::kEuclidean);

  data::WorkloadSpec wspec;
  wspec.num_queries = kQueries;
  wspec.w = kThresholdsPerQuery;
  wspec.seed = 23;
  s->workload = data::GenerateWorkload(*s->db, wspec);

  core::SelNetConfig cfg;
  cfg.input_dim = kDim;
  cfg.tmax = s->workload.tmax;
  eval::TrainContext ctx;
  ctx.db = s->db.get();
  ctx.workload = &s->workload;
  ctx.epochs = kEpochs;
  ctx.seed = 1;
  s->model = std::make_shared<core::SelNetCt>(cfg);
  s->model->Fit(ctx);
  auto bytes = core::SaveModelBytes(*s->model);
  SEL_CHECK(bytes.ok());
  s->model_bytes = bytes.MoveValueUnsafe();

  s->profiles.resize(kQueries);
  for (size_t qi = 0; qi < kQueries; ++qi) {
    s->profiles[qi] = s->db->DistancesFrom(s->query(qi));
    std::sort(s->profiles[qi].begin(), s->profiles[qi].end());
  }

  // Every target routes on a two-slot ring (2 local shards, or 1 local + 1
  // remote), so pick names until each slot primaries exactly half of them.
  serve::HashRing ring(2);
  size_t per_slot[2] = {0, 0};
  for (size_t i = 0; s->routes.size() < kRoutes; ++i) {
    std::string name = "route-" + std::to_string(i);
    size_t slot = ring.ShardOf(name);
    if (per_slot[slot] == kRoutes / 2) continue;
    ++per_slot[slot];
    s->routes.push_back(name);
  }
  return s;
}

}  // namespace servebench
