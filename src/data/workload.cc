#include "data/workload.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/thread_pool.h"

namespace selnet::data {

namespace {

// Geometric ladder of w selectivity targets in [1, max_sel].
std::vector<double> SelectivityLadder(size_t w, double max_sel) {
  SEL_CHECK_GE(w, 2u);
  max_sel = std::max(max_sel, 2.0);
  std::vector<double> out(w);
  double log_max = std::log(max_sel);
  for (size_t j = 0; j < w; ++j) {
    out[j] = std::exp(log_max * static_cast<double>(j) /
                      static_cast<double>(w - 1));
  }
  return out;
}

// Sample query objects from the database and copy them into a matrix.
tensor::Matrix SampleQueries(const Database& db, size_t num_queries,
                             util::Rng* rng) {
  std::vector<size_t> live = db.LiveIds();
  SEL_CHECK_GE(live.size(), num_queries);
  std::vector<size_t> picks =
      rng->SampleWithoutReplacement(live.size(), num_queries);
  tensor::Matrix queries(num_queries, db.dim());
  for (size_t i = 0; i < num_queries; ++i) {
    const float* src = db.vector(live[picks[i]]);
    std::copy(src, src + db.dim(), queries.row(i));
  }
  return queries;
}

// 80:10:10 split by query id, then scatter samples accordingly.
void SplitByQuery(size_t num_queries, const std::vector<QuerySample>& all,
                  util::Rng* rng, Workload* out) {
  std::vector<size_t> qids(num_queries);
  for (size_t i = 0; i < num_queries; ++i) qids[i] = i;
  rng->Shuffle(&qids);
  // 0 = train, 1 = valid, 2 = test.
  std::vector<uint8_t> role(num_queries, 0);
  size_t n_train = num_queries * 8 / 10;
  size_t n_valid = num_queries / 10;
  for (size_t i = 0; i < num_queries; ++i) {
    if (i < n_train) {
      role[qids[i]] = 0;
    } else if (i < n_train + n_valid) {
      role[qids[i]] = 1;
    } else {
      role[qids[i]] = 2;
    }
  }
  for (const auto& s : all) {
    switch (role[s.query_id]) {
      case 0: out->train.push_back(s); break;
      case 1: out->valid.push_back(s); break;
      default: out->test.push_back(s); break;
    }
  }
}

}  // namespace

Workload GenerateWorkload(const Database& db, const WorkloadSpec& spec) {
  util::Rng rng(spec.seed);
  Workload wl;
  wl.metric = db.metric();
  wl.w = spec.w;
  wl.queries = SampleQueries(db, spec.num_queries, &rng);

  std::vector<double> ladder =
      SelectivityLadder(spec.w, static_cast<double>(db.size()) * spec.max_sel_fraction);

  std::vector<QuerySample> all(spec.num_queries * spec.w);
  util::ParallelFor(0, spec.num_queries, [&](size_t q) {
    std::vector<float> dists = db.DistancesFrom(wl.queries.row(q));
    // Only the ladder's ranks matter, and they are small: select the
    // `top` smallest distances and sort just those instead of the whole
    // profile. Labels equal the full sort's exactly.
    std::vector<size_t> ranks(spec.w);
    for (size_t j = 0; j < spec.w; ++j) {
      size_t rank = static_cast<size_t>(std::llround(ladder[j]));
      ranks[j] = std::clamp<size_t>(rank, 1, dists.size());
    }
    size_t top = *std::max_element(ranks.begin(), ranks.end());
    auto head_end = dists.begin() + static_cast<std::ptrdiff_t>(top);
    std::nth_element(dists.begin(), head_end - 1, dists.end());
    std::sort(dists.begin(), head_end - 1);
    for (size_t j = 0; j < spec.w; ++j) {
      float t = dists[ranks[j] - 1];
      // Exact label: count of distances <= t (ties make it >= rank). Past
      // the sorted head every distance is >= its last value, so only a t
      // equal to that value has ties out there to count.
      size_t y = static_cast<size_t>(
          std::upper_bound(dists.begin(), head_end, t) - dists.begin());
      if (y == top) {
        y += static_cast<size_t>(std::count(head_end, dists.end(), t));
      }
      QuerySample& s = all[q * spec.w + j];
      s.query_id = static_cast<uint32_t>(q);
      s.t = t;
      s.y = static_cast<float>(y);
    }
  });

  float tmax = 0.0f;
  for (const auto& s : all) tmax = std::max(tmax, s.t);
  wl.tmax = tmax * 1.05f;

  SplitByQuery(spec.num_queries, all, &rng, &wl);
  return wl;
}

Workload GenerateBetaWorkload(const Database& db, const WorkloadSpec& spec,
                              double alpha, double beta) {
  util::Rng rng(spec.seed + 1);
  Workload wl;
  wl.metric = db.metric();
  wl.w = spec.w;
  wl.queries = SampleQueries(db, spec.num_queries, &rng);

  // Global range: median of each query's 5%-selectivity distance, so the
  // high-probability region of the Beta covers rapidly-changing selectivities
  // and the ladder top exceeds the default workload's 1% cap (Section 7.9:
  // "the range of selectivity values in this workload is larger").
  size_t probe_rank = std::max<size_t>(2, db.size() / 20);
  std::vector<float> caps(spec.num_queries);
  std::vector<std::vector<float>> sorted_dists(spec.num_queries);
  util::ParallelFor(0, spec.num_queries, [&](size_t q) {
    std::vector<float> dists = db.DistancesFrom(wl.queries.row(q));
    std::sort(dists.begin(), dists.end());
    caps[q] = dists[std::min(probe_rank, dists.size()) - 1];
    sorted_dists[q] = std::move(dists);
  });
  std::vector<float> caps_sorted = caps;
  std::nth_element(caps_sorted.begin(), caps_sorted.begin() + caps_sorted.size() / 2,
                   caps_sorted.end());
  float range = caps_sorted[caps_sorted.size() / 2];

  std::vector<QuerySample> all(spec.num_queries * spec.w);
  for (size_t q = 0; q < spec.num_queries; ++q) {
    const auto& dists = sorted_dists[q];
    for (size_t j = 0; j < spec.w; ++j) {
      float t = static_cast<float>(rng.Beta(alpha, beta)) * range;
      auto ub = std::upper_bound(dists.begin(), dists.end(), t);
      QuerySample& s = all[q * spec.w + j];
      s.query_id = static_cast<uint32_t>(q);
      s.t = t;
      s.y = static_cast<float>(ub - dists.begin());
    }
  }

  float tmax = 0.0f;
  for (const auto& s : all) tmax = std::max(tmax, s.t);
  wl.tmax = tmax * 1.05f;

  SplitByQuery(spec.num_queries, all, &rng, &wl);
  return wl;
}

void PatchLabels(const tensor::Matrix& queries, Metric metric, const float* vec,
                 int delta, std::vector<QuerySample>* samples, bool parallel) {
  size_t dim = queries.cols();
  auto patch_one = [&](size_t i) {
    QuerySample& s = (*samples)[i];
    float d = Distance(queries.row(s.query_id), vec, dim, metric);
    if (d <= s.t) s.y += static_cast<float>(delta);
  };
  if (!parallel) {
    for (size_t i = 0; i < samples->size(); ++i) patch_one(i);
    return;
  }
  // Each sample's patch is independent (one distance test, one conditional
  // add on its own label), so sharding the loop is bit-identical to the
  // serial pass regardless of interleaving. The grain keeps small workloads
  // on the calling thread.
  util::ParallelFor(0, samples->size(), patch_one, /*grain=*/512);
}

void RelabelExact(const Database& db, const tensor::Matrix& queries,
                  std::vector<QuerySample>* samples) {
  util::ParallelFor(0, samples->size(), [&](size_t i) {
    QuerySample& s = (*samples)[i];
    s.y = static_cast<float>(db.ExactSelectivity(queries.row(s.query_id), s.t));
  });
}

Batch MaterializeBatch(const tensor::Matrix& queries,
                       const std::vector<QuerySample>& samples,
                       const std::vector<size_t>& indices) {
  Batch b;
  size_t dim = queries.cols();
  b.x = tensor::Matrix(indices.size(), dim);
  b.t = tensor::Matrix(indices.size(), 1);
  b.y = tensor::Matrix(indices.size(), 1);
  for (size_t i = 0; i < indices.size(); ++i) {
    const QuerySample& s = samples[indices[i]];
    std::copy(queries.row(s.query_id), queries.row(s.query_id) + dim, b.x.row(i));
    b.t(i, 0) = s.t;
    b.y(i, 0) = s.y;
  }
  return b;
}

Batch MaterializeAll(const tensor::Matrix& queries,
                     const std::vector<QuerySample>& samples) {
  std::vector<size_t> idx(samples.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return MaterializeBatch(queries, samples, idx);
}

}  // namespace selnet::data
