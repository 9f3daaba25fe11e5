#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/distance.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "tensor/kernel_dispatch.h"

namespace selnet::data {
namespace {

using tensor::Matrix;

TEST(DistanceTest, EuclideanBasics) {
  std::vector<float> a = {0, 0, 0};
  std::vector<float> b = {3, 4, 0};
  EXPECT_FLOAT_EQ(Distance(a.data(), b.data(), 3, Metric::kEuclidean), 5.0f);
  EXPECT_FLOAT_EQ(Distance(a.data(), a.data(), 3, Metric::kEuclidean), 0.0f);
}

TEST(DistanceTest, CosineBasics) {
  std::vector<float> a = {1, 0};
  std::vector<float> b = {0, 1};
  std::vector<float> c = {2, 0};
  EXPECT_NEAR(Distance(a.data(), b.data(), 2, Metric::kCosine), 1.0f, 1e-6f);
  EXPECT_NEAR(Distance(a.data(), c.data(), 2, Metric::kCosine), 0.0f, 1e-6f);
  std::vector<float> d = {-1, 0};
  EXPECT_NEAR(Distance(a.data(), d.data(), 2, Metric::kCosine), 2.0f, 1e-6f);
}

TEST(DistanceTest, CosineIsScaleInvariant) {
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    Matrix v = Matrix::Gaussian(2, 8, &rng);
    float d1 = RowDistance(v, 0, v, 1, Metric::kCosine);
    Matrix w = v;
    for (size_t c = 0; c < 8; ++c) w(0, c) *= 5.0f;
    float d2 = RowDistance(w, 0, w, 1, Metric::kCosine);
    EXPECT_NEAR(d1, d2, 1e-5f);
  }
}

TEST(DistanceTest, EuclideanTriangleInequality) {
  util::Rng rng(2);
  Matrix v = Matrix::Gaussian(3, 10, &rng);
  float ab = RowDistance(v, 0, v, 1, Metric::kEuclidean);
  float bc = RowDistance(v, 1, v, 2, Metric::kEuclidean);
  float ac = RowDistance(v, 0, v, 2, Metric::kEuclidean);
  EXPECT_LE(ac, ab + bc + 1e-5f);
}

TEST(DistanceTest, CosineEuclideanEquivalenceOnUnitVectors) {
  util::Rng rng(3);
  Matrix v = Matrix::Gaussian(10, 6, &rng);
  NormalizeRows(&v);
  for (size_t i = 0; i + 1 < v.rows(); i += 2) {
    float dc = RowDistance(v, i, v, i + 1, Metric::kCosine);
    float de = RowDistance(v, i, v, i + 1, Metric::kEuclidean);
    // cos distance = ||u-v||^2 / 2 on the unit sphere.
    EXPECT_NEAR(dc, de * de / 2.0f, 1e-4f);
    EXPECT_NEAR(CosineToEuclideanThreshold(dc), de, 1e-4f);
    EXPECT_NEAR(EuclideanToCosineThreshold(de), dc, 1e-4f);
  }
}

TEST(DistanceTest, NormalizeRowsMakesUnitVectors) {
  util::Rng rng(4);
  Matrix v = Matrix::Gaussian(5, 7, &rng, 3.0f);
  NormalizeRows(&v);
  for (size_t r = 0; r < v.rows(); ++r) {
    float norm = 0.0f;
    for (size_t c = 0; c < v.cols(); ++c) norm += v(r, c) * v(r, c);
    EXPECT_NEAR(std::sqrt(norm), 1.0f, 1e-5f);
  }
}

TEST(SyntheticTest, GeneratesRequestedShape) {
  SyntheticSpec spec;
  spec.n = 500;
  spec.dim = 10;
  Matrix m = GenerateMixture(spec);
  EXPECT_EQ(m.rows(), 500u);
  EXPECT_EQ(m.cols(), 10u);
  EXPECT_TRUE(m.AllFinite());
}

TEST(SyntheticTest, DeterministicForFixedSeed) {
  SyntheticSpec spec;
  spec.n = 100;
  spec.dim = 5;
  Matrix a = GenerateMixture(spec);
  Matrix b = GenerateMixture(spec);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(SyntheticTest, NormalizedSpecsLandOnSphere) {
  util::ScaleConfig cfg;
  cfg.n = 200;
  cfg.dim = 8;
  SyntheticSpec spec = SpecFor(Corpus::kFaceLike, cfg);
  EXPECT_TRUE(spec.normalize);
  Matrix m = GenerateMixture(spec);
  for (size_t r = 0; r < m.rows(); ++r) {
    float norm = 0.0f;
    for (size_t c = 0; c < m.cols(); ++c) norm += m(r, c) * m(r, c);
    EXPECT_NEAR(norm, 1.0f, 1e-4f);
  }
}

TEST(SyntheticTest, YoutubeUsesDoubleDim) {
  util::ScaleConfig cfg;
  cfg.dim = 8;
  EXPECT_EQ(SpecFor(Corpus::kYoutubeLike, cfg).dim, 16u);
}

TEST(SyntheticTest, DrawFromSameMixtureMatchesDistribution) {
  SyntheticSpec spec;
  spec.n = 400;
  spec.dim = 4;
  spec.num_clusters = 3;
  Matrix base = GenerateMixture(spec);
  Matrix extra = DrawFromSameMixture(spec, 100, /*stream_seed=*/99);
  EXPECT_EQ(extra.rows(), 100u);
  // New draws should land near the same cluster centers: nearest-base-point
  // distance should be comparable to intra-dataset spacing, not far away.
  double max_min_dist = 0.0;
  for (size_t i = 0; i < extra.rows(); ++i) {
    float best = std::numeric_limits<float>::max();
    for (size_t j = 0; j < base.rows(); ++j) {
      best = std::min(best, Distance(extra.row(i), base.row(j), 4,
                                     Metric::kEuclidean));
    }
    max_min_dist = std::max(max_min_dist, static_cast<double>(best));
  }
  EXPECT_LT(max_min_dist, 2.0);
}

TEST(DatabaseTest, InsertDeleteLifecycle) {
  Matrix m = Matrix::Ones(3, 2);
  Database db(std::move(m), Metric::kEuclidean);
  EXPECT_EQ(db.size(), 3u);
  size_t id = db.Insert({5.0f, 5.0f});
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(db.size(), 4u);
  db.Delete(0);
  EXPECT_EQ(db.size(), 3u);
  EXPECT_FALSE(db.alive(0));
  EXPECT_TRUE(db.alive(3));
  auto live = db.LiveIds();
  EXPECT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0], 1u);
}

TEST(DatabaseTest, ExactSelectivityCountsCorrectly) {
  Matrix m(4, 1);
  m(0, 0) = 0.0f;
  m(1, 0) = 1.0f;
  m(2, 0) = 2.0f;
  m(3, 0) = 3.0f;
  Database db(std::move(m), Metric::kEuclidean);
  float q = 0.0f;
  EXPECT_EQ(db.ExactSelectivity(&q, 1.5f), 2u);
  EXPECT_EQ(db.ExactSelectivity(&q, 3.0f), 4u);  // <= is inclusive
  db.Delete(1);
  EXPECT_EQ(db.ExactSelectivity(&q, 1.5f), 1u);
}

TEST(DatabaseTest, DenseViewSkipsDeleted) {
  Matrix m(3, 1);
  m(0, 0) = 10.0f;
  m(1, 0) = 20.0f;
  m(2, 0) = 30.0f;
  Database db(std::move(m), Metric::kEuclidean);
  db.Delete(1);
  Matrix dense = db.DenseView();
  EXPECT_EQ(dense.rows(), 2u);
  EXPECT_FLOAT_EQ(dense(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(dense(1, 0), 30.0f);
}

// The Euclidean scans run 16 rows at a time on the dispatched squared-L2
// block. On every kernel set they must return, bit for bit, what a per-row
// Distance() scan returns: 53 rows (three whole blocks and a 5-row tail), an
// odd and an even width, deleted rows inside blocks and in the tail.
TEST(DatabaseTest, BlockedScansMatchPerRowDistanceOnEveryKernel) {
  for (size_t dim : {7, 32}) {
    SyntheticSpec spec;
    spec.n = 53;
    spec.dim = dim;
    spec.seed = dim;
    Database db(GenerateMixture(spec), Metric::kEuclidean);
    for (size_t id : {0, 15, 16, 31, 50}) db.Delete(id);
    std::vector<float> q(db.vector(3), db.vector(3) + dim);
    q[0] += 0.25f;  // Not a corpus point: no exact zero distance.
    std::vector<float> ref;
    for (size_t id = 0; id < db.capacity(); ++id) {
      if (db.alive(id)) {
        ref.push_back(Distance(q.data(), db.vector(id), dim, db.metric()));
      }
    }
    ASSERT_EQ(ref.size(), 48u);
    const std::string prev = tensor::ActiveKernel().name;
    for (const tensor::KernelInfo& kern : tensor::AvailableKernels()) {
      ASSERT_TRUE(tensor::SetActiveKernel(kern.name));
      std::vector<float> got = db.DistancesFrom(q.data());
      ASSERT_EQ(got.size(), ref.size()) << kern.name;
      EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
                0)
          << kern.name << " dim " << dim;
      // Thresholds on exact distances make `<=` decide at the boundary.
      for (size_t i : {0, 7, 20, 47}) {
        float t = ref[i];
        size_t want = static_cast<size_t>(
            std::count_if(ref.begin(), ref.end(), [&](float d) {
              return d <= t;
            }));
        EXPECT_EQ(db.ExactSelectivity(q.data(), t), want)
            << kern.name << " dim " << dim << " t " << t;
      }
    }
    tensor::SetActiveKernel(prev);
  }
}

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.n = 800;
    spec.dim = 6;
    spec.num_clusters = 5;
    db_ = std::make_unique<Database>(GenerateMixture(spec), Metric::kEuclidean);
    spec_.num_queries = 30;
    spec_.w = 8;
    wl_ = GenerateWorkload(*db_, spec_);
  }
  std::unique_ptr<Database> db_;
  WorkloadSpec spec_;
  Workload wl_;
};

TEST_F(WorkloadTest, SampleCountsAndSplit) {
  size_t total = wl_.train.size() + wl_.valid.size() + wl_.test.size();
  EXPECT_EQ(total, spec_.num_queries * spec_.w);
  EXPECT_EQ(wl_.train.size(), 24u * spec_.w);  // 80% of 30 queries
  EXPECT_EQ(wl_.valid.size(), 3u * spec_.w);
  EXPECT_EQ(wl_.test.size(), 3u * spec_.w);
}

TEST_F(WorkloadTest, SplitsAreQueryDisjoint) {
  std::set<uint32_t> train_q, valid_q, test_q;
  for (const auto& s : wl_.train) train_q.insert(s.query_id);
  for (const auto& s : wl_.valid) valid_q.insert(s.query_id);
  for (const auto& s : wl_.test) test_q.insert(s.query_id);
  for (uint32_t q : valid_q) EXPECT_EQ(train_q.count(q), 0u);
  for (uint32_t q : test_q) {
    EXPECT_EQ(train_q.count(q), 0u);
    EXPECT_EQ(valid_q.count(q), 0u);
  }
}

TEST_F(WorkloadTest, LabelsAreExact) {
  for (const auto& s : wl_.test) {
    size_t exact = db_->ExactSelectivity(wl_.queries.row(s.query_id), s.t);
    EXPECT_EQ(static_cast<size_t>(s.y), exact);
  }
}

TEST_F(WorkloadTest, LabelsMonotoneInThresholdPerQuery) {
  // Samples of the same query were generated with increasing target
  // selectivity, so (t, y) must be jointly non-decreasing.
  std::map<uint32_t, std::vector<std::pair<float, float>>> per_query;
  for (const auto& s : wl_.train) per_query[s.query_id].push_back({s.t, s.y});
  for (auto& [q, pairs] : per_query) {
    std::sort(pairs.begin(), pairs.end());
    for (size_t i = 1; i < pairs.size(); ++i) {
      EXPECT_GE(pairs[i].second, pairs[i - 1].second);
    }
  }
}

TEST_F(WorkloadTest, TmaxCoversAllThresholds) {
  for (const auto& s : wl_.train) EXPECT_LE(s.t, wl_.tmax);
  for (const auto& s : wl_.test) EXPECT_LE(s.t, wl_.tmax);
}

TEST_F(WorkloadTest, SelectivityLadderSpansOrdersOfMagnitude) {
  float max_y = 0.0f, min_y = std::numeric_limits<float>::max();
  for (const auto& s : wl_.train) {
    max_y = std::max(max_y, s.y);
    min_y = std::min(min_y, s.y);
  }
  EXPECT_LE(min_y, 2.0f);                       // ladder starts at 1
  EXPECT_GE(max_y, 0.008f * 800);               // ladder tops near n/100
}

TEST_F(WorkloadTest, PatchLabelsMatchesExactRelabel) {
  // Insert a vector, patch incrementally, compare against full recompute.
  std::vector<float> v(6, 0.05f);
  std::vector<QuerySample> patched = wl_.train;
  db_->Insert(v);
  PatchLabels(wl_.queries, Metric::kEuclidean, v.data(), +1, &patched);
  std::vector<QuerySample> relabeled = wl_.train;
  RelabelExact(*db_, wl_.queries, &relabeled);
  for (size_t i = 0; i < patched.size(); ++i) {
    EXPECT_FLOAT_EQ(patched[i].y, relabeled[i].y) << "sample " << i;
  }
}

TEST_F(WorkloadTest, DeletePatchMatchesExactRelabel) {
  size_t victim = db_->LiveIds()[5];
  std::vector<float> v(db_->vector(victim), db_->vector(victim) + 6);
  std::vector<QuerySample> patched = wl_.train;
  db_->Delete(victim);
  PatchLabels(wl_.queries, Metric::kEuclidean, v.data(), -1, &patched);
  std::vector<QuerySample> relabeled = wl_.train;
  RelabelExact(*db_, wl_.queries, &relabeled);
  for (size_t i = 0; i < patched.size(); ++i) {
    EXPECT_FLOAT_EQ(patched[i].y, relabeled[i].y);
  }
}

TEST_F(WorkloadTest, MaterializeBatchRoundTrip) {
  std::vector<size_t> idx = {0, 5, 7};
  Batch b = MaterializeBatch(wl_.queries, wl_.train, idx);
  EXPECT_EQ(b.x.rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const QuerySample& s = wl_.train[idx[i]];
    EXPECT_FLOAT_EQ(b.t(i, 0), s.t);
    EXPECT_FLOAT_EQ(b.y(i, 0), s.y);
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_FLOAT_EQ(b.x(i, c), wl_.queries(s.query_id, c));
    }
  }
}

// GenerateWorkload labels by selection; they must equal the full sort +
// upper_bound reference. Every corpus vector appears three times, so each
// threshold has ties (rank 1 is the query itself: label 3). With a ladder
// top of 2n the ranks clamp to 1 at the bottom and to n at the top; with a
// top rank of 61 (0.51 n) the top threshold's three copies straddle the
// selected head, whose ties past it must be counted too.
TEST(WorkloadLabelsTest, SelectionLabelsMatchSortReference) {
  SyntheticSpec spec;
  spec.n = 40;
  spec.dim = 5;
  Matrix base = GenerateMixture(spec);
  Matrix tripled(3 * spec.n, spec.dim);
  for (size_t i = 0; i < tripled.rows(); ++i) {
    std::copy(base.row(i % spec.n), base.row(i % spec.n) + spec.dim,
              tripled.row(i));
  }
  Database db(std::move(tripled), Metric::kEuclidean);
  const size_t n = db.size();
  for (double top_fraction : {2.0, 0.51}) {
    WorkloadSpec wspec;
    wspec.num_queries = 12;
    wspec.w = 7;
    wspec.max_sel_fraction = top_fraction;
    Workload wl = GenerateWorkload(db, wspec);
    ASSERT_EQ(wl.train.size() + wl.valid.size() + wl.test.size(),
              wspec.num_queries * wspec.w);

    // The geometric ladder GenerateWorkload targets: rank_j =
    // round(max_sel ^ (j / (w - 1))), clamped to [1, n].
    double log_max = std::log(static_cast<double>(n) * top_fraction);
    size_t clamped_low = 0, clamped_high = 0, straddled = 0;
    for (const auto* split : {&wl.train, &wl.valid, &wl.test}) {
      // Splitting keeps each query's samples in ladder order.
      std::map<uint32_t, size_t> next_j;
      for (const QuerySample& s : *split) {
        size_t j = next_j[s.query_id]++;
        std::vector<float> d = db.DistancesFrom(wl.queries.row(s.query_id));
        std::sort(d.begin(), d.end());
        size_t rank = static_cast<size_t>(std::llround(
            std::exp(log_max * double(j) / double(wspec.w - 1))));
        rank = std::clamp<size_t>(rank, 1, n);
        EXPECT_EQ(s.t, d[rank - 1]) << "query " << s.query_id << " j " << j;
        auto ub = std::upper_bound(d.begin(), d.end(), s.t);
        EXPECT_EQ(s.y, static_cast<float>(ub - d.begin()))
            << "query " << s.query_id << " j " << j;
        if (rank == 1) {
          ++clamped_low;
          EXPECT_EQ(s.y, 3.0f);  // The query and its two copies.
        }
        if (rank == n) {
          ++clamped_high;
          EXPECT_EQ(s.y, static_cast<float>(n));
        }
        if (j == wspec.w - 1 && s.y > static_cast<float>(rank)) ++straddled;
      }
    }
    EXPECT_EQ(clamped_low, wspec.num_queries);
    if (top_fraction > 1.0) {
      EXPECT_EQ(clamped_high, wspec.num_queries);
    } else {
      EXPECT_EQ(clamped_high, 0u);
      EXPECT_GT(straddled, 0u);
    }
  }
}

TEST(BetaWorkloadTest, LabelsExactAndThresholdsInRange) {
  SyntheticSpec spec;
  spec.n = 600;
  spec.dim = 5;
  Database db(GenerateMixture(spec), Metric::kEuclidean);
  WorkloadSpec wspec;
  wspec.num_queries = 20;
  wspec.w = 6;
  Workload wl = GenerateBetaWorkload(db, wspec);
  EXPECT_EQ(wl.train.size() + wl.valid.size() + wl.test.size(), 120u);
  for (const auto& s : wl.train) {
    EXPECT_GE(s.t, 0.0f);
    EXPECT_LE(s.t, wl.tmax);
    size_t exact = db.ExactSelectivity(wl.queries.row(s.query_id), s.t);
    EXPECT_EQ(static_cast<size_t>(s.y), exact);
  }
}

}  // namespace
}  // namespace selnet::data
