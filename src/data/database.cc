#include "data/database.h"

#include <algorithm>
#include <cmath>

#include "tensor/blas.h"
#include "tensor/kernel_dispatch.h"
#include "util/check.h"

namespace selnet::data {

Database::Database(tensor::Matrix vectors, Metric metric)
    : vectors_(std::move(vectors)),
      alive_(vectors_.rows(), uint8_t{1}),
      live_count_(vectors_.rows()),
      dim_(vectors_.cols()),
      metric_(metric) {}

size_t Database::Insert(const std::vector<float>& v) {
  SEL_CHECK_EQ(v.size(), dim_);
  size_t rows = vectors_.rows();
  tensor::Matrix grown(rows + 1, dim_);
  std::copy(vectors_.data(), vectors_.data() + vectors_.size(), grown.data());
  std::copy(v.begin(), v.end(), grown.row(rows));
  vectors_ = std::move(grown);
  alive_.push_back(1);
  ++live_count_;
  return rows;
}

void Database::Delete(size_t id) {
  SEL_CHECK_LT(id, alive_.size());
  SEL_CHECK_MSG(alive_[id] != 0, "double delete");
  alive_[id] = 0;
  --live_count_;
}

std::vector<size_t> Database::LiveIds() const {
  std::vector<size_t> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i]) out.push_back(i);
  }
  return out;
}

tensor::Matrix Database::DenseView() const {
  tensor::Matrix out(live_count_, dim_);
  size_t r = 0;
  for (size_t i = 0; i < alive_.size(); ++i) {
    if (!alive_[i]) continue;
    std::copy(vectors_.row(i), vectors_.row(i) + dim_, out.row(r++));
  }
  return out;
}

template <typename Fn>
void Database::ForEachLiveDistance(const float* query, Fn&& fn) const {
  size_t n = alive_.size();
  size_t i = 0;
  if (metric_ == Metric::kEuclidean) {
    // Whole 16-row blocks, dead rows included and skipped afterwards: each
    // distance is bit for bit Distance()'s sqrt(SquaredL2(query, row)).
    float sq[tensor::kL2BlockRows];
    for (; i + tensor::kL2BlockRows <= n; i += tensor::kL2BlockRows) {
      tensor::SquaredL2Block(query, vectors_.row(i), dim_, sq);
      for (size_t r = 0; r < tensor::kL2BlockRows; ++r) {
        if (alive_[i + r]) fn(std::sqrt(sq[r]));
      }
    }
  }
  for (; i < n; ++i) {
    if (alive_[i]) fn(Distance(query, vectors_.row(i), dim_, metric_));
  }
}

size_t Database::ExactSelectivity(const float* query, float t) const {
  size_t count = 0;
  ForEachLiveDistance(query, [&](float d) {
    if (d <= t) ++count;
  });
  return count;
}

std::vector<float> Database::DistancesFrom(const float* query) const {
  std::vector<float> out;
  out.reserve(live_count_);
  ForEachLiveDistance(query, [&](float d) { out.push_back(d); });
  return out;
}

}  // namespace selnet::data
