#pragma once

#include <cstdint>
#include <vector>

#include "data/distance.h"
#include "tensor/matrix.h"

/// \file database.h
/// \brief The vector database D: storage, liveness (for updates), and exact
/// selectivity scans (ground-truth labels).

namespace selnet::data {

/// \brief A collection of d-dimensional vectors with insert/delete support.
///
/// Rows are append-only; deletion flips a liveness bit so object ids stay
/// stable across the update experiments (Section 5.4 / Figure 5).
class Database {
 public:
  Database() : dim_(0) {}
  Database(tensor::Matrix vectors, Metric metric);

  size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }

  /// \brief Number of live objects.
  size_t size() const { return live_count_; }
  /// \brief Number of slots including deleted ones.
  size_t capacity() const { return vectors_.rows(); }

  bool alive(size_t id) const { return alive_[id] != 0; }
  const float* vector(size_t id) const { return vectors_.row(id); }
  const tensor::Matrix& raw() const { return vectors_; }

  /// \brief Append a new object; returns its id.
  size_t Insert(const std::vector<float>& v);

  /// \brief Mark an object deleted (id must be alive).
  void Delete(size_t id);

  /// \brief Ids of all live objects.
  std::vector<size_t> LiveIds() const;

  /// \brief Dense copy of the live vectors (row i = i-th live object).
  tensor::Matrix DenseView() const;

  /// \brief Exact selectivity |{o in D : dist(q, o) <= t}| by linear scan.
  size_t ExactSelectivity(const float* query, float t) const;

  /// \brief All distances from `query` to live objects, unsorted.
  std::vector<float> DistancesFrom(const float* query) const;

 private:
  /// \brief fn(dist(query, o)) for each live o in id order. Euclidean scans
  /// run 16 rows at a time on tensor::SquaredL2Block.
  template <typename Fn>
  void ForEachLiveDistance(const float* query, Fn&& fn) const;

  tensor::Matrix vectors_;
  std::vector<uint8_t> alive_;
  size_t live_count_ = 0;
  size_t dim_;
  Metric metric_ = Metric::kEuclidean;
};

}  // namespace selnet::data
