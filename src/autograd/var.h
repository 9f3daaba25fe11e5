#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/pack_cache.h"

/// \file var.h
/// \brief Reverse-mode automatic differentiation over matrices.
///
/// A `Var` is a shared handle to a tape node holding a Matrix value, an
/// optionally-materialized gradient, its parents, and a backward closure that
/// scatters the node's gradient into its parents. Graphs are built eagerly per
/// batch and freed when the last handle drops; nodes number in the tens, so
/// GEMM dominates and tape overhead is negligible.

namespace selnet::ag {

class Node;
using Var = std::shared_ptr<Node>;

/// \brief One tape node: value + gradient + backward closure.
class Node {
 public:
  tensor::Matrix value;
  tensor::Matrix grad;
  bool requires_grad = false;
  std::vector<Var> parents;
  /// Scatters `grad` into parents' grads; null for leaves.
  std::function<void(Node*)> backward;
  /// Op name, for debugging and error messages.
  const char* op = "leaf";

  /// Version-keyed packed-weight panels for `value` when this node is the B
  /// operand of a multi-row MatMul (weights and folded constants — leaves that
  /// persist across calls). Filled lazily by ag::MatMul; anything that
  /// mutates `value` in place must call pack_cache.Invalidate() — the
  /// optimizers and parameter loaders do (see tensor/pack_cache.h).
  tensor::PackCache pack_cache;

  size_t rows() const { return value.rows(); }
  size_t cols() const { return value.cols(); }

  /// \brief Allocate (zeroed) gradient storage if absent.
  void EnsureGrad() {
    if (!grad.SameShape(value)) grad = tensor::Matrix(value.rows(), value.cols());
  }
};

/// \brief Wrap a value as a non-differentiable leaf.
Var Constant(tensor::Matrix value);

/// \brief Wrap a value as a trainable parameter (gradient is accumulated).
Var Param(tensor::Matrix value);

/// \brief Create an interior node; requires_grad is inherited from parents.
Var MakeNode(tensor::Matrix value, std::vector<Var> parents,
             std::function<void(Node*)> backward, const char* op);

/// \brief Run reverse-mode accumulation from `root` (seeds d root = 1).
///
/// `root` is typically a 1x1 loss. Gradients accumulate into every node with
/// requires_grad on the tape; call ZeroGrad on parameters between steps.
void Backward(const Var& root);

/// \brief Zero the gradient buffers of `params`.
void ZeroGrad(const std::vector<Var>& params);

/// \brief Drop the packed-weight caches of `params`; required after mutating
/// their values outside the optimizer/loader paths (which invalidate
/// themselves). Thread-safe, cheap when nothing is cached.
void InvalidatePackCaches(const std::vector<Var>& params);

}  // namespace selnet::ag
