#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "tensor/blas.h"
#include "util/check.h"

namespace selnet::ag {

using tensor::Matrix;

namespace {

// Elementwise-op helper: out = fn(a); backward dA += g ⊙ dfn(a, out).
// Templated (not std::function) so the per-element forward loop inlines and
// vectorizes — activations sit on the serving hot path.
template <typename Fn, typename Dfn>
Var ElementwiseOp(const Var& a, const char* name, Fn fn, Dfn dfn) {
  Matrix out = a->value;
  float* od = out.data();
  for (size_t i = 0; i < out.size(); ++i) od[i] = fn(od[i]);
  return MakeNode(std::move(out), {a},
                  [dfn](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    const float* av = a->value.data();
                    const float* ov = self->value.data();
                    const float* g = self->grad.data();
                    float* ag = a->grad.data();
                    for (size_t i = 0; i < self->value.size(); ++i) {
                      ag[i] += g[i] * dfn(av[i], ov[i]);
                    }
                  },
                  name);
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  SEL_CHECK_EQ(a->cols(), b->rows());
  Matrix out(a->rows(), b->cols());
  if (a->rows() >= tensor::kGemmPrepackedMinRows && b->parents.empty() &&
      tensor::PackCacheEnabled()) {
    // Multi-row product against a leaf (a parameter or a cached folded
    // constant): leaves persist across calls, so their packed panels are
    // cached per weight version and every such product — down to a 2-row
    // flush — runs on the packed micro-kernel. Bit-identical to the Gemm
    // path below. `out` is zero-constructed, matching beta == 0.
    std::shared_ptr<const tensor::PackedWeights> packed =
        b->pack_cache.Get(b->value);
    tensor::GemmNNPrepacked(a->value, *packed, 1.0f, &out);
  } else {
    tensor::Gemm(a->value, false, b->value, false, 1.0f, 0.0f, &out);
  }
  return MakeNode(std::move(out), {a, b},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    Node* b = self->parents[1].get();
                    if (a->requires_grad) {
                      // dA += dC * B^T
                      tensor::Gemm(self->grad, false, b->value, true, 1.0f, 1.0f,
                                   &a->grad);
                    }
                    if (b->requires_grad) {
                      // dB += A^T * dC
                      tensor::Gemm(a->value, true, self->grad, false, 1.0f, 1.0f,
                                   &b->grad);
                    }
                  },
                  "matmul");
}

Var Add(const Var& a, const Var& b) {
  SEL_CHECK(a->value.SameShape(b->value));
  return MakeNode(tensor::Add(a->value, b->value), {a, b},
                  [](Node* self) {
                    for (int i = 0; i < 2; ++i) {
                      Node* p = self->parents[i].get();
                      if (p->requires_grad) tensor::Axpy(1.0f, self->grad, &p->grad);
                    }
                  },
                  "add");
}

Var AddRowBroadcast(const Var& m, const Var& row) {
  SEL_CHECK_EQ(row->rows(), 1u);
  SEL_CHECK_EQ(row->cols(), m->cols());
  Matrix out = m->value;
  tensor::AddRowVectorInPlace(&out, row->value);
  return MakeNode(std::move(out), {m, row},
                  [](Node* self) {
                    Node* m = self->parents[0].get();
                    Node* row = self->parents[1].get();
                    if (m->requires_grad) tensor::Axpy(1.0f, self->grad, &m->grad);
                    if (row->requires_grad) {
                      Matrix sums = tensor::ColSums(self->grad);
                      tensor::Axpy(1.0f, sums, &row->grad);
                    }
                  },
                  "add_row");
}

Var Sub(const Var& a, const Var& b) {
  SEL_CHECK(a->value.SameShape(b->value));
  return MakeNode(tensor::Sub(a->value, b->value), {a, b},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    Node* b = self->parents[1].get();
                    if (a->requires_grad) tensor::Axpy(1.0f, self->grad, &a->grad);
                    if (b->requires_grad) tensor::Axpy(-1.0f, self->grad, &b->grad);
                  },
                  "sub");
}

Var Mul(const Var& a, const Var& b) {
  SEL_CHECK(a->value.SameShape(b->value));
  return MakeNode(tensor::Hadamard(a->value, b->value), {a, b},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    Node* b = self->parents[1].get();
                    if (a->requires_grad) {
                      Matrix t = tensor::Hadamard(self->grad, b->value);
                      tensor::Axpy(1.0f, t, &a->grad);
                    }
                    if (b->requires_grad) {
                      Matrix t = tensor::Hadamard(self->grad, a->value);
                      tensor::Axpy(1.0f, t, &b->grad);
                    }
                  },
                  "mul");
}

Var MulColBroadcast(const Var& m, const Var& col) {
  SEL_CHECK_EQ(col->cols(), 1u);
  SEL_CHECK_EQ(col->rows(), m->rows());
  Matrix out = m->value;
  for (size_t r = 0; r < out.rows(); ++r) {
    float s = col->value(r, 0);
    float* row = out.row(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] *= s;
  }
  return MakeNode(std::move(out), {m, col},
                  [](Node* self) {
                    Node* m = self->parents[0].get();
                    Node* col = self->parents[1].get();
                    size_t rows = self->rows(), cols = self->cols();
                    for (size_t r = 0; r < rows; ++r) {
                      const float* g = self->grad.row(r);
                      float s = col->value(r, 0);
                      if (m->requires_grad) {
                        float* mg = m->grad.row(r);
                        for (size_t c = 0; c < cols; ++c) mg[c] += g[c] * s;
                      }
                      if (col->requires_grad) {
                        const float* mv = m->value.row(r);
                        float acc = 0.0f;
                        for (size_t c = 0; c < cols; ++c) acc += g[c] * mv[c];
                        col->grad(r, 0) += acc;
                      }
                    }
                  },
                  "mul_col");
}

Var Scale(const Var& a, float s) {
  return MakeNode(tensor::Scale(a->value, s), {a},
                  [s](Node* self) {
                    Node* a = self->parents[0].get();
                    if (a->requires_grad) tensor::Axpy(s, self->grad, &a->grad);
                  },
                  "scale");
}

Var AddScalar(const Var& a, float s) {
  Matrix out = a->value;
  float* od = out.data();
  for (size_t i = 0; i < out.size(); ++i) od[i] += s;
  return MakeNode(std::move(out), {a},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    if (a->requires_grad) tensor::Axpy(1.0f, self->grad, &a->grad);
                  },
                  "add_scalar");
}

Var Relu(const Var& a) {
  return ElementwiseOp(
      a, "relu", [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
}

Var LeakyRelu(const Var& a, float slope) {
  return ElementwiseOp(
      a, "leaky_relu", [slope](float v) { return v > 0.0f ? v : slope * v; },
      [slope](float v, float) { return v > 0.0f ? 1.0f : slope; });
}

Var Sigmoid(const Var& a) {
  return ElementwiseOp(
      a, "sigmoid",
      [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float o) { return o * (1.0f - o); });
}

Var Tanh(const Var& a) {
  return ElementwiseOp(
      a, "tanh", [](float v) { return std::tanh(v); },
      [](float, float o) { return 1.0f - o * o; });
}

Var Exp(const Var& a) {
  return ElementwiseOp(
      a, "exp", [](float v) { return std::exp(std::min(v, 30.0f)); },
      [](float, float o) { return o; });
}

Var Log(const Var& a) {
  return ElementwiseOp(
      a, "log",
      [](float v) {
        SEL_DCHECK(v > 0.0f);
        return std::log(v);
      },
      [](float v, float) { return 1.0f / v; });
}

Var Softplus(const Var& a) {
  return ElementwiseOp(
      a, "softplus",
      [](float v) {
        // Stable: log(1+e^v) = max(v,0) + log1p(exp(-|v|)).
        return std::max(v, 0.0f) + std::log1p(std::exp(-std::fabs(v)));
      },
      [](float v, float) { return 1.0f / (1.0f + std::exp(-v)); });
}

Var Square(const Var& a) {
  return ElementwiseOp(
      a, "square", [](float v) { return v * v; },
      [](float v, float) { return 2.0f * v; });
}

Var ConcatCols(const Var& a, const Var& b) {
  SEL_CHECK_EQ(a->rows(), b->rows());
  size_t ca = a->cols(), cb = b->cols();
  Matrix out(a->rows(), ca + cb);
  for (size_t r = 0; r < out.rows(); ++r) {
    std::copy(a->value.row(r), a->value.row(r) + ca, out.row(r));
    std::copy(b->value.row(r), b->value.row(r) + cb, out.row(r) + ca);
  }
  return MakeNode(std::move(out), {a, b},
                  [ca, cb](Node* self) {
                    Node* a = self->parents[0].get();
                    Node* b = self->parents[1].get();
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* g = self->grad.row(r);
                      if (a->requires_grad) {
                        float* ag = a->grad.row(r);
                        for (size_t c = 0; c < ca; ++c) ag[c] += g[c];
                      }
                      if (b->requires_grad) {
                        float* bg = b->grad.row(r);
                        for (size_t c = 0; c < cb; ++c) bg[c] += g[ca + c];
                      }
                    }
                  },
                  "concat_cols");
}

Var SliceCols(const Var& a, size_t begin, size_t end) {
  SEL_CHECK(begin <= end && end <= a->cols());
  return MakeNode(a->value.ColSlice(begin, end), {a},
                  [begin, end](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* g = self->grad.row(r);
                      float* ag = a->grad.row(r);
                      for (size_t c = begin; c < end; ++c) ag[c] += g[c - begin];
                    }
                  },
                  "slice_cols");
}

Var Reshape(const Var& a, size_t rows, size_t cols) {
  return MakeNode(a->value.Reshaped(rows, cols), {a},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    // Row-major contiguous: flat accumulate.
                    const float* g = self->grad.data();
                    float* ag = a->grad.data();
                    for (size_t i = 0; i < self->value.size(); ++i) ag[i] += g[i];
                  },
                  "reshape");
}

Var RepeatRows(const Var& row, size_t n) {
  SEL_CHECK_EQ(row->rows(), 1u);
  size_t cols = row->cols();
  Matrix out(n, cols);
  for (size_t r = 0; r < n; ++r) {
    std::copy(row->value.data(), row->value.data() + cols, out.row(r));
  }
  return MakeNode(std::move(out), {row},
                  [](Node* self) {
                    Node* row = self->parents[0].get();
                    if (!row->requires_grad) return;
                    Matrix sums = tensor::ColSums(self->grad);
                    tensor::Axpy(1.0f, sums, &row->grad);
                  },
                  "repeat_rows");
}

Var SumAll(const Var& a) {
  Matrix out(1, 1);
  out(0, 0) = static_cast<float>(a->value.Sum());
  return MakeNode(std::move(out), {a},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    float g = self->grad(0, 0);
                    float* ag = a->grad.data();
                    for (size_t i = 0; i < a->value.size(); ++i) ag[i] += g;
                  },
                  "sum_all");
}

Var MeanAll(const Var& a) {
  size_t n = a->value.size();
  SEL_CHECK_GT(n, 0u);
  return Scale(SumAll(a), 1.0f / static_cast<float>(n));
}

Var RowSums(const Var& a) {
  return MakeNode(tensor::RowSums(a->value), {a},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    for (size_t r = 0; r < a->rows(); ++r) {
                      float g = self->grad(r, 0);
                      float* ag = a->grad.row(r);
                      for (size_t c = 0; c < a->cols(); ++c) ag[c] += g;
                    }
                  },
                  "row_sums");
}

Var CumsumRows(const Var& a) {
  Matrix out = a->value;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    float acc = 0.0f;
    for (size_t c = 0; c < out.cols(); ++c) {
      acc += row[c];
      row[c] = acc;
    }
  }
  return MakeNode(std::move(out), {a},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    // d a[k] = sum_{j >= k} g[j]: reverse suffix sums.
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* g = self->grad.row(r);
                      float* ag = a->grad.row(r);
                      float acc = 0.0f;
                      for (size_t c = self->cols(); c-- > 0;) {
                        acc += g[c];
                        ag[c] += acc;
                      }
                    }
                  },
                  "cumsum_rows");
}

Var SoftmaxRows(const Var& a) {
  Matrix out = a->value;
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    float mx = row[0];
    for (size_t c = 1; c < out.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < out.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (size_t c = 0; c < out.cols(); ++c) row[c] /= sum;
  }
  return MakeNode(std::move(out), {a},
                  [](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* s = self->value.row(r);
                      const float* g = self->grad.row(r);
                      float dot = 0.0f;
                      for (size_t c = 0; c < self->cols(); ++c) dot += g[c] * s[c];
                      float* ag = a->grad.row(r);
                      for (size_t c = 0; c < self->cols(); ++c) {
                        ag[c] += s[c] * (g[c] - dot);
                      }
                    }
                  },
                  "softmax_rows");
}

Var TopKSoftmaxRows(const Var& a, size_t k) {
  size_t rows = a->rows(), cols = a->cols();
  SEL_CHECK(k >= 1 && k <= cols);
  Matrix out(rows, cols);
  auto mask = std::make_shared<std::vector<uint8_t>>(rows * cols, uint8_t{0});
  std::vector<size_t> idx(cols);
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a->value.row(r);
    std::iota(idx.begin(), idx.end(), size_t{0});
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [row](size_t i, size_t j) { return row[i] > row[j]; });
    float mx = row[idx[0]];
    float sum = 0.0f;
    for (size_t i = 0; i < k; ++i) {
      float e = std::exp(row[idx[i]] - mx);
      out(r, idx[i]) = e;
      (*mask)[r * cols + idx[i]] = 1;
      sum += e;
    }
    for (size_t i = 0; i < k; ++i) out(r, idx[i]) /= sum;
  }
  return MakeNode(std::move(out), {a},
                  [mask](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    size_t cols = self->cols();
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* s = self->value.row(r);
                      const float* g = self->grad.row(r);
                      const uint8_t* m = mask->data() + r * cols;
                      float dot = 0.0f;
                      for (size_t c = 0; c < cols; ++c) {
                        if (m[c]) dot += g[c] * s[c];
                      }
                      float* ag = a->grad.row(r);
                      for (size_t c = 0; c < cols; ++c) {
                        if (m[c]) ag[c] += s[c] * (g[c] - dot);
                      }
                    }
                  },
                  "topk_softmax");
}

Var NormL2Rows(const Var& a, float eps) {
  size_t rows = a->rows(), cols = a->cols();
  SEL_CHECK_GT(cols, 0u);
  float pad = eps / static_cast<float>(cols);
  Matrix out(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    const float* av = a->value.row(r);
    float s = eps;
    for (size_t c = 0; c < cols; ++c) s += av[c] * av[c];
    float* ov = out.row(r);
    for (size_t c = 0; c < cols; ++c) ov[c] = (av[c] * av[c] + pad) / s;
  }
  return MakeNode(std::move(out), {a},
                  [eps](Node* self) {
                    Node* a = self->parents[0].get();
                    if (!a->requires_grad) return;
                    size_t cols = self->cols();
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* av = a->value.row(r);
                      const float* ov = self->value.row(r);
                      const float* g = self->grad.row(r);
                      float s = eps;
                      for (size_t c = 0; c < cols; ++c) s += av[c] * av[c];
                      float gdoto = 0.0f;
                      for (size_t c = 0; c < cols; ++c) gdoto += g[c] * ov[c];
                      float* ag = a->grad.row(r);
                      for (size_t c = 0; c < cols; ++c) {
                        ag[c] += (2.0f * av[c] / s) * (g[c] - gdoto);
                      }
                    }
                  },
                  "norml2_rows");
}

Var GroupedLinear(const Var& x, const Var& w, const Var& b) {
  size_t groups = w->rows(), h = w->cols();
  SEL_CHECK_EQ(x->cols(), groups * h);
  SEL_CHECK_EQ(b->rows(), 1u);
  SEL_CHECK_EQ(b->cols(), groups);
  size_t rows = x->rows();
  Matrix out(rows, groups);
  for (size_t r = 0; r < rows; ++r) {
    const float* xv = x->value.row(r);
    float* ov = out.row(r);
    for (size_t g = 0; g < groups; ++g) {
      ov[g] = tensor::Dot(w->value.row(g), xv + g * h, h) + b->value(0, g);
    }
  }
  return MakeNode(std::move(out), {x, w, b},
                  [groups, h](Node* self) {
                    Node* x = self->parents[0].get();
                    Node* w = self->parents[1].get();
                    Node* b = self->parents[2].get();
                    for (size_t r = 0; r < self->rows(); ++r) {
                      const float* g = self->grad.row(r);
                      const float* xv = x->value.row(r);
                      for (size_t gi = 0; gi < groups; ++gi) {
                        float gv = g[gi];
                        if (gv == 0.0f) continue;
                        const float* wrow = w->value.row(gi);
                        if (x->requires_grad) {
                          float* xg = x->grad.row(r) + gi * h;
                          for (size_t c = 0; c < h; ++c) xg[c] += gv * wrow[c];
                        }
                        if (w->requires_grad) {
                          float* wg = w->grad.row(gi);
                          const float* xs = xv + gi * h;
                          for (size_t c = 0; c < h; ++c) wg[c] += gv * xs[c];
                        }
                        if (b->requires_grad) b->grad(0, gi) += gv;
                      }
                    }
                  },
                  "grouped_linear");
}

Var PiecewiseLinearGather(const Var& tau, const Var& p, const Var& t) {
  SEL_CHECK(tau->value.SameShape(p->value));
  SEL_CHECK_EQ(t->cols(), 1u);
  SEL_CHECK_EQ(t->rows(), tau->rows());
  size_t rows = tau->rows(), knots = tau->cols();
  SEL_CHECK_GE(knots, 2u);
  Matrix out(rows, 1);
  // Per-row segment index; -1 = clamped left, knots-1 = clamped right.
  auto seg = std::make_shared<std::vector<int>>(rows);
  for (size_t r = 0; r < rows; ++r) {
    const float* tv = tau->value.row(r);
    const float* pv = p->value.row(r);
    float tr = t->value(r, 0);
    if (tr <= tv[0]) {
      (*seg)[r] = -1;
      out(r, 0) = pv[0];
    } else if (tr >= tv[knots - 1]) {
      (*seg)[r] = static_cast<int>(knots) - 1;
      out(r, 0) = pv[knots - 1];
    } else {
      // Largest i with tau[i] <= tr: linear scan is fine for small knot counts
      // but use binary search to stay O(log L).
      const float* hi = std::upper_bound(tv, tv + knots, tr);
      int i = static_cast<int>(hi - tv);  // tau[i-1] <= tr < tau[i]
      i = std::clamp(i, 1, static_cast<int>(knots) - 1);
      (*seg)[r] = i;
      float a = tv[i - 1], b = tv[i];
      float width = b - a;
      if (width <= 1e-12f) {
        out(r, 0) = pv[i - 1];
      } else {
        float wfrac = (tr - a) / width;
        out(r, 0) = pv[i - 1] + wfrac * (pv[i] - pv[i - 1]);
      }
    }
  }
  return MakeNode(
      std::move(out), {tau, p, t},
      [seg, knots](Node* self) {
        Node* tau = self->parents[0].get();
        Node* p = self->parents[1].get();
        Node* t = self->parents[2].get();
        for (size_t r = 0; r < self->rows(); ++r) {
          float g = self->grad(r, 0);
          if (g == 0.0f) continue;
          int i = (*seg)[r];
          if (i < 0) {
            if (p->requires_grad) p->grad(r, 0) += g;
            continue;
          }
          if (i == static_cast<int>(knots) - 1 &&
              t->value(r, 0) >= tau->value(r, knots - 1)) {
            if (p->requires_grad) p->grad(r, knots - 1) += g;
            continue;
          }
          float a = tau->value(r, i - 1), b = tau->value(r, i);
          float width = b - a;
          if (width <= 1e-12f) {
            if (p->requires_grad) p->grad(r, i - 1) += g;
            continue;
          }
          float tr = t->value(r, 0);
          float wfrac = (tr - a) / width;
          float dp = p->value(r, i) - p->value(r, i - 1);
          if (p->requires_grad) {
            p->grad(r, i - 1) += g * (1.0f - wfrac);
            p->grad(r, i) += g * wfrac;
          }
          if (tau->requires_grad) {
            // dw/da = (t-b)/(b-a)^2, dw/db = -(t-a)/(b-a)^2.
            float inv_w2 = 1.0f / (width * width);
            tau->grad(r, i - 1) += g * dp * (tr - b) * inv_w2;
            tau->grad(r, i) += g * dp * (a - tr) * inv_w2;
          }
        }
      },
      "pwl_gather");
}

namespace {
inline float HuberPrime(float r, float delta) {
  if (r > delta) return delta;
  if (r < -delta) return -delta;
  return r;
}
}  // namespace

Var HuberLogLoss(const Var& yhat, const Var& y, float delta, float eps) {
  SEL_CHECK(yhat->value.SameShape(y->value));
  SEL_CHECK_EQ(yhat->cols(), 1u);
  size_t n = yhat->rows();
  SEL_CHECK_GT(n, 0u);
  Matrix out(1, 1);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    float yv = std::max(y->value(r, 0), 0.0f);
    float yh = std::max(yhat->value(r, 0), 0.0f);
    float res = std::log(yv + eps) - std::log(yh + eps);
    float a = std::fabs(res);
    total += (a <= delta) ? 0.5 * res * res : delta * (a - 0.5 * delta);
  }
  out(0, 0) = static_cast<float>(total / static_cast<double>(n));
  return MakeNode(std::move(out), {yhat, y},
                  [delta, eps, n](Node* self) {
                    Node* yhat = self->parents[0].get();
                    Node* y = self->parents[1].get();
                    if (!yhat->requires_grad) return;
                    float g = self->grad(0, 0) / static_cast<float>(n);
                    for (size_t r = 0; r < n; ++r) {
                      float yv = std::max(y->value(r, 0), 0.0f);
                      float yh = std::max(yhat->value(r, 0), 0.0f);
                      float res = std::log(yv + eps) - std::log(yh + eps);
                      // d res / d yhat = -1 / (yhat + eps); clamp at 0 is
                      // inactive when yhat > 0 (guaranteed by construction).
                      yhat->grad(r, 0) +=
                          g * HuberPrime(res, delta) * (-1.0f / (yh + eps));
                    }
                  },
                  "huber_log_loss");
}

Var HuberLoss(const Var& pred, const Var& target, float delta) {
  SEL_CHECK(pred->value.SameShape(target->value));
  size_t n = pred->value.size();
  SEL_CHECK_GT(n, 0u);
  Matrix out(1, 1);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    float res = pred->value.data()[i] - target->value.data()[i];
    float a = std::fabs(res);
    total += (a <= delta) ? 0.5 * res * res : delta * (a - 0.5 * delta);
  }
  out(0, 0) = static_cast<float>(total / static_cast<double>(n));
  return MakeNode(std::move(out), {pred, target},
                  [delta, n](Node* self) {
                    Node* pred = self->parents[0].get();
                    Node* target = self->parents[1].get();
                    if (!pred->requires_grad) return;
                    float g = self->grad(0, 0) / static_cast<float>(n);
                    for (size_t i = 0; i < n; ++i) {
                      float res = pred->value.data()[i] - target->value.data()[i];
                      pred->grad.data()[i] += g * HuberPrime(res, delta);
                    }
                  },
                  "huber_loss");
}

Var MseLoss(const Var& pred, const Var& target) {
  SEL_CHECK(pred->value.SameShape(target->value));
  size_t n = pred->value.size();
  SEL_CHECK_GT(n, 0u);
  Matrix out(1, 1);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    float d = pred->value.data()[i] - target->value.data()[i];
    total += static_cast<double>(d) * d;
  }
  out(0, 0) = static_cast<float>(total / static_cast<double>(n));
  return MakeNode(std::move(out), {pred, target},
                  [n](Node* self) {
                    Node* pred = self->parents[0].get();
                    Node* target = self->parents[1].get();
                    if (!pred->requires_grad) return;
                    float g = self->grad(0, 0) * 2.0f / static_cast<float>(n);
                    for (size_t i = 0; i < n; ++i) {
                      float d = pred->value.data()[i] - target->value.data()[i];
                      pred->grad.data()[i] += g * d;
                    }
                  },
                  "mse_loss");
}

}  // namespace selnet::ag
