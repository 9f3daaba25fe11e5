#include "autograd/gradcheck.h"

#include <cmath>

#include "util/check.h"

namespace selnet::ag {

double MaxGradError(const std::vector<Var>& params,
                    const std::function<Var()>& loss_fn, double eps,
                    double /*tol*/) {
  // Analytic pass.
  ZeroGrad(params);
  Var loss = loss_fn();
  Backward(loss);
  std::vector<tensor::Matrix> analytic;
  analytic.reserve(params.size());
  for (const auto& p : params) analytic.push_back(p->grad);

  double max_err = 0.0;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Var p = params[pi];
    // Every in-place write must drop the leaf's cached GEMM pack, or the
    // next forward pass would still multiply by the unperturbed weights.
    auto set = [&p](size_t i, float v) {
      p->value.data()[i] = v;
      p->pack_cache.Invalidate();
    };
    for (size_t i = 0; i < p->value.size(); ++i) {
      float orig = p->value.data()[i];
      set(i, orig + static_cast<float>(eps));
      double lp = loss_fn()->value(0, 0);
      set(i, orig - static_cast<float>(eps));
      double lm = loss_fn()->value(0, 0);
      set(i, orig);
      double numeric = (lp - lm) / (2.0 * eps);
      double a = analytic[pi].data()[i];
      double err = std::fabs(a - numeric) / std::max(1.0, std::fabs(numeric));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

}  // namespace selnet::ag
