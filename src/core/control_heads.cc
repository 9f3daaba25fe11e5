#include "core/control_heads.h"

#include <utility>

#include "nn/init.h"
#include "tensor/blas.h"
#include "util/check.h"

namespace selnet::core {

ControlHeads::ControlHeads(const HeadsConfig& cfg, util::Rng* rng) : cfg_(cfg) {
  SEL_CHECK_GT(cfg.input_dim, 0u);
  SEL_CHECK_GE(cfg.num_control, 1u);
  size_t l = cfg.num_control;
  tau_net_ = nn::Mlp({cfg.input_dim, cfg.tau_hidden, cfg.tau_hidden, l + 1}, rng);
  p_net_ = nn::Mlp({cfg.input_dim, cfg.p_hidden, cfg.p_hidden, cfg.p_hidden,
                    (l + 2) * cfg.embed_h},
                   rng);
  pw_ = ag::Param(rng == nullptr ? tensor::Matrix(l + 2, cfg.embed_h)
                                 : nn::XavierUniform(l + 2, cfg.embed_h, rng));
  pb_ = ag::Param(tensor::Matrix(1, l + 2, 0.01f));
}

bool ControlHeads::AddParamFloats(const HeadsConfig& cfg, uint64_t* total) {
  // The tau-net, p-net, pw ((L + 2) x H) and pb (1 x (L + 2)) the
  // constructor above builds.
  const uint64_t l = cfg.num_control;
  uint64_t knots = 0, p_out = 0;
  if (__builtin_add_overflow(l, 2, &knots) ||
      __builtin_mul_overflow(knots, uint64_t{cfg.embed_h}, &p_out)) {
    return false;
  }
  return nn::Mlp::AddParamFloats(
             {cfg.input_dim, cfg.tau_hidden, cfg.tau_hidden, l + 1}, total) &&
         nn::Mlp::AddParamFloats({cfg.input_dim, cfg.p_hidden, cfg.p_hidden,
                                  cfg.p_hidden, p_out},
                                 total) &&
         !__builtin_add_overflow(*total, p_out, total) &&
         !__builtin_add_overflow(*total, knots, total);
}

ControlHeads::ControlHeads(ControlHeads&& other) noexcept
    : cfg_(std::move(other.cfg_)),
      tau_net_(std::move(other.tau_net_)),
      p_net_(std::move(other.p_net_)),
      pw_(std::move(other.pw_)),
      pb_(std::move(other.pb_)) {}

ControlHeads& ControlHeads::operator=(ControlHeads&& other) noexcept {
  cfg_ = std::move(other.cfg_);
  tau_net_ = std::move(other.tau_net_);
  p_net_ = std::move(other.p_net_);
  pw_ = std::move(other.pw_);
  pb_ = std::move(other.pb_);
  InvalidateInferenceCache();
  return *this;
}

ag::Var ControlHeads::ForwardTau(const ag::Var& input) const {
  size_t batch = input->rows();
  ag::Var tau_in = input;
  if (!cfg_.query_dependent_tau) {
    // Ablation: constant input makes the knot layout query-independent.
    tau_in = ag::Constant(tensor::Matrix::Ones(batch, cfg_.input_dim));
  }
  ag::Var tau_raw = tau_net_.Forward(tau_in);                // B x (L+1)
  // Either simplex map keeps increments positive, so monotonicity holds for
  // both; they differ in how evenly they partition [0, tmax] (Section 5.2).
  ag::Var incr = cfg_.softmax_tau ? ag::SoftmaxRows(tau_raw)
                                  : ag::NormL2Rows(tau_raw);
  ag::Var cum = ag::CumsumRows(ag::Scale(incr, cfg_.tmax));  // tau_1..tau_{L+1}
  ag::Var zero = ag::Constant(tensor::Matrix(batch, 1));
  return ag::ConcatCols(zero, cum);                          // B x (L+2)
}

ControlHeads::Out ControlHeads::Forward(const ag::Var& input) const {
  ag::Var tau = ForwardTau(input);
  ag::Var h = p_net_.Forward(input);                         // B x (L+2)*H
  ag::Var k = ag::Relu(ag::GroupedLinear(h, pw_, pb_));      // increments >= 0
  ag::Var p = ag::CumsumRows(k);                             // monotone values
  return {tau, p};
}

std::shared_ptr<const ControlHeads::FoldedTail> ControlHeads::GetFoldedTail()
    const {
  std::shared_ptr<const FoldedTail> cached = std::atomic_load(&fold_cache_);
  // Generation check at read time: a fold published by a builder that raced
  // an invalidation carries a stale generation and is rebuilt instead of
  // served (see FoldedTail::generation).
  if (cached && cached->generation == fold_gen_.load()) return cached;
  // The generation is sampled before reading the weights; if an
  // invalidation lands during the build, the stale result is returned for
  // this call (the caller raced the mutation anyway) but never served.
  uint64_t gen = fold_gen_.load();
  // The fold below is exact only because the output layer is linear.
  SEL_CHECK(p_net_.output_activation() == nn::Activation::kNone);
  // Fold (output layer of p_net_) . (GroupedLinear) into one affine map:
  //   k_pre[:, g] = a . Wf[:, g] + bf[g]
  //   Wf[i][g] = sum_j W4[i][g*H + j] * pw[g][j]
  //   bf[g]    = sum_j b4[g*H + j] * pw[g][j] + pb[g]
  const nn::Linear& out_layer = p_net_.output_layer();
  const tensor::Matrix& w4 = out_layer.weight()->value;  // p_hidden x (L+2)*H
  const tensor::Matrix& b4 = out_layer.bias()->value;    // 1 x (L+2)*H
  const tensor::Matrix& pw = pw_->value;                 // (L+2) x H
  const tensor::Matrix& pb = pb_->value;                 // 1 x (L+2)
  size_t groups = pw.rows(), h = pw.cols(), hidden = w4.rows();
  tensor::Matrix wf(hidden, groups);
  for (size_t i = 0; i < hidden; ++i) {
    const float* w4_row = w4.row(i);
    float* wf_row = wf.row(i);
    for (size_t g = 0; g < groups; ++g) {
      wf_row[g] = tensor::Dot(w4_row + g * h, pw.row(g), h);
    }
  }
  tensor::Matrix bf(1, groups);
  for (size_t g = 0; g < groups; ++g) {
    bf(0, g) = tensor::Dot(b4.data() + g * h, pw.row(g), h) + pb(0, g);
  }
  auto fold = std::make_shared<FoldedTail>();
  fold->wf = ag::Constant(std::move(wf));
  fold->bf = ag::Constant(std::move(bf));
  fold->generation = gen;
  std::shared_ptr<const FoldedTail> built = std::move(fold);
  if (fold_gen_.load() == gen) std::atomic_store(&fold_cache_, built);
  return built;
}

void ControlHeads::InvalidateInferenceCache() const {
  // Bump the generation BEFORE clearing so an in-flight build that started
  // earlier fails its generation check and cannot republish a stale fold.
  fold_gen_.fetch_add(1);
  std::atomic_store(&fold_cache_,
                    std::shared_ptr<const FoldedTail>(nullptr));
  // Pack-cache generation rides the fold generation: any weight mutation
  // that staled the fold also staled the packed panels of these parameters.
  // (The folded tail's own pack dies with its Constant nodes above.)
  if (pw_) ag::InvalidatePackCaches(Params());
}

ControlHeads::Out ControlHeads::ForwardInference(const ag::Var& input) const {
  ag::Var tau = ForwardTau(input);
  ag::Var a = p_net_.ForwardHidden(input);  // B x p_hidden
  std::shared_ptr<const FoldedTail> fold = GetFoldedTail();
  ag::Var k_pre = ag::AddRowBroadcast(ag::MatMul(a, fold->wf), fold->bf);
  ag::Var p = ag::CumsumRows(ag::Relu(k_pre));
  return {tau, p};
}

std::vector<ag::Var> ControlHeads::Params() const {
  std::vector<ag::Var> out = tau_net_.Params();
  for (const auto& v : p_net_.Params()) out.push_back(v);
  out.push_back(pw_);
  out.push_back(pb_);
  return out;
}

}  // namespace selnet::core
