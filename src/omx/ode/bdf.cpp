#include "omx/ode/bdf.hpp"

#include <algorithm>
#include <cmath>

#include "omx/obs/recorder.hpp"
#include "omx/ode/multistep.hpp"

namespace omx::ode {

namespace {

// Uniform-grid BDF-k:  y_{n+1} = sum_{i=1..k} a[i-1] * y_{n+1-i}
//                               + beta * h * f(t_{n+1}, y_{n+1}).
struct BdfCoeffs {
  double a[5];
  double beta;
};

const BdfCoeffs kBdf[5] = {
    {{1.0, 0, 0, 0, 0}, 1.0},
    {{4.0 / 3, -1.0 / 3, 0, 0, 0}, 2.0 / 3},
    {{18.0 / 11, -9.0 / 11, 2.0 / 11, 0, 0}, 6.0 / 11},
    {{48.0 / 25, -36.0 / 25, 16.0 / 25, -3.0 / 25, 0}, 12.0 / 25},
    {{300.0 / 137, -300.0 / 137, 200.0 / 137, -75.0 / 137, 12.0 / 137},
     60.0 / 137},
};

/// Lagrange extrapolation of the k+1 most recent uniform history points to
/// the next grid point (the Newton predictor and error reference).
void extrapolate(const std::vector<std::vector<double>>& hist, int points,
                 std::span<double> out) {
  // Uniform nodes x = 0 (newest), -1, -2, ...; evaluate at x = +1.
  // Coefficients are binomial: sum_{j} (-1)^j C(points, j+1) ... simplest
  // closed forms for the small orders used here.
  static const double kExtrap[5][5] = {
      {1, 0, 0, 0, 0},
      {2, -1, 0, 0, 0},
      {3, -3, 1, 0, 0},
      {4, -6, 4, -1, 0},
      {5, -10, 10, -5, 1},
  };
  const std::size_t n = out.size();
  const double* c = kExtrap[points - 1];
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < points; ++j) {
      acc += c[j] * hist[static_cast<std::size_t>(j)][i];
    }
    out[i] = acc;
  }
}

}  // namespace

BdfStepper::BdfStepper(const Problem& p, const SolverOptions& opts)
    : p_(p),
      opts_(opts),
      hmax_(opts.hmax > 0.0 ? opts.hmax : p.tend - p.t0),
      jac_engine_(p, opts.jac_threads) {
  OMX_REQUIRE(opts_.bdf_max_order >= 1 && opts_.bdf_max_order <= 5,
              "BDF order must be in 1..5");
  restart(p.t0, p.y0, opts.bdf_fixed_h > 0.0 ? opts.bdf_fixed_h : opts.h0);
}

void BdfStepper::restart(double t, std::span<const double> y, double h) {
  t_ = t;
  history_.clear();
  history_.emplace_back(y.begin(), y.end());
  order_ = 1;
  jac_engine_.invalidate();
  h_ = detail::start_step(p_, t_, y, h, opts_.tol, hmax_, stats_);

  if (opts_.bdf_fixed_h > 0.0 && opts_.bdf_max_order > 1) {
    // Fixed-step mode: bootstrap an accurate uniform history with finely
    // sub-stepped RK4 so every subsequent step is pure order-k BDF (the
    // convergence-order tests rely on this).
    std::vector<double> ycur(history_.front());
    for (int m = 1; m < opts_.bdf_max_order; ++m) {
      detail::rk4_substeps(p_, t_, ycur, h_, 20, stats_);
      t_ += h_;
      ++stats_.steps;
      history_.insert(history_.begin(), ycur);
    }
    order_ = opts_.bdf_max_order;
  }
}

bool BdfStepper::newton_solve(double t1, std::span<const double> predictor,
                              std::span<const double> rhs_const,
                              double beta_h, std::span<double> out) {
  const std::size_t n = p_.n;
  std::vector<double> y1(predictor.begin(), predictor.end());
  std::vector<double> f(n), g(n), dy(n), w(n);
  error_weights(predictor, opts_.tol, w);

  la::LinearSolver* solver = &jac_engine_.prepare(t1, y1, beta_h, stats_);

  bool refreshed_this_call = false;
  double prev_norm = std::numeric_limits<double>::infinity();
  for (std::size_t it = 0; it < opts_.newton_max_iters; ++it) {
    p_.rhs(t1, y1, f);
    ++stats_.rhs_calls;
    ++stats_.newton_iters;
    last_newton_iters_ = it + 1;
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = y1[i] - beta_h * f[i] - rhs_const[i];
    }
    solver->solve(g, dy);
    for (std::size_t i = 0; i < n; ++i) {
      y1[i] -= dy[i];
    }
    const double dn = la::wrms_norm(dy, w);
    if (dn < 0.01) {  // displacement well below the error tolerance scale
      std::copy(y1.begin(), y1.end(), out.begin());
      return true;
    }
    if (dn > prev_norm && !refreshed_this_call) {
      // Diverging: refresh Jacobian at the current iterate once.
      jac_engine_.force_refresh();
      solver = &jac_engine_.prepare(t1, y1, beta_h, stats_);
      refreshed_this_call = true;
      prev_norm = std::numeric_limits<double>::infinity();
      continue;
    }
    prev_norm = dn;
  }
  return false;
}

bool BdfStepper::step() {
  const std::size_t n = p_.n;
  const bool fixed = opts_.bdf_fixed_h > 0.0;
  const double rem = p_.tend - t_;
  // Treat a remainder within roundoff of h_ as a full step.
  const bool full_step = rem >= h_ * (1.0 - 1e-9);
  const double h = full_step ? std::min(h_, rem) : rem;
  const bool clipped = !full_step;
  if (fixed && clipped) {
    // Fixed-step mode exists for order measurements: finish the partial
    // final interval with finely sub-stepped RK4 so its error cannot
    // contaminate the BDF-k convergence order.
    std::vector<double> ycur(history_.front());
    detail::rk4_substeps(p_, t_, ycur, h, 20, stats_);
    t_ = p_.tend;
    history_.insert(history_.begin(), ycur);
    ++stats_.steps;
    last_node_h_ = h;
    last_dense_points_ = 2;
    return true;
  }
  // Clipping the final step changes the grid spacing; drop to order 1
  // (backward Euler) for that step, which needs no uniform history.
  const int k = clipped ? 1 : order_;
  const BdfCoeffs& c = kBdf[k - 1];
  const double beta_h = c.beta * h;

  // rhs_const = sum a_i y_{n+1-i}; predictor = extrapolation.
  std::vector<double> rhs_const(n, 0.0), predictor(n), ynew(n), w(n);
  for (int i = 0; i < k; ++i) {
    const auto& yi = history_[static_cast<std::size_t>(i)];
    for (std::size_t j = 0; j < n; ++j) {
      rhs_const[j] += c.a[i] * yi[j];
    }
  }
  extrapolate(history_, std::min<int>(k + 1,
                                      static_cast<int>(history_.size())),
              predictor);

  if (!newton_solve(t_ + h, predictor, rhs_const, beta_h, ynew)) {
    // Newton failed: refresh everything with a smaller step.
    ++stats_.rejected;
    obs::record_step(obs::StepEventKind::kNewtonFail, "bdf",
                     static_cast<std::uint16_t>(k), t_, h, 0.0);
    h_ *= 0.25;
    jac_engine_.invalidate();
    if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
      throw omx::Error("bdf: Newton failure with vanishing step at t = " +
                       std::to_string(t_));
    }
    history_.resize(1);
    order_ = 1;
    return false;
  }

  // Error estimate: difference between corrector and predictor, scaled by
  // the method constant ~ 1/(k+1).
  double err = 0.0;
  if (!fixed) {
    std::vector<double> diff(n);
    for (std::size_t i = 0; i < n; ++i) {
      diff[i] = (ynew[i] - predictor[i]) / static_cast<double>(k + 1);
    }
    error_weights(ynew, opts_.tol, w);
    err = la::wrms_norm(diff, w);
    // During the order ramp the extrapolation predictor is one order lower
    // than the corrector, so the difference overestimates the local error;
    // de-weight it rather than thrash on spurious rejections.
    if (history_.size() == 1) {
      err = std::min(err, 0.5);
    } else if (static_cast<int>(history_.size()) < k + 1) {
      err *= 0.25;
    }
  }

  if (fixed || err <= 1.0) {
    t_ += h;
    history_.insert(history_.begin(), ynew);
    if (history_.size() > 6) {
      history_.pop_back();
    }
    if (!clipped && order_ < opts_.bdf_max_order &&
        static_cast<int>(history_.size()) > order_) {
      ++order_;
    }
    ++stats_.steps;
    obs::record_step(obs::StepEventKind::kStepAccepted, "bdf",
                     static_cast<std::uint16_t>(k), t_, h, err);
    jac_engine_.on_step_accepted(last_newton_iters_);
    // Step growth: double h by SUBSAMPLING the uniform history (every
    // second point is exactly a history at spacing 2h) — no reset, no
    // interpolation error, no order collapse.
    if (!fixed && !clipped) {
      const double fac =
          0.9 * std::pow(std::max(err, 1e-10), -1.0 / (k + 1));
      if (fac > 2.0 && rem > 8.0 * h_ && history_.size() >= 3 &&
          2.0 * h_ <= hmax_) {
        std::vector<std::vector<double>> subsampled;
        for (std::size_t i = 0; i < history_.size(); i += 2) {
          subsampled.push_back(history_[i]);
        }
        history_ = std::move(subsampled);
        h_ *= 2.0;
        order_ = std::min<int>(order_,
                               static_cast<int>(history_.size()));
        // No invalidate: the beta*h change alone makes the next
        // prepare() refactor, reusing the still-fresh Jacobian values.
      }
    }
    // Refresh the dense-output node geometry after any subsampling: the
    // history is uniform at the CURRENT h_, and a clipped final step
    // only guarantees its own two endpoints.
    if (clipped) {
      last_node_h_ = h;
      last_dense_points_ = 2;
    } else {
      last_node_h_ = h_;
      last_dense_points_ = std::min<std::size_t>(
          static_cast<std::size_t>(k) + 1, history_.size());
    }
    return true;
  }

  ++stats_.rejected;
  obs::record_step(obs::StepEventKind::kStepRejected, "bdf",
                   static_cast<std::uint16_t>(k), t_, h, err);
  h_ *= std::clamp(0.9 * std::pow(err, -1.0 / (k + 1)), 0.1, 0.5);
  history_.resize(1);
  order_ = 1;
  jac_engine_.invalidate();
  if (h_ < 1e-14 * std::max(1.0, std::fabs(t_))) {
    throw omx::Error("bdf: step size underflow at t = " + std::to_string(t_));
  }
  return false;
}

}  // namespace omx::ode
