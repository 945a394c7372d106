// Backward differentiation formulas (orders 1-5) with modified Newton —
// the stiff method family of LSODA/ODEPACK (§3.2.1; Hindmarsh 1983).
//
// The implementation uses uniform-step BDF with automatic order ramp-up:
// after every (re)start or step-size change the history is reset and the
// order climbs 1 -> target as uniform points accumulate; this is the
// classical fixed-leading-coefficient strategy in its simplest robust
// form. The iteration matrix I - h*beta*J lives in a JacobianEngine:
// factorizations are reused across Newton iterations and steps, a
// beta*h change alone refactors with the existing Jacobian values, and
// only divergence, slow convergence, or age re-evaluates the Jacobian
// (LSODA-style; see ode/jacobian.hpp). The multistep driver
// (ode/multistep.hpp) runs the segment loop.
#pragma once

#include "omx/ode/events.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/solve.hpp"

namespace omx::ode {

class BdfStepper {
 public:
  /// Starts at (p.t0, p.y0) with step opts.bdf_fixed_h when > 0 (fixed-
  /// step mode), else opts.h0 (0 = automatic). Reads opts.tol, hmax,
  /// bdf_max_order, newton_max_iters and jac_threads.
  BdfStepper(const Problem& p, const SolverOptions& opts);

  void restart(double t, std::span<const double> y, double h);

  /// Attempts one step; true = accepted.
  bool step();

  double t() const { return t_; }
  std::span<const double> y() const { return history_.front(); }
  double h() const { return h_; }
  /// Newton iterations used by the last accepted step (fast convergence
  /// signals the problem is no longer stiff — switch-back heuristic).
  std::size_t last_newton_iters() const { return last_newton_iters_; }

  /// Dense output over the step just accepted: Lagrange evaluation of
  /// the uniform history (the BDF interpolating polynomial the corrector
  /// itself is built on). Valid immediately after step() returns true —
  /// event localization is its consumer.
  DenseOutput last_step_dense() const {
    return DenseOutput::lagrange(t_, last_node_h_, history_,
                                 last_dense_points_);
  }

  SolverStats& stats() { return stats_; }

 private:
  bool newton_solve(double t1, std::span<const double> predictor,
                    std::span<const double> rhs_const, double beta_h,
                    std::span<double> out);

  const Problem& p_;
  SolverOptions opts_;
  double hmax_;  // resolved: opts.hmax, or p.tend - p.t0 when 0
  JacobianEngine jac_engine_;

  double t_ = 0.0;
  double h_ = 0.0;
  int order_ = 1;  // current ramped order
  // history_[0] = y_n, history_[1] = y_{n-1}, ...
  std::vector<std::vector<double>> history_;
  // Node spacing / count for last_step_dense(), refreshed per accepted
  // step (growth subsampling changes the spacing after the insert).
  double last_node_h_ = 0.0;
  std::size_t last_dense_points_ = 2;
  std::size_t last_newton_iters_ = 0;
  SolverStats stats_;
};

}  // namespace omx::ode
