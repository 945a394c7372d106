// Adams-Bashforth-Moulton predictor-corrector (PECE), order 4, with
// adaptive step size — the non-stiff half of the LSODA-style switching
// driver (§3.2.1; Petzold 1983).
//
// Startup and every step-size change rebuild the derivative history with
// RK4 substeps. The local error estimate is the standard Milne device:
// the predictor/corrector difference scaled by the method constant.
#pragma once

#include "omx/ode/sink.hpp"

namespace omx::ode {

struct AdamsOptions {
  Tolerances tol{};
  double h0 = 0.0;  // 0 = automatic
  double hmax = 0.0;
  std::size_t max_steps = 1000000;
  std::size_t record_every = 1;
  /// Polled once per step attempt; throws Cancelled when it reads true.
  const std::atomic<bool>* cancel = nullptr;
};

/// Single-step driver used by the auto-switching solver.
class AdamsStepper {
 public:
  AdamsStepper(const Problem& p, const AdamsOptions& opts);

  /// Initializes (or re-initializes) at (t, y) with step h (0 = auto).
  void restart(double t, std::span<const double> y, double h);

  /// Attempts one step. Returns true when a step was accepted (state
  /// advanced), false when it was rejected (h reduced; call again).
  bool step();

  double t() const { return t_; }
  std::span<const double> y() const { return y_; }
  double h() const { return h_; }
  /// Consecutive rejected attempts since the last acceptance — one
  /// stiffness tell-tale used by the switching heuristic.
  std::size_t consecutive_rejects() const { return consecutive_rejects_; }

  /// Number of "growth bounces": the controller judged the error small
  /// enough to double h, but a step shortly after was rejected with an
  /// exploding estimate — circumstantial stiffness evidence.
  std::size_t growth_bounces() const { return growth_bounces_; }

  /// Directly measures sigma = h * lambda_est, where lambda_est is the
  /// Jacobian's action on the current flow direction (one extra RHS
  /// call). An explicit method that is *accuracy*-limited runs at
  /// sigma << 1; one pinned at its *stability* boundary runs at sigma of
  /// order 1 — the LSODA-style stiffness criterion.
  double stiffness_ratio();

  SolverStats& stats() { return stats_; }

 private:
  void rebuild_history();
  void rk4_step(double t, std::span<const double> y, double h,
                std::span<double> out);

  const Problem& p_;
  AdamsOptions opts_;
  double t_ = 0.0;
  double h_ = 0.0;
  std::vector<double> y_;
  // f history: f_[0] = f(t_n), f_[1] = f(t_{n-1}), ...
  std::vector<std::vector<double>> f_;
  std::size_t consecutive_rejects_ = 0;
  std::size_t steps_since_rebuild_ = 0;
  std::size_t growth_bounces_ = 0;
  bool just_grew_ = false;
  SolverStats stats_;
};

namespace detail {
/// Streaming core: accepted steps flow to `sink` under scenario id
/// `scenario`; the returned statistics are also delivered via finish().
SolverStats adams_pece(const Problem& p, const AdamsOptions& opts,
                       TrajectorySink& sink, std::uint32_t scenario = 0);
}  // namespace detail

}  // namespace omx::ode
