// The multistep driver: one LSODA-style segment loop for kAdamsPece,
// kBdf and kLsodaLike (§3.2.1; Hindmarsh 1983, Petzold 1983).
//
// A solve is a sequence of segments, each run by one stepper: an Adams
// segment (AdamsStepper) or a BDF segment (BdfStepper). Both segment
// loops share the cancel poll, the max_steps budget (counted over the
// whole solve), the event sweep, the record_every cadence, the stats
// merge and publish_solver_stats. kAdamsPece runs one Adams segment,
// kBdf one BDF segment, and kLsodaLike alternates them: an Adams segment
// ends when the explicit method turns out to be stability-limited, a BDF
// segment when Newton converges easily at a comfortably large step.
//
// Internal to the ode layer: the public entry point is ode::solve.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "omx/ode/solve.hpp"

namespace omx::ode::detail {

/// Runs `method` (kAdamsPece, kBdf or kLsodaLike) over `p`: accepted steps
/// flow to `sink` under scenario id `scenario`; the returned statistics
/// are also delivered via finish().
SolverStats solve_multistep(const Problem& p, Method method,
                            const SolverOptions& opts, TrajectorySink& sink,
                            std::uint32_t scenario);

/// A segment's first step: `h` when > 0, else Hairer's d0/d1 heuristic
/// at (t, y), h ~ 1% of the solution's time scale ||y||_w / ||y'||_w
/// (one RHS call, counted into `stats`); capped at `hmax`.
double start_step(const Problem& p, double t, std::span<const double> y,
                  double h, const Tolerances& tol, double hmax,
                  SolverStats& stats);

/// Advances y from t by `sub` classical RK4 substeps of h / sub over
/// p.rhs (4 calls each, counted into `stats`) and returns the time the
/// substeps accumulated. The start-up and final-interval steps of both
/// multistep families.
double rk4_substeps(const Problem& p, double t, std::vector<double>& y,
                    double h, int sub, SolverStats& stats);

}  // namespace omx::ode::detail
