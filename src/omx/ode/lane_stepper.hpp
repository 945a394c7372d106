// Lane steppers: the one implementation of each explicit method
// (kExplicitEuler, kRk4, kDopri5).
//
// A stepper integrates a set of lanes (scenarios) in lockstep: one
// round() is one step attempt for every lane, with each stage's RHS
// evaluations fused into one call. Every lane keeps its own t, h, error
// history, event state and statistics. ode::solve runs a stepper with one
// lane over the scalar Problem::rhs; ode::solve_ensemble runs one per
// worker over the batched kernel. Because both run the same code, and
// batched kernels are lane-independent (exec::RhsKernel), a scenario's
// trajectory is bitwise the same at every batch width.
//
// Internal to the ode layer: the public entry points are ode::solve and
// ode::solve_ensemble.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "omx/ode/solve.hpp"

namespace omx::ode {

/// The owner of a stepper's lanes, told about every lane that leaves.
/// Ensemble accounting (lane counters, the active gauge, lane recorder
/// events) lives here, outside the stepper, so a plain solve moves no
/// ensemble metric.
class LaneOwner {
 public:
  /// The lane finished: it reached tend, or a terminal event stopped it
  /// at `t` (`at_event`). Called after the stats are published and
  /// before the sink's finish().
  virtual void retired(std::uint32_t scenario, const SolverStats& stats,
                       bool at_event, double t) = 0;
  /// abandon_all() dropped the lane at `t`; finish() is never sent.
  virtual void abandoned(std::uint32_t /*scenario*/, double /*t*/) {}

 protected:
  ~LaneOwner() = default;
};

class LaneStepper {
 public:
  virtual ~LaneStepper() = default;
  LaneStepper(const LaneStepper&) = delete;
  LaneStepper& operator=(const LaneStepper&) = delete;

  /// Starts a lane at (p.t0, y0) and records its initial row. A lane
  /// with nothing to integrate (tend == t0) retires at once.
  virtual void add(std::uint32_t scenario, std::span<const double> y0) = 0;
  /// One step attempt for every lane; finished lanes retire.
  virtual void round() = 0;
  virtual std::size_t active() const = 0;
  /// Drops every lane (cancellation): partial chunks are abandoned.
  virtual void abandon_all() = 0;

  const char* method_name() const { return to_string(method_); }

 protected:
  explicit LaneStepper(Method method) : method_(method) {}
  Method method_;
};

/// Builds the stepper for an explicit `method`. Trajectories stream to
/// `sink`. Without `batch` every evaluation goes through `p.rhs`;
/// with it, rounds of more than one lane call `batch` on workspace
/// `lane` and single-lane rounds call it at width 1. `p`, `o`, `sink`
/// and `owner` must outlive the stepper.
std::unique_ptr<LaneStepper> make_lane_stepper(
    const Problem& p, Method method, const SolverOptions& o,
    TrajectorySink& sink, LaneOwner& owner, BatchRhsFn batch = nullptr,
    std::size_t lane = 0);

}  // namespace omx::ode
