#include "omx/ode/solve.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "omx/obs/trace.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/lane_stepper.hpp"
#include "omx/ode/multistep.hpp"
#include "omx/support/timer.hpp"
#include "omx/tune/autotuner.hpp"

namespace omx::ode {

namespace {

/// Stiff-path tune context: resolves the factorization backend up front
/// (attaching the shared jac plan the solver would build anyway) so the
/// measured run can be recorded against the right cost curve, and in
/// `on` mode overrides jac_threads from the fitted model.
struct StiffTuneScope {
  Problem tuned;
  SolverOptions opts;
  bool sparse = false;
  Stopwatch timer;

  StiffTuneScope(const Problem& p, const SolverOptions& o)
      : tuned(p), opts(o) {
    if (!tuned.jac_plan) {
      tuned.jac_plan = make_jac_plan(tuned);
    }
    sparse = tuned.jac_plan && tuned.jac_plan->use_sparse;
    if (tune::mode() == tune::Mode::kOn) {
      const int hw = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
      if (const std::optional<tune::StiffConfig> cfg =
              tune::AutoTuner::global().pick_stiff(p.n, hw)) {
        opts.jac_threads = std::max(1, cfg->jac_threads);
      }
    }
  }

  void record() {
    tune::AutoTuner::global().record_stiff(
        {tuned.n, sparse, opts.jac_threads, timer.seconds()});
  }
};

/// The explicit methods: their lane stepper with one lane over the
/// scalar rhs (Problem::batch_rhs is for ensembles only).
SolverStats solve_explicit(const Problem& p, Method method,
                           const SolverOptions& o, TrajectorySink& sink,
                           std::uint32_t scenario) {
  struct Single final : LaneOwner {
    SolverStats stats;
    void retired(std::uint32_t, const SolverStats& s, bool,
                 double) override {
      stats = s;
    }
  };
  p.validate();
  obs::Span solve_span(to_string(method), "ode");
  Single owner;
  const std::unique_ptr<LaneStepper> stepper =
      make_lane_stepper(p, method, o, sink, owner);
  stepper->add(scenario, p.y0);
  while (stepper->active() > 0) {
    poll_cancel(o.cancel, to_string(method));
    stepper->round();
  }
  return owner.stats;
}

}  // namespace

SolverStats solve(const Problem& p, Method method, const SolverOptions& o,
                  TrajectorySink& sink, std::uint32_t scenario) {
  switch (method) {
    case Method::kExplicitEuler:
    case Method::kRk4:
    case Method::kDopri5:
      return solve_explicit(p, method, o, sink, scenario);
    case Method::kAdamsPece:
      return detail::solve_multistep(p, method, o, sink, scenario);
    case Method::kBdf:
    case Method::kLsodaLike: {
      if (tune::mode() == tune::Mode::kOff) {
        return detail::solve_multistep(p, method, o, sink, scenario);
      }
      StiffTuneScope scope(p, o);
      const SolverStats st = detail::solve_multistep(
          scope.tuned, method, scope.opts, sink, scenario);
      scope.record();
      return st;
    }
  }
  throw omx::Bug("unknown ode::Method");
}

Solution solve(const Problem& p, Method method, const SolverOptions& o) {
  SolutionSink sink;
  solve(p, method, o, sink);
  return sink.take();
}

}  // namespace omx::ode
