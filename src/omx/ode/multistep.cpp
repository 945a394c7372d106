#include "omx/ode/multistep.hpp"

#include <algorithm>
#include <string>

#include "omx/obs/recorder.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/adams.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/events.hpp"
#include "omx/ode/jacobian.hpp"

namespace omx::ode::detail {

namespace {

// kLsodaLike switching thresholds. The heuristic is deliberately simple
// (a measured stiffness ratio and step-size collapse rather than LSODA's
// method-order cost comparison) but shows the same qualitative behaviour
// on stiff/non-stiff transitions.
//
// Adams -> BDF, primary detector: every kStiffnessCheckInterval accepted
// Adams steps, measure sigma = h * lambda_est (see
// AdamsStepper::stiffness_ratio); kStiffSigmaConfirmations consecutive
// readings above kStiffSigma mean the explicit method is stability-limited.
constexpr std::size_t kStiffnessCheckInterval = 20;
constexpr double kStiffSigma = 0.8;
constexpr std::size_t kStiffSigmaConfirmations = 2;
// Fallbacks: the Adams step collapses below kStiffHFraction * span once
// the controller had kAdamsWarmupSteps accepted steps to grow the
// deliberately conservative automatic initial step, or
// kStiffRejectLimit attempts in a row are rejected.
constexpr double kStiffHFraction = 1e-5;
constexpr std::size_t kAdamsWarmupSteps = 48;
constexpr std::size_t kStiffRejectLimit = 8;
// BDF -> Adams: Newton converges in <= 2 iterations at h above
// kNonstiffHFraction * span kNonstiffStreak accepted steps in a row.
constexpr double kNonstiffHFraction = 1e-3;
constexpr std::size_t kNonstiffStreak = 20;

/// Post-step event sweep of both segment loops: checks the jump the
/// stepper just made, and on a hit records the pre/post rows, restarts
/// the stepper at the post-reset state (history truncation + Jacobian
/// invalidation live in restart()), then repeats over the restart's own
/// forward jump — Adams history rebuilds advance time, so one event can
/// expose another.
/// Returns true when a terminal event stops the integration (the event
/// rows are already recorded; the stepper is NOT restarted).
template <typename Stepper, typename MakeDense>
bool sweep_stepper_events(EventHandler& ev, Stepper& stepper,
                          const char* method, double t_prev,
                          std::vector<double>& y_prev, TrajectoryWriter& rec,
                          MakeDense make_dense) {
  while (ev.armed() && stepper.t() > t_prev) {
    const EventHandler::Hit hit =
        ev.check(t_prev, stepper.t(), stepper.y(), method, stepper.stats(),
                 [&] { return make_dense(t_prev, y_prev); });
    if (!hit.fired) {
      return false;
    }
    rec.append(hit.t, ev.pre_state());
    rec.append(hit.t, ev.post_state());
    if (hit.terminal) {
      return true;
    }
    t_prev = hit.t;
    y_prev.assign(ev.post_state().begin(), ev.post_state().end());
    stepper.restart(t_prev, y_prev, 0.0);
  }
  return false;
}

/// One solve's state shared by its segments: the trajectory writer, the
/// event handler (cached guard signs survive method switches, so a
/// crossing straddling a switch point still fires), the solve-wide
/// step budget and record cadence, and the merged statistics.
class Run {
 public:
  Run(const Problem& p, const SolverOptions& opts, const char* name,
      TrajectorySink& sink, std::uint32_t scenario)
      : p_(p),
        opts_(opts),
        name_(name),
        rec_(sink, scenario, p.n),
        events_(p.events, p.n),
        t_(p.t0),
        y_(p.y0),
        yprev_(p.n) {
    rec_.append(p.t0, p.y0);
    if (events_.armed()) {
      events_.prime(p.t0, p.y0);
    }
  }

  /// Runs one Adams segment from the current state with `o`. With
  /// `detect_stiffness`, probes for stiffness and returns true when the
  /// segment switched to BDF before tend; otherwise runs to tend (or a
  /// terminal event) and returns false.
  bool adams(const SolverOptions& o, bool detect_stiffness);

  /// Runs one BDF segment from the current state with `o`. With
  /// `detect_relaxation`, returns true when the segment ended before tend
  /// because the problem is no longer stiff.
  bool bdf(const SolverOptions& o, bool detect_relaxation);

  SolverStats finish() {
    publish_solver_stats(stats_);
    rec_.finish(stats_);
    return stats_;
  }

 private:
  /// One step attempt against the solve's budget and cancel flag.
  void attempt() {
    poll_cancel(opts_.cancel, name_);
    if (++attempts_ > opts_.max_steps) {
      throw omx::Error(std::string(name_) + ": max_steps exceeded");
    }
  }

  /// Counts an accepted step; records it on the record_every cadence and
  /// at tend unless `skip_row`.
  template <typename Stepper>
  void accepted(const Stepper& s, bool skip_row) {
    ++accepted_;
    if (!skip_row &&
        (accepted_ % opts_.record_every == 0 || s.t() >= p_.tend)) {
      rec_.append(s.t(), s.y());
    }
  }

  /// Ends a segment: merges its statistics and takes over its state.
  template <typename Stepper>
  void end_segment(Stepper& s) {
    stats_ += s.stats();
    t_ = s.t();
    y_.assign(s.y().begin(), s.y().end());
  }

  /// Counts and records a switch to `to`, leaving a segment at step h.
  void switched(const char* to, double h) {
    ++stats_.method_switches;
    obs::record_step(obs::StepEventKind::kMethodSwitch, to, 0, t_, h, 0.0);
  }

  /// The segment's problem: `p_` restarted at the current state.
  Problem segment_problem() const {
    Problem sub = p_;
    sub.t0 = t_;
    sub.y0 = y_;
    return sub;
  }

  const Problem& p_;
  const SolverOptions& opts_;
  const char* name_;
  TrajectoryWriter rec_;
  EventHandler events_;
  double t_;
  std::vector<double> y_, yprev_;
  std::size_t accepted_ = 0;
  std::size_t attempts_ = 0;
  SolverStats stats_;
};

bool Run::adams(const SolverOptions& o, bool detect_stiffness) {
  const Problem sub = segment_problem();
  AdamsStepper stepper(sub, o);
  // The Adams step has no native continuous extension (the f history is
  // rebuilt wholesale on restarts), so localization interpolates each
  // jump with cubic Hermite from on-demand endpoint derivatives.
  auto make_dense = [&](double tp, const std::vector<double>& yp) {
    std::vector<double> f0(sub.n), f1(sub.n);
    sub.rhs(tp, yp, f0);
    sub.rhs(stepper.t(), stepper.y(), f1);
    stepper.stats().rhs_calls += 2;
    return DenseOutput::hermite(tp, yp, f0, stepper.t(), stepper.y(), f1);
  };
  // The start-up already advanced three RK4-built history points: sweep
  // that jump, then record the post-start-up state.
  yprev_ = y_;
  bool terminated = sweep_stepper_events(events_, stepper, name_, t_,
                                         yprev_, rec_, make_dense);
  if (!terminated) {
    rec_.append(stepper.t(), stepper.y());
  }
  const double span = p_.tend - p_.t0;
  bool stiff = false;
  std::size_t accepts = 0;
  std::size_t accepts_since_check = 0;
  std::size_t sigma_hits = 0;
  while (!terminated && stepper.t() < p_.tend) {
    attempt();
    const double tprev = stepper.t();
    if (events_.armed()) {
      yprev_.assign(stepper.y().begin(), stepper.y().end());
    }
    const bool ok = stepper.step();
    // Rejected attempts also move time (the shrink-rebuild advances a
    // few substeps), so the sweep runs on every attempt.
    if (sweep_stepper_events(events_, stepper, name_, tprev, yprev_, rec_,
                             make_dense)) {
      terminated = true;
      break;
    }
    if (ok) {
      ++accepts;
      accepted(stepper, false);
      if (detect_stiffness &&
          ++accepts_since_check >= kStiffnessCheckInterval &&
          stepper.t() < p_.tend) {
        accepts_since_check = 0;
        sigma_hits = stepper.stiffness_ratio() > kStiffSigma ? sigma_hits + 1
                                                             : 0;
        if (sigma_hits >= kStiffSigmaConfirmations) {
          stiff = true;
          break;
        }
      }
    }
    if (detect_stiffness &&
        ((accepts >= kAdamsWarmupSteps &&
          stepper.h() < kStiffHFraction * span) ||
         stepper.consecutive_rejects() >= kStiffRejectLimit)) {
      stiff = true;
      break;
    }
  }
  end_segment(stepper);
  if (terminated || !stiff) {
    return false;
  }
  // A stiffness verdict on the step that reached tend still counts as a
  // switch, but leaves nothing for a BDF segment to do.
  switched("bdf", stepper.h());
  return t_ < p_.tend;
}

bool Run::bdf(const SolverOptions& o, bool detect_relaxation) {
  const Problem sub = segment_problem();
  BdfStepper stepper(sub, o);
  // Localization interpolates the BDF history polynomial itself; the
  // sweep's restart() truncates the history and invalidates the
  // JacobianEngine, so the first post-event step re-evaluates rather
  // than reusing a stale factorization.
  auto make_dense = [&](double, const std::vector<double>&) {
    return stepper.last_step_dense();
  };
  // The fixed-step start-up (bdf_fixed_h) advances RK4 substeps at
  // construction; sweep that jump like any other.
  yprev_ = y_;
  bool terminated = sweep_stepper_events(events_, stepper, name_, t_,
                                         yprev_, rec_, make_dense);
  const double span = p_.tend - p_.t0;
  std::size_t easy_streak = 0;
  bool relaxed = false;
  while (!terminated && stepper.t() < p_.tend) {
    attempt();
    const double tprev = stepper.t();
    if (!stepper.step()) {
      easy_streak = 0;
      continue;
    }
    const std::size_t fired_before = events_.events_fired();
    if (sweep_stepper_events(events_, stepper, name_, tprev, yprev_, rec_,
                             make_dense)) {
      terminated = true;
      break;
    }
    // An event rolled the stepper back to the crossing and recorded its
    // pre/post rows; the step's original endpoint is void, so the
    // cadence row would just duplicate the event time.
    accepted(stepper, events_.events_fired() != fired_before);
    if (!detect_relaxation) {
      continue;
    }
    if (stepper.last_newton_iters() <= 2 &&
        stepper.h() >= kNonstiffHFraction * span) {
      if (++easy_streak >= kNonstiffStreak) {
        relaxed = true;
      }
    } else {
      easy_streak = 0;
    }
    if (relaxed && stepper.t() < p_.tend) {
      break;
    }
  }
  end_segment(stepper);
  if (terminated || !relaxed || t_ >= p_.tend) {
    return false;
  }
  switched("adams", stepper.h());
  return true;
}

}  // namespace

SolverStats solve_multistep(const Problem& p_in, Method method,
                            const SolverOptions& opts, TrajectorySink& sink,
                            std::uint32_t scenario) {
  p_in.validate();
  const char* name = to_string(method);
  obs::Span solve_span(name, "ode");
  // Prepare the Jacobian plan (pattern + coloring + backend choice) once
  // up front; every BDF segment's stepper inherits it through the
  // Problem copy instead of re-deriving it per switch.
  Problem p = p_in;
  if (method != Method::kAdamsPece && !p.jac_plan) {
    p.jac_plan = make_jac_plan(p);
  }
  Run run(p, opts, name, sink, scenario);
  switch (method) {
    case Method::kAdamsPece:
      run.adams(opts, false);
      break;
    case Method::kBdf:
      run.bdf(opts, false);
      break;
    case Method::kLsodaLike: {
      // bdf_fixed_h is kBdf's alone, and h0 starts the solve, not the
      // segments after a switch.
      SolverOptions o = opts;
      o.bdf_fixed_h = 0.0;
      bool stiff = false;
      while (stiff ? run.bdf(o, true) : run.adams(o, true)) {
        stiff = !stiff;
        o.h0 = 0.0;
      }
      break;
    }
    default:
      throw omx::Bug("solve_multistep: not a multistep method");
  }
  return run.finish();
}

double start_step(const Problem& p, double t, std::span<const double> y,
                  double h, const Tolerances& tol, double hmax,
                  SolverStats& stats) {
  if (h <= 0.0) {
    std::vector<double> f(p.n), w(p.n);
    p.rhs(t, y, f);
    ++stats.rhs_calls;
    error_weights(y, tol, w);
    const double d0 = la::wrms_norm(y, w);
    const double d1 = la::wrms_norm(f, w);
    h = (d0 > 1e-5 && d1 > 1e-5) ? 0.01 * d0 / d1 : 1e-3 * (p.tend - p.t0);
  }
  return std::min(h, hmax);
}

double rk4_substeps(const Problem& p, double t, std::vector<double>& y,
                    double h, int sub, SolverStats& stats) {
  const std::size_t n = p.n;
  const double hs = h / sub;
  std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);
  for (int s = 0; s < sub; ++s) {
    p.rhs(t, y, k1);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * hs * k1[i];
    p.rhs(t + 0.5 * hs, tmp, k2);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * hs * k2[i];
    p.rhs(t + 0.5 * hs, tmp, k3);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + hs * k3[i];
    p.rhs(t + hs, tmp, k4);
    stats.rhs_calls += 4;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += hs / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    t += hs;
  }
  return t;
}

}  // namespace omx::ode::detail
