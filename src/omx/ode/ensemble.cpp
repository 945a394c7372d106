#include "omx/ode/ensemble.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "omx/obs/recorder.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/lane_stepper.hpp"
#include "omx/runtime/task_deque.hpp"
#include "omx/sched/lpt.hpp"
#include "omx/support/fork_join.hpp"
#include "omx/support/simd.hpp"
#include "omx/support/timer.hpp"
#include "omx/tune/autotuner.hpp"

namespace omx::ode {

namespace {

// ---------------------------------------------------------------- metrics

obs::Gauge& active_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("ensemble.scenarios_active");
  return g;
}

obs::Histogram& occupancy_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "ensemble.batch_occupancy", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  return h;
}

obs::Histogram& lane_step_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "ensemble.lane_step_seconds", obs::log_spaced_bounds(1e-7, 1e-1));
  return h;
}

obs::Gauge& rate_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("ensemble.rhs_calls_per_sec");
  return g;
}

obs::Counter& jac_plans_built_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.jac_plans_built");
  return c;
}

obs::Counter& jac_plan_reuse_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.jac_plan_reuses");
  return c;
}

obs::Counter& lanes_cancelled_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.lanes_cancelled");
  return c;
}

// Lane-retire accounting keeps its reasons distinct: every finished lane
// (tend reached OR stopped by a terminal event) counts as retired, the
// event-stopped subset is counted again separately, and cancelled lanes
// appear only under lanes_cancelled — the three never alias.
obs::Counter& lanes_retired_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.lanes_retired");
  return c;
}

obs::Counter& lanes_event_stopped_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ensemble.lanes_event_stopped");
  return c;
}

// ------------------------------------------------------- lane accounting

/// The ensemble side of one worker's stepper: lane accounting that a
/// plain solve never touches. Trajectories stream to the caller's
/// TrajectorySink; nothing is accumulated solver-side.
class LaneAccounting final : public LaneOwner {
 public:
  LaneAccounting(const char* method, std::atomic<std::int64_t>& active,
                 std::atomic<std::uint64_t>& total_rhs)
      : method_(method), active_(active), total_rhs_(total_rhs) {}

  /// A scenario entering a batch: at the first fill, or as a refill of a
  /// lane freed mid-run.
  void added(std::uint32_t scenario, bool refill, double t0) {
    obs::record_lane(refill ? obs::StepEventKind::kLaneRefill
                            : obs::StepEventKind::kLanePack,
                     method_, scenario, t0);
    move_active(1);
  }

  void retired(std::uint32_t scenario, const SolverStats& stats,
               bool at_event, double t) override {
    obs::record_lane(at_event ? obs::StepEventKind::kLaneEventStop
                              : obs::StepEventKind::kLaneRetire,
                     method_, scenario, t);
    lanes_retired_counter().add();
    if (at_event) {
      lanes_event_stopped_counter().add();
    }
    total_rhs_.fetch_add(stats.rhs_calls, std::memory_order_relaxed);
    move_active(-1);
  }

  /// A lane dropped by cancellation: its TrajectoryWriter abandons the
  /// partial chunk (the pool reclaims it) and finish() is never sent.
  void abandoned(std::uint32_t scenario, double t) override {
    obs::record_lane(obs::StepEventKind::kLaneCancel, method_, scenario, t);
    lanes_cancelled_counter().add();
    move_active(-1);
  }

 private:
  void move_active(std::int64_t delta) {
    const std::int64_t now =
        active_.fetch_add(delta, std::memory_order_relaxed) + delta;
    active_gauge().set(static_cast<double>(now));
  }

  const char* method_;
  std::atomic<std::int64_t>& active_;
  std::atomic<std::uint64_t>& total_rhs_;
};

// ----------------------------------------------------------- scheduling

struct WorkSource {
  std::vector<runtime::TaskDeque> deques;

  explicit WorkSource(std::size_t num_workers, std::size_t num_scenarios)
      : deques(num_workers) {
    // Equal scenario weights: LPT degenerates to a deterministic
    // round-robin card deal, which is exactly the right seed — stealing
    // absorbs the *runtime* imbalance of scenarios that converge at
    // different speeds.
    const std::vector<double> weights(num_scenarios, 1.0);
    const sched::Schedule sched = sched::lpt_schedule(weights, num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      deques[w].reserve(sched[w].size());
      deques[w].seed(sched[w]);
    }
  }

  /// Pops from the worker's own deque, then steals from the most-loaded
  /// victim. Returns false only when every deque is empty.
  bool next(std::size_t w, std::uint32_t& s) {
    std::uint64_t lost_races = 0;
    return runtime::claim_task(
               w, deques.size(),
               [&](std::size_t i) -> runtime::TaskDeque& { return deques[i]; },
               s, lost_races) != runtime::Claim::kNone;
  }
};

/// Scenario-at-a-time path for the multistep/stiff methods: a plain
/// streaming solve per scenario. When a batched kernel is bound, every
/// evaluation of the solve — its rhs at width 1 and the colored-FD
/// Jacobian's batched calls — runs on the worker's own lane, and the
/// one-lane block keeps the Jacobian from fanning out onto other
/// workers' lanes.
SolverStats solve_single(const Problem& p, Method method,
                         const SolverOptions& opts,
                         std::span<const double> y0, std::size_t lane,
                         TrajectorySink& sink, std::uint32_t scenario) {
  Problem q = p.batch_rhs ? bind_lanes(p, lane, 1) : p;
  q.y0.assign(y0.begin(), y0.end());
  return solve(q, method, opts, sink, scenario);
}

/// One worker of the batched explicit methods: keeps up to `max_batch`
/// lanes in its stepper, refilling retired lanes from the work source.
void run_batched_worker(const Problem& p, Method method,
                        const SolverOptions& opts, const EnsembleSpec& spec,
                        TrajectorySink& sink, WorkSource& ws, std::size_t w,
                        std::size_t max_batch,
                        std::atomic<std::int64_t>& active,
                        std::atomic<std::uint64_t>& total_rhs) {
  LaneAccounting lanes(to_string(method), active, total_rhs);
  const std::unique_ptr<LaneStepper> st =
      make_lane_stepper(p, method, opts, sink, lanes, p.batch_rhs, w);
  std::uint32_t s = 0;
  bool mid_flight = false;  // has this batch taken a round yet?
  for (;;) {
    if (opts.cancel != nullptr &&
        opts.cancel->load(std::memory_order_relaxed)) {
      st->abandon_all();
      throw Cancelled(std::string(st->method_name()) +
                      ": ensemble cancelled");
    }
    while (st->active() < max_batch && ws.next(w, s)) {
      lanes.added(s, mid_flight, p.t0);
      st->add(s, spec.initial_states[s]);
    }
    const std::size_t nb = st->active();
    if (nb == 0) {
      break;
    }
    occupancy_hist().observe(static_cast<double>(nb));
    Stopwatch timer;
    st->round();
    // Per-lane share of the round: comparable across batch widths.
    lane_step_hist().observe(timer.seconds() / static_cast<double>(nb));
    mid_flight = true;
  }
}

/// Largest batch width the auto-tuner may pick. The candidate grid is
/// independent of the caller's spec.max_batch by design — overriding a
/// bad caller guess is the point — but it must stop somewhere.
constexpr std::size_t kTuneBatchCap = 64;

}  // namespace

void solve_ensemble(const Problem& p, Method method,
                    const SolverOptions& opts, const EnsembleSpec& spec,
                    TrajectorySink& sink) {
  const std::size_t ns = spec.initial_states.size();
  if (ns == 0) {
    return;
  }

  {
    // Validate the base problem against the first scenario's y0 (the base
    // y0 is ignored and may be empty), then every scenario's arity.
    Problem v = p;
    v.y0 = spec.initial_states[0];
    v.validate();
  }
  for (const std::vector<double>& y0 : spec.initial_states) {
    if (y0.size() != p.n) {
      throw omx::Error(
          "solve_ensemble: scenario initial state size does not match n");
    }
  }

  obs::Span span("solve_ensemble", "ode");

  // Stiff methods go scenario-at-a-time; derive the sparsity pattern,
  // coloring, and backend choice ONCE here and share the immutable plan
  // across every lane's solver instead of re-deriving it per scenario.
  Problem base = p;
  if ((method == Method::kBdf || method == Method::kLsodaLike) &&
      !base.jac_plan) {
    base.jac_plan = make_jac_plan(base);
    if (base.jac_plan) {
      jac_plans_built_counter().add();
      jac_plan_reuse_counter().add(ns - 1);
    }
  }

  std::size_t nw = std::clamp<std::size_t>(spec.workers, 1, ns);
  if (p.batch_lanes > 0) {
    nw = std::min(nw, p.batch_lanes);
  }
  // Round the batch width down to whole SIMD blocks: a max_batch that is
  // not a lane_width multiple would make *every* full batch end in a
  // partially filled vector block, wasting lanes on each RHS call. Tail
  // batches (fewer scenarios left than max_batch) still shrink freely —
  // lane independence keeps results identical either way.
  std::size_t max_batch = std::max<std::size_t>(1, spec.max_batch);
  const std::size_t lw = simd::lane_width();
  if (max_batch > lw) {
    max_batch -= max_batch % lw;
  }

  // Auto-tuned configuration: with OMX_TUNE=on and a ready cost model
  // for this problem size, the model's pick overrides the caller's
  // workers/max_batch. Only the schedule shape changes — per-lane step
  // control never depends on worker or batch assignment, so a tuned run
  // produces bitwise-identical trajectories to an untuned one.
  if (tune::mode() == tune::Mode::kOn) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (const std::optional<tune::EnsembleConfig> cfg =
            tune::AutoTuner::global().pick_ensemble(
                p.n, ns, std::min(ns, hw), kTuneBatchCap)) {
      nw = std::clamp<std::size_t>(cfg->workers, 1, ns);
      if (p.batch_lanes > 0) {
        nw = std::min(nw, p.batch_lanes);
      }
      max_batch = std::max<std::size_t>(1, cfg->max_batch);
      if (max_batch > lw) {
        max_batch -= max_batch % lw;
      }
    }
  }

  WorkSource ws(nw, ns);
  std::atomic<std::int64_t> active{0};
  std::atomic<std::uint64_t> total_rhs{0};

  const bool batched_method = method == Method::kExplicitEuler ||
                              method == Method::kRk4 ||
                              method == Method::kDopri5;

  auto worker = [&](std::size_t w) {
    if (batched_method) {
      run_batched_worker(p, method, opts, spec, sink, ws, w, max_batch,
                         active, total_rhs);
      return;
    }
    std::uint32_t s = 0;
    while (ws.next(w, s)) {
      poll_cancel(opts.cancel, "solve_ensemble");
      occupancy_hist().observe(1.0);
      obs::record_lane(obs::StepEventKind::kLanePack, to_string(method), s,
                       base.t0);
      Stopwatch timer;
      SolverStats st;
      try {
        st = solve_single(base, method, opts, spec.initial_states[s], w,
                          sink, s);
      } catch (const Cancelled&) {
        obs::record_lane(obs::StepEventKind::kLaneCancel, to_string(method),
                         s, base.t0);
        lanes_cancelled_counter().add();
        throw;
      }
      total_rhs.fetch_add(st.rhs_calls, std::memory_order_relaxed);
      lane_step_hist().observe(
          timer.seconds() /
          static_cast<double>(std::max<std::uint64_t>(1, st.steps)));
      const bool at_event = st.events_terminal > 0;
      obs::record_lane(at_event ? obs::StepEventKind::kLaneEventStop
                                : obs::StepEventKind::kLaneRetire,
                       to_string(method), s, base.tend);
      lanes_retired_counter().add();
      if (at_event) {
        lanes_event_stopped_counter().add();
      }
    }
  };

  // Worker 0 runs on the caller. A failing worker does not stop its
  // peers; fork_join re-throws the first failure once all have returned.
  const auto start = std::chrono::steady_clock::now();
  try {
    support::fork_join(nw, worker);
  } catch (...) {
    active_gauge().set(0.0);
    throw;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  active_gauge().set(0.0);

  if (secs > 0.0) {
    rate_gauge().set(
        static_cast<double>(total_rhs.load(std::memory_order_relaxed)) /
        secs);
  }

  // Feed the cost model with what actually ran (post-clamp nw/max_batch,
  // measured makespan, total lane-RHS work). calibrate and on both
  // record; off leaves the tuner untouched.
  if (tune::mode() != tune::Mode::kOff && secs > 0.0) {
    tune::AutoTuner::global().record_ensemble(
        {p.n, ns, nw, batched_method ? max_batch : 1,
         static_cast<double>(total_rhs.load(std::memory_order_relaxed)),
         secs});
  }
}

EnsembleResult solve_ensemble(const Problem& p, Method method,
                              const SolverOptions& opts,
                              const EnsembleSpec& spec) {
  EnsembleCollectSink sink(spec.initial_states.size());
  solve_ensemble(p, method, opts, spec, sink);
  EnsembleResult res;
  res.solutions = sink.take();
  return res;
}

}  // namespace omx::ode
