#include "omx/ode/lane_stepper.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "omx/obs/recorder.hpp"
#include "omx/ode/events.hpp"
#include "omx/support/simd.hpp"

namespace omx::ode {

namespace {

[[noreturn]] void throw_nonfinite(const char* method, double t) {
  throw omx::Error(std::string(method) +
                   ": non-finite state or RHS at t = " + std::to_string(t));
}

/// What every lane carries, whatever the method.
struct LaneBase {
  std::uint32_t scenario = 0;
  double t = 0.0, h = 0.0;
  bool done = false, event_stopped = false;
  std::vector<double> y;
  EventHandler events;  // per-lane guard-sign cache
  TrajectoryWriter rec;
  SolverStats stats;
};

/// Lane bookkeeping and the stage evaluator shared by both methods.
template <typename Lane>
class StepperCore : public LaneStepper {
 public:
  std::size_t active() const override { return lanes_.size(); }

  void abandon_all() override {
    for (const Lane& L : lanes_) {
      owner_.abandoned(L.scenario, L.t);
    }
    lanes_.clear();
  }

 protected:
  StepperCore(const Problem& p, Method method, const SolverOptions& o,
              TrajectorySink& sink, LaneOwner& owner, BatchRhsFn batch,
              std::size_t lane)
      : LaneStepper(method),
        p_(p),
        o_(o),
        n_(p.n),
        sink_(sink),
        owner_(owner),
        batch_(batch),
        lane_(lane) {}

  /// Sets up a lane at (t0, y0), records its first row, and keeps it —
  /// or retires it at once when there is nothing to integrate.
  void start(Lane&& L, std::uint32_t scenario, std::span<const double> y0) {
    L.scenario = scenario;
    L.t = p_.t0;
    L.y.assign(y0.begin(), y0.end());
    L.events = EventHandler(p_.events, n_);
    L.events.prime(L.t, L.y);
    L.rec = TrajectoryWriter(sink_, scenario, n_);
    L.rec.append(L.t, L.y);
    if (L.done) {
      retire(L);
      return;
    }
    lanes_.push_back(std::move(L));
  }

  /// f(t, y) for one point through this stepper's kernel: the scalar rhs,
  /// or the batched kernel at width 1 on the stepper's workspace.
  void eval_one(double t, const double* y, double* f) {
    if (batch_) {
      batch_(lane_, 1, &t, y, f);
    } else {
      p_.rhs(t, {y, n_}, {f, n_});
    }
  }

  /// One point of a stage: f(t, in) into out. A default Eval (null
  /// `out`) sits the stage out.
  struct Eval {
    double t = 0.0;
    const double* in = nullptr;
    double* out = nullptr;
  };

  /// The one stage evaluation, shared by every stage of both methods:
  /// `prep(L)` forms lane L's stage input and says where to evaluate it.
  /// A single lane, or no batched kernel, hands each lane's own vectors
  /// to eval_one; wider batches pack SoA, call the batched kernel once
  /// and unpack.
  template <typename Prep>
  void stage(Prep&& prep) {
    if (lanes_.size() == 1 || !batch_) {
      for (Lane& L : lanes_) {
        const Eval e = prep(L);
        if (e.out != nullptr) {
          eval_one(e.t, e.in, e.out);
        }
      }
      return;
    }
    evals_.clear();
    for (Lane& L : lanes_) {
      const Eval e = prep(L);
      if (e.out != nullptr) {
        evals_.push_back(e);
      }
    }
    eval_packed();
  }

  /// Applies a fired event to lane `L` at hit.t: records the pre- and
  /// post-reset rows and adopts the post-reset state. Returns false when
  /// the event is terminal (the lane is then done).
  bool apply_event(Lane& L, const EventHandler::Hit& hit) {
    L.t = hit.t;
    L.rec.append(L.t, L.events.pre_state());
    std::copy(L.events.post_state().begin(), L.events.post_state().end(),
              L.y.begin());
    L.rec.append(L.t, L.y);
    if (hit.terminal) {
      L.event_stopped = true;
      L.done = true;
      return false;
    }
    return true;
  }

  void check_finite(const Lane& L) const {
    for (const double v : L.y) {
      if (!std::isfinite(v)) {
        throw_nonfinite(method_name(), L.t);
      }
    }
  }

  /// Retires every done lane and closes the gaps.
  void compact() {
    std::size_t w = 0;
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if (lanes_[j].done) {
        retire(lanes_[j]);
      } else {
        if (w != j) {
          lanes_[w] = std::move(lanes_[j]);
        }
        ++w;
      }
    }
    lanes_.resize(w);
  }

  const Problem& p_;
  const SolverOptions& o_;
  const std::size_t n_;
  std::vector<Lane> lanes_;

 private:
  /// SoA pack of evals_, one batched kernel call, unpack.
  void eval_packed() {
    const std::size_t nb = evals_.size();
    if (nb == 0) {
      return;
    }
    ts_.resize(nb);
    ybuf_.resize(n_ * nb);
    fbuf_.resize(n_ * nb);
    for (std::size_t j = 0; j < nb; ++j) {
      ts_[j] = evals_[j].t;
      for (std::size_t i = 0; i < n_; ++i) {
        ybuf_[i * nb + j] = evals_[j].in[i];
      }
    }
    batch_(lane_, nb, ts_.data(), ybuf_.data(), fbuf_.data());
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < n_; ++i) {
        evals_[j].out[i] = fbuf_[i * nb + j];
      }
    }
  }

  void retire(Lane& L) {
    publish_solver_stats(L.stats);
    owner_.retired(L.scenario, L.stats, L.event_stopped, L.t);
    L.rec.finish(L.stats);
  }

  TrajectorySink& sink_;
  LaneOwner& owner_;
  BatchRhsFn batch_;
  std::size_t lane_;
  std::vector<Eval> evals_;
  // SoA staging (64-byte aligned per the simd.hpp contract; the batched
  // kernels' lane loops vectorize over it).
  simd::aligned_vector<double> ts_, ybuf_, fbuf_;
};

// ------------------------------------------------------------ fixed step

struct FixedLane : LaneBase {
  std::size_t k = 0;  // completed grid steps
  double tprev = 0.0;
  std::vector<double> k1, k2, k3, k4, tmp, yprev;
};

/// kExplicitEuler / kRk4. An event-free lane takes the precomputed number
/// of dt steps. An event lane walks to tend instead — a fired event moves
/// it off the dt grid, and it resumes on a grid anchored at the event
/// time — localizing crossings on a cubic Hermite dense output.
class FixedStepper final : public StepperCore<FixedLane> {
 public:
  FixedStepper(const Problem& p, Method method, const SolverOptions& o,
               TrajectorySink& sink, LaneOwner& owner, BatchRhsFn batch,
               std::size_t lane)
      : StepperCore(p, method, o, sink, owner, batch, lane),
        rk4_(method == Method::kRk4),
        walk_(p.events != nullptr) {
    OMX_REQUIRE(o.dt > 0.0, "dt must be positive");
    steps_ = static_cast<std::size_t>(
        std::ceil((p.tend - p.t0) / o.dt - 1e-12));
  }

  void add(std::uint32_t scenario, std::span<const double> y0) override {
    FixedLane L;
    for (auto* v : {&L.k1, &L.k2, &L.k3, &L.k4, &L.tmp, &L.yprev}) {
      v->resize(n_);
    }
    L.done = walk_ ? !(p_.t0 < p_.tend) : steps_ == 0;
    start(std::move(L), scenario, y0);
  }

  void round() override {
    // k1 = f(t, y)
    stage([this](FixedLane& L) {
      L.h = std::min(o_.dt, p_.tend - L.t);
      if (walk_) {
        L.tprev = L.t;
        L.yprev = L.y;
      }
      return Eval{L.t, L.y.data(), L.k1.data()};
    });
    if (rk4_) {
      // k2 = f(t + h/2, y + h/2 k1), k3 = f(t + h/2, y + h/2 k2),
      // k4 = f(t + h, y + h k3)
      rk4_stage(0.5, &FixedLane::k1, &FixedLane::k2);
      rk4_stage(0.5, &FixedLane::k2, &FixedLane::k3);
      rk4_stage(1.0, &FixedLane::k3, &FixedLane::k4);
    }
    for (FixedLane& L : lanes_) {
      // Locals keep the loops free of aliasing with the lane's members.
      const double h = L.h;
      double* y = L.y.data();
      const double* k1 = L.k1.data();
      if (rk4_) {
        const double* k2 = L.k2.data();
        const double* k3 = L.k3.data();
        const double* k4 = L.k4.data();
        L.stats.rhs_calls += 4;
        for (std::size_t i = 0; i < n_; ++i) {
          y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
      } else {
        ++L.stats.rhs_calls;
        for (std::size_t i = 0; i < n_; ++i) {
          y[i] += h * k1[i];
        }
      }
      L.t += h;
      finish_step(L);
    }
    compact();
  }

 private:
  /// tmp = y + c h k_in, evaluated at t + c h into k_out.
  void rk4_stage(double c, std::vector<double> FixedLane::*in,
                 std::vector<double> FixedLane::*out) {
    stage([this, c, in, out](FixedLane& L) {
      const double ch = c * L.h;
      const double* y = L.y.data();
      const double* k = (L.*in).data();
      double* tmp = L.tmp.data();
      for (std::size_t i = 0; i < n_; ++i) {
        tmp[i] = y[i] + ch * k[i];
      }
      return Eval{L.t + ch, tmp, (L.*out).data()};
    });
  }

  void finish_step(FixedLane& L) {
    ++L.stats.steps;
    check_finite(L);
    if (!walk_) {
      if (L.k % o_.record_every == o_.record_every - 1 || L.k + 1 == steps_) {
        L.rec.append(L.t, L.y);
      }
      L.done = ++L.k >= steps_;
      return;
    }
    walk_step(L);
  }

  /// The event lane's end of step: localize a crossing on the step's
  /// cubic Hermite interpolant, or record on the walk's own cadence.
  void walk_step(FixedLane& L) {
    const EventHandler::Hit hit =
        L.events.check(L.tprev, L.t, L.y, method_name(), L.stats, [&] {
          // Endpoint derivatives through the lane's own evaluator; k1
          // and k2 are free once the step is taken.
          eval_one(L.tprev, L.yprev.data(), L.k1.data());
          eval_one(L.t, L.y.data(), L.k2.data());
          L.stats.rhs_calls += 2;
          return DenseOutput::hermite(L.tprev, L.yprev, L.k1, L.t, L.y,
                                      L.k2);
        });
    if (hit.fired) {
      if (apply_event(L, hit)) {
        L.done = !(L.t < p_.tend);
      }
      return;
    }
    if (L.k % o_.record_every == o_.record_every - 1 || L.t >= p_.tend) {
      L.rec.append(L.t, L.y);
    }
    ++L.k;
    L.done = !(L.t < p_.tend);
  }

  bool rk4_;
  bool walk_;
  std::size_t steps_ = 0;
};

// ---------------------------------------------------------------- dopri5

struct Dopri5Lane : LaneBase {
  double err_prev = 1.0;  // PI controller memory
  bool fresh = true;
  std::size_t recorded = 0, attempts = 0;
  std::vector<double> k1, k2, k3, k4, k5, k6, k7, ytmp, yerr, w;
};

// Dormand & Prince RK5(4)7M coefficients.
constexpr double c2 = 1.0 / 5, c3 = 3.0 / 10, c4 = 4.0 / 5, c5 = 8.0 / 9;
constexpr double a21 = 1.0 / 5;
constexpr double a31 = 3.0 / 40, a32 = 9.0 / 40;
constexpr double a41 = 44.0 / 45, a42 = -56.0 / 15, a43 = 32.0 / 9;
constexpr double a51 = 19372.0 / 6561, a52 = -25360.0 / 2187,
                 a53 = 64448.0 / 6561, a54 = -212.0 / 729;
constexpr double a61 = 9017.0 / 3168, a62 = -355.0 / 33,
                 a63 = 46732.0 / 5247, a64 = 49.0 / 176,
                 a65 = -5103.0 / 18656;
constexpr double a71 = 35.0 / 384, a73 = 500.0 / 1113, a74 = 125.0 / 192,
                 a75 = -2187.0 / 6784, a76 = 11.0 / 84;
// Error coefficients: b5 - b4.
constexpr double e1 = 71.0 / 57600, e3 = -71.0 / 16695, e4 = 71.0 / 1920,
                 e5 = -17253.0 / 339200, e6 = 22.0 / 525, e7 = -1.0 / 40;

/// kDopri5: Dormand-Prince 5(4) with per-lane PI step control and events
/// localized on the method's 4th-order continuous extension.
class Dopri5Stepper final : public StepperCore<Dopri5Lane> {
 public:
  Dopri5Stepper(const Problem& p, const SolverOptions& o,
                TrajectorySink& sink, LaneOwner& owner, BatchRhsFn batch,
                std::size_t lane)
      : StepperCore(p, Method::kDopri5, o, sink, owner, batch, lane),
        hmax_(o.hmax > 0.0 ? o.hmax : (p.tend - p.t0)) {}

  void add(std::uint32_t scenario, std::span<const double> y0) override {
    Dopri5Lane L;
    for (auto* v : {&L.k1, &L.k2, &L.k3, &L.k4, &L.k5, &L.k6, &L.k7,
                    &L.ytmp, &L.yerr, &L.w}) {
      v->resize(n_);
    }
    L.done = !(p_.t0 < p_.tend);
    start(std::move(L), scenario, y0);
  }

  void round() override {
    init_fresh();
    for (Dopri5Lane& L : lanes_) {
      L.h = std::min(L.h, p_.tend - L.t);
    }
    using D = Dopri5Lane;
    rk_stage(c2, &D::k2, {{&D::k1, a21}});
    rk_stage(c3, &D::k3, {{&D::k1, a31}, {&D::k2, a32}});
    rk_stage(c4, &D::k4, {{&D::k1, a41}, {&D::k2, a42}, {&D::k3, a43}});
    rk_stage(c5, &D::k5,
             {{&D::k1, a51}, {&D::k2, a52}, {&D::k3, a53}, {&D::k4, a54}});
    rk_stage(1.0, &D::k6,
             {{&D::k1, a61},
              {&D::k2, a62},
              {&D::k3, a63},
              {&D::k4, a64},
              {&D::k5, a65}});
    // 5th-order solution (FSAL: k7 = f at the new point).
    stage([this](Dopri5Lane& L) {
      const double h = L.h;
      const double *y = L.y.data(), *k1 = L.k1.data(), *k3 = L.k3.data(),
                   *k4 = L.k4.data(), *k5 = L.k5.data(), *k6 = L.k6.data();
      double* ytmp = L.ytmp.data();
      for (std::size_t i = 0; i < n_; ++i) {
        ytmp[i] = y[i] + h * (a71 * k1[i] + a73 * k3[i] + a74 * k4[i] +
                              a75 * k5[i] + a76 * k6[i]);
      }
      return Eval{L.t + h, ytmp, L.k7.data()};
    });
    for (Dopri5Lane& L : lanes_) {
      control(L);
    }
    compact();
  }

 private:
  using Term = std::pair<std::vector<double> Dopri5Lane::*, double>;

  /// ytmp = y + h * sum(a * k), accumulated term by term in the order
  /// given, evaluated at t + c h into `dst`.
  template <std::size_t M>
  void rk_stage(double c, std::vector<double> Dopri5Lane::*dst,
                const Term (&terms)[M]) {
    stage([this, c, dst, &terms](Dopri5Lane& L) {
      const double h = L.h;
      const double* y = L.y.data();
      double* ytmp = L.ytmp.data();
      const double* k[M];
      for (std::size_t q = 0; q < M; ++q) {
        k[q] = (L.*terms[q].first).data();
      }
      for (std::size_t i = 0; i < n_; ++i) {
        double acc = y[i];
        for (std::size_t q = 0; q < M; ++q) {
          acc += h * terms[q].second * k[q][i];
        }
        ytmp[i] = acc;
      }
      return Eval{L.t + c * h, ytmp, (L.*dst).data()};
    });
  }

  /// Automatic step at (t, y) with y' in k1, used at the start and after
  /// an event restart (Hairer's d0/d1 heuristic): h ~ 1% of the
  /// solution's characteristic time scale ||y||_w / ||y'||_w.
  double auto_step(Dopri5Lane& L) const {
    error_weights(L.y, o_.tol, L.w);
    const double d0 = la::wrms_norm(L.y, L.w);
    const double d1 = la::wrms_norm(L.k1, L.w);
    const double h = (d0 > 1e-5 && d1 > 1e-5) ? 0.01 * d0 / d1
                                              : 1e-3 * (p_.tend - p_.t0);
    return std::min(h, hmax_);
  }

  /// First evaluation and initial step for lanes that just joined.
  void init_fresh() {
    stage([](Dopri5Lane& L) {
      return L.fresh ? Eval{L.t, L.y.data(), L.k1.data()} : Eval{};
    });
    for (Dopri5Lane& L : lanes_) {
      if (L.fresh) {
        ++L.stats.rhs_calls;
        L.h = o_.h0 > 0.0 ? o_.h0 : auto_step(L);
        L.fresh = false;
      }
    }
  }

  void control(Dopri5Lane& L) {
    {
      const double h = L.h;
      const double *k1 = L.k1.data(), *k3 = L.k3.data(), *k4 = L.k4.data(),
                   *k5 = L.k5.data(), *k6 = L.k6.data(), *k7 = L.k7.data();
      double* yerr = L.yerr.data();
      for (std::size_t i = 0; i < n_; ++i) {
        yerr[i] = h * (e1 * k1[i] + e3 * k3[i] + e4 * k4[i] + e5 * k5[i] +
                       e6 * k6[i] + e7 * k7[i]);
      }
    }
    error_weights(L.ytmp, o_.tol, L.w);
    const double err = la::wrms_norm(L.yerr, L.w);
    L.stats.rhs_calls += 6;
    if (!std::isfinite(err)) {
      // A NaN/Inf from the RHS fails every accept test, so without this
      // check the controller would shrink h to underflow and report a
      // misleading "step size underflow"; fail with the real cause.
      throw_nonfinite("dopri5", L.t);
    }
    if (err <= 1.0) {
      obs::record_step(obs::StepEventKind::kStepAccepted, "dopri5", 5, L.t,
                       L.h, err);
      // L.y/L.k1..L.k7 still hold the step's inputs and stages, L.ytmp
      // the candidate new state.
      const EventHandler::Hit hit =
          L.events.check(L.t, L.t + L.h, L.ytmp, "dopri5", L.stats, [&] {
            return DenseOutput::dopri5(L.t, L.h, L.y, L.ytmp, L.k1, L.k3,
                                       L.k4, L.k5, L.k6, L.k7);
          });
      if (hit.fired) {
        // The accepted step is truncated at the localized event time:
        // commit the interpolated pre-event state, apply the reset, and
        // restart with a fresh FSAL derivative and a conservative step.
        ++L.stats.steps;
        ++L.recorded;
        if (apply_event(L, hit)) {
          eval_one(L.t, L.y.data(), L.k1.data());
          ++L.stats.rhs_calls;
          L.h = auto_step(L);
          L.err_prev = 1.0;
        }
      } else {
        L.t += L.h;
        L.y.swap(L.ytmp);
        L.k1.swap(L.k7);  // FSAL
        ++L.stats.steps;
        ++L.recorded;
        if (L.recorded % o_.record_every == 0 || L.t >= p_.tend) {
          L.rec.append(L.t, L.y);
        }
        // PI controller (Gustafsson).
        const double err_clamped = std::max(err, 1e-10);
        double fac = 0.9 * std::pow(err_clamped, -0.7 / 5.0) *
                     std::pow(L.err_prev, 0.4 / 5.0);
        fac = std::clamp(fac, 0.2, 5.0);
        L.h = std::min(L.h * fac, hmax_);
        L.err_prev = err_clamped;
      }
    } else {
      ++L.stats.rejected;
      obs::record_step(obs::StepEventKind::kStepRejected, "dopri5", 5, L.t,
                       L.h, err);
      const double fac = std::max(0.2, 0.9 * std::pow(err, -1.0 / 5.0));
      L.h *= fac;
      if (L.h < 1e-14 * std::max(1.0, std::fabs(L.t))) {
        throw omx::Error("dopri5: step size underflow at t = " +
                         std::to_string(L.t));
      }
    }
    ++L.attempts;
    if (L.done || L.t >= p_.tend) {
      L.done = true;
    } else if (L.attempts >= o_.max_steps) {
      throw omx::Error("dopri5: max_steps exceeded before reaching tend");
    }
  }

  double hmax_ = 0.0;
};

}  // namespace

std::unique_ptr<LaneStepper> make_lane_stepper(
    const Problem& p, Method method, const SolverOptions& o,
    TrajectorySink& sink, LaneOwner& owner, BatchRhsFn batch,
    std::size_t lane) {
  switch (method) {
    case Method::kExplicitEuler:
    case Method::kRk4:
      return std::make_unique<FixedStepper>(p, method, o, sink, owner, batch,
                                            lane);
    case Method::kDopri5:
      return std::make_unique<Dopri5Stepper>(p, o, sink, owner, batch, lane);
    default:
      break;
  }
  throw omx::Bug("make_lane_stepper: not an explicit method");
}

}  // namespace omx::ode
