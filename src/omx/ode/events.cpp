#include "omx/ode/events.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace omx::ode {

namespace {

// DOPRI5 continuous-extension weights (Hairer/Norsett/Wanner II.5): the
// quartic term's stage combination h * sum(d_i k_i).
constexpr double d1 = -12715105075.0 / 11282082432.0;
constexpr double d3 = 87487479700.0 / 32700410799.0;
constexpr double d4 = -10690763975.0 / 1880347072.0;
constexpr double d5 = 701980252875.0 / 199316789632.0;
constexpr double d6 = -1453857185.0 / 822651844.0;
constexpr double d7 = 69997945.0 / 29380423.0;

}  // namespace

DenseOutput DenseOutput::dopri5(double t0, double h,
                                std::span<const double> y0,
                                std::span<const double> y1,
                                std::span<const double> k1,
                                std::span<const double> k3,
                                std::span<const double> k4,
                                std::span<const double> k5,
                                std::span<const double> k6,
                                std::span<const double> k7) {
  DenseOutput d;
  d.kind_ = Kind::kContinuous;
  d.t0_ = t0;
  d.t1_ = t0 + h;
  d.h_ = h;
  const std::size_t n = y0.size();
  d.rcont1_.resize(n);
  d.rcont2_.resize(n);
  d.rcont3_.resize(n);
  d.rcont4_.resize(n);
  d.rcont5_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double dy = y1[i] - y0[i];
    const double bspl = h * k1[i] - dy;
    d.rcont1_[i] = y0[i];
    d.rcont2_[i] = dy;
    d.rcont3_[i] = bspl;
    d.rcont4_[i] = dy - h * k7[i] - bspl;
    d.rcont5_[i] = h * (d1 * k1[i] + d3 * k3[i] + d4 * k4[i] + d5 * k5[i] +
                        d6 * k6[i] + d7 * k7[i]);
  }
  return d;
}

DenseOutput DenseOutput::hermite(double t0, std::span<const double> y0,
                                 std::span<const double> f0, double t1,
                                 std::span<const double> y1,
                                 std::span<const double> f1) {
  DenseOutput d;
  d.kind_ = Kind::kContinuous;
  d.t0_ = t0;
  d.t1_ = t1;
  d.h_ = t1 - t0;
  const std::size_t n = y0.size();
  d.rcont1_.resize(n);
  d.rcont2_.resize(n);
  d.rcont3_.resize(n);
  d.rcont4_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double dy = y1[i] - y0[i];
    const double bspl = d.h_ * f0[i] - dy;
    d.rcont1_[i] = y0[i];
    d.rcont2_[i] = dy;
    d.rcont3_[i] = bspl;
    d.rcont4_[i] = dy - d.h_ * f1[i] - bspl;
  }
  return d;
}

DenseOutput DenseOutput::lagrange(
    double t_new, double node_h,
    const std::vector<std::vector<double>>& history, std::size_t points) {
  OMX_REQUIRE(points >= 2 && points <= history.size(),
              "DenseOutput::lagrange needs 2..|history| nodes");
  OMX_REQUIRE(node_h > 0.0, "DenseOutput::lagrange needs node_h > 0");
  DenseOutput d;
  d.kind_ = Kind::kLagrange;
  d.t1_ = t_new;
  d.t0_ = t_new - node_h;  // the covered step; older nodes extend beyond
  d.h_ = node_h;
  d.nodes_.assign(history.begin(),
                  history.begin() + static_cast<std::ptrdiff_t>(points));
  return d;
}

void DenseOutput::eval(double t, std::span<double> out) const {
  if (kind_ == Kind::kContinuous) {
    const double theta = (t - t0_) / h_;
    const double theta1 = 1.0 - theta;
    const std::size_t n = rcont1_.size();
    if (rcont5_.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = rcont1_[i] +
                 theta * (rcont2_[i] +
                          theta1 * (rcont3_[i] + theta * rcont4_[i]));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] =
            rcont1_[i] +
            theta * (rcont2_[i] +
                     theta1 * (rcont3_[i] +
                               theta * (rcont4_[i] + theta1 * rcont5_[i])));
      }
    }
    return;
  }
  // Lagrange over uniform nodes x_j = -j (newest first), evaluated at
  // x = (t - t1) / h, i.e. the last step is x in [-1, 0].
  const double x = (t - t1_) / h_;
  const std::size_t m = nodes_.size();
  const std::size_t n = nodes_.front().size();
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double lj = 1.0;
    const double xj = -static_cast<double>(j);
    for (std::size_t k = 0; k < m; ++k) {
      if (k == j) {
        continue;
      }
      const double xk = -static_cast<double>(k);
      lj *= (x - xk) / (xj - xk);
    }
    const std::vector<double>& node = nodes_[j];
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += lj * node[i];
    }
  }
}

EventHandler::EventHandler(std::shared_ptr<const EventSpec> spec,
                           std::size_t n)
    : spec_(std::move(spec)), n_(n) {
  if (spec_ != nullptr && !spec_->functions.empty()) {
    const std::size_t m = spec_->functions.size();
    g_prev_.resize(m);
    g_new_.resize(m);
    crossed_.resize(m);
    y_pre_.resize(n_);
    y_post_.resize(n_);
    y_mid_.resize(n_);
  }
}

void EventHandler::prime(double t, std::span<const double> y) {
  if (!armed()) {
    return;
  }
  for (std::size_t k = 0; k < spec_->functions.size(); ++k) {
    g_prev_[k] = spec_->functions[k].guard(t, y);
  }
}

namespace {

/// Directional crossing test from a committed sign g_prev to a candidate
/// value g. A cached zero (the post-reset resting value) never re-fires:
/// the sign has to leave zero at some later committed point first.
bool crosses(double g_prev, double g, EventDirection dir) {
  const bool rising = g_prev < 0.0 && g >= 0.0;
  const bool falling = g_prev > 0.0 && g <= 0.0;
  switch (dir) {
    case EventDirection::kRising: return rising;
    case EventDirection::kFalling: return falling;
    case EventDirection::kBoth: return rising || falling;
  }
  return false;
}

}  // namespace

bool EventHandler::detect(double t_new, std::span<const double> y_new) {
  bool any = false;
  for (std::size_t k = 0; k < spec_->functions.size(); ++k) {
    const EventFunction& f = spec_->functions[k];
    g_new_[k] = f.guard(t_new, y_new);
    crossed_[k] = crosses(g_prev_[k], g_new_[k], f.direction) ? 1 : 0;
    any = any || crossed_[k] != 0;
  }
  if (!any) {
    // Commit: the new point becomes the reference for the next step.
    std::swap(g_prev_, g_new_);
  }
  return any;
}

EventHandler::Hit EventHandler::localize(double t_prev, double t_new,
                                         std::span<const double> y_new,
                                         const DenseOutput& dense,
                                         const char* method,
                                         SolverStats& stats) {
  const double tol_t =
      spec_->time_tol * std::max(1.0, std::fabs(t_new));

  Hit hit;
  hit.t = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < spec_->functions.size(); ++k) {
    if (crossed_[k] == 0) {
      continue;
    }
    const EventFunction& f = spec_->functions[k];
    // Bisection: keep [lo, hi] bracketing the first crossing, testing
    // each midpoint against the committed pre-step sign (so a guard that
    // wiggles inside the step localizes its FIRST crossing).
    double lo = t_prev;
    double hi = t_new;
    double g_lo = g_prev_[k];
    for (std::size_t it = 0;
         it < spec_->max_bisections && hi - lo > tol_t; ++it) {
      const double mid = 0.5 * (lo + hi);
      dense.eval(mid, y_mid_);
      const double g_mid = f.guard(mid, y_mid_);
      if (crosses(g_lo, g_mid, f.direction)) {
        hi = mid;
      } else {
        lo = mid;
        g_lo = g_mid;
      }
    }
    // hi is the first point at/after the crossing in the filtered
    // direction, so the committed post-event sign satisfies it.
    if (hi < hit.t) {
      hit.fired = true;
      hit.t = hi;
      hit.index = k;
    }
  }
  if (!hit.fired) {
    // Every flagged crossing failed to bracket (can only happen through
    // pathological guard wiggle below the interpolant's resolution);
    // commit the new point and move on.
    std::swap(g_prev_, g_new_);
    return {};
  }

  const EventFunction& f = spec_->functions[hit.index];
  hit.terminal = f.terminal;
  if (hit.t >= t_new) {
    hit.t = t_new;
    std::copy(y_new.begin(), y_new.end(), y_pre_.begin());
  } else {
    dense.eval(hit.t, y_pre_);
  }
  y_post_ = y_pre_;
  if (f.reset) {
    f.reset(hit.t, y_post_);
  }
  prime(hit.t, y_post_);

  ++fired_;
  ++stats.events;
  if (hit.terminal) {
    ++stats.events_terminal;
  }
  if (fired_ > spec_->max_events) {
    throw omx::Error(std::string(method) +
                     ": event storm (Zeno) — more than " +
                     std::to_string(spec_->max_events) +
                     " events in one solve, last at t = " +
                     std::to_string(hit.t));
  }
  obs::record_step(obs::StepEventKind::kEvent, method,
                   static_cast<std::uint16_t>(hit.index), hit.t,
                   t_new - t_prev, g_new_[hit.index]);
  return hit;
}

}  // namespace omx::ode
