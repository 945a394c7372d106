#include "omx/tune/autotuner.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/support/config.hpp"
#include "omx/support/diagnostics.hpp"

namespace omx::tune {

namespace {

/// Refit after this many new samples even without a drift trigger.
constexpr std::size_t kRefitCadence = 4;
/// Below this many windowed samples every record refits: the fits are
/// three-column least squares, so keeping a cold model exactly current
/// costs nothing and calibration runs are never left out of the model.
constexpr std::size_t kWarmSamples = 16;

std::atomic<int>& mode_cell() {
  static std::atomic<int> cell{-1};
  return cell;
}

Mode mode_from_env() {
  const std::string v = config::get_string("OMX_TUNE", "off");
  if (v == "on") {
    return Mode::kOn;
  }
  if (v == "calibrate") {
    return Mode::kCalibrate;
  }
  if (v != "off") {
    const std::string err =
        "OMX_TUNE must be off, calibrate or on (got \"" + v + "\")";
    OMX_REQUIRE(false, err.c_str());
  }
  return Mode::kOff;
}

void append_number(std::ostringstream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // JSON has no nan/inf literals; a poisoned fit must not break parsers.
  os << (std::isfinite(v) ? buf : "null");
}

void append_fit(std::ostringstream& os, const FitResult& f,
                const char* const* terms, std::size_t nterms) {
  os << "{\"terms\":[";
  for (std::size_t j = 0; j < nterms; ++j) {
    os << (j ? "," : "") << '"' << terms[j] << '"';
  }
  os << "],\"coef\":[";
  for (std::size_t j = 0; j < f.coef.size(); ++j) {
    if (j) {
      os << ',';
    }
    append_number(os, f.coef[j]);
  }
  os << "],\"samples\":" << f.samples << ",\"rss\":";
  append_number(os, f.rss);
  os << ",\"r2\":";
  append_number(os, f.r2);
  os << ",\"degenerate\":" << (f.degenerate ? "true" : "false") << '}';
}

void export_at_exit() {
  const std::string path = config::get_string("OMX_TUNE_EXPORT", "");
  if (!path.empty()) {
    AutoTuner::global().export_json(path);
  }
}

}  // namespace

Mode mode() {
  int m = mode_cell().load(std::memory_order_relaxed);
  if (m < 0) {
    m = static_cast<int>(mode_from_env());
    mode_cell().store(m, std::memory_order_relaxed);
  }
  return static_cast<Mode>(m);
}

void set_mode(Mode m) {
  mode_cell().store(static_cast<int>(m), std::memory_order_relaxed);
}

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kCalibrate:
      return "calibrate";
    case Mode::kOn:
      return "on";
  }
  return "off";
}

AutoTuner& AutoTuner::global() {
  static AutoTuner* tuner = [] {
    auto* t = new AutoTuner();
    if (!config::get_string("OMX_TUNE_EXPORT", "").empty()) {
      std::atexit(export_at_exit);
    }
    return t;
  }();
  return *tuner;
}

AutoTuner::AutoTuner()
    : drift_threshold_(config::get_double("OMX_TUNE_DRIFT", 0.5)) {
  if (!(drift_threshold_ > 0.0)) {
    drift_threshold_ = 0.5;
  }
}

void AutoTuner::record_ensemble(const EnsembleObservation& obs) {
  if (obs.scenarios == 0 || obs.seconds <= 0.0 || obs.lane_evals <= 0.0) {
    return;
  }
  bool drift = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    EnsembleModel& m = ensembles_.try_emplace(obs.problem_n).first->second;
    if (m.ready()) {
      const double pred = std::max(
          0.0, m.fit_result().predict(EnsembleModel::features(
                   obs.scenarios, obs.workers, obs.batch, obs.lane_evals,
                   m.hw_threads())));
      drift = std::fabs(pred - obs.seconds) > drift_threshold_ * obs.seconds;
    }
    m.add(obs);
    std::size_t& fresh = ensemble_new_samples_[obs.problem_n];
    ++fresh;
    if (drift || fresh >= kRefitCadence || !m.ready() ||
        m.observations().size() < kWarmSamples) {
      m.refit();
      fresh = 0;
      obs::Registry::global().counter("tune.refits").add();
    }
  }
  obs::Registry::global().counter("tune.observations").add();
  if (drift) {
    obs::Registry::global().counter("tune.drift_events").add();
  }
}

std::optional<EnsembleConfig> AutoTuner::pick_ensemble(
    std::size_t problem_n, std::size_t scenarios, std::size_t max_workers,
    std::size_t max_batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ensembles_.find(problem_n);
  if (it == ensembles_.end() || !it->second.ready() || scenarios == 0) {
    return std::nullopt;
  }
  obs::Registry::global().counter("tune.picks").add();
  return it->second.pick(scenarios, std::max<std::size_t>(1, max_workers),
                         std::max<std::size_t>(1, max_batch));
}

bool AutoTuner::ensemble_ready(std::size_t problem_n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ensembles_.find(problem_n);
  return it != ensembles_.end() && it->second.ready();
}

double AutoTuner::predict_ensemble(std::size_t problem_n,
                                   std::size_t scenarios, std::size_t workers,
                                   std::size_t batch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ensembles_.find(problem_n);
  OMX_REQUIRE(it != ensembles_.end() && it->second.ready(),
              "predict_ensemble: no ready model for this problem size");
  return it->second.predict(scenarios, workers, batch);
}

void AutoTuner::record_stiff(const StiffObservation& obs) {
  if (obs.seconds <= 0.0) {
    return;
  }
  bool drift = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    StiffModel& m = stiffs_[obs.problem_n];
    if (m.has_backend(obs.sparse)) {
      const double pred = m.predict(obs.sparse, obs.jac_threads);
      drift = std::fabs(pred - obs.seconds) > drift_threshold_ * obs.seconds;
    }
    m.add(obs);
    std::size_t& fresh = stiff_new_samples_[obs.problem_n];
    ++fresh;
    if (drift || fresh >= kRefitCadence ||
        m.observations().size() < kWarmSamples) {
      m.refit();
      fresh = 0;
      obs::Registry::global().counter("tune.refits").add();
    }
  }
  obs::Registry::global().counter("tune.observations").add();
  if (drift) {
    obs::Registry::global().counter("tune.drift_events").add();
  }
}

std::optional<StiffConfig> AutoTuner::pick_stiff(std::size_t problem_n,
                                                 int max_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stiffs_.find(problem_n);
  if (it == stiffs_.end()) {
    return std::nullopt;
  }
  std::optional<StiffConfig> best =
      it->second.pick(std::max(1, max_threads));
  if (best) {
    obs::Registry::global().counter("tune.picks").add();
  }
  return best;
}

std::optional<bool> AutoTuner::stiff_backend(std::size_t problem_n) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stiffs_.find(problem_n);
  // A backend verdict needs both curves measured; with one side unseen
  // the static flop rule in make_jac_plan knows better.
  if (it == stiffs_.end() || !it->second.has_backend(false) ||
      !it->second.has_backend(true)) {
    return std::nullopt;
  }
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::optional<StiffConfig> best = it->second.pick(hw);
  if (!best) {
    return std::nullopt;
  }
  obs::Registry::global().counter("tune.picks").add();
  return best->sparse;
}

std::string AutoTuner::model_json() const {
  static const char* kEnsembleTerms[] = {"dispatches_per_worker",
                                         "lane_evals_per_worker", "workers"};
  static const char* kStiffTerms[] = {"const", "inv_threads", "threads"};
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"mode\":\"" << to_string(mode()) << "\",\"drift_threshold\":";
  append_number(os, drift_threshold_);
  os << ",\"ensemble\":[";
  bool first_model = true;
  for (const auto& [n, m] : ensembles_) {
    if (!first_model) {
      os << ',';
    }
    first_model = false;
    os << "{\"problem_n\":" << n << ",\"ready\":"
       << (m.ready() ? "true" : "false")
       << ",\"hw_threads\":" << m.hw_threads()
       << ",\"evals_per_scenario\":";
    append_number(os, m.evals_per_scenario());
    os << ",\"fit\":";
    append_fit(os, m.fit_result(), kEnsembleTerms, 3);
    os << ",\"residuals\":[";
    bool first_row = true;
    for (const EnsembleObservation& o : m.observations()) {
      if (!first_row) {
        os << ',';
      }
      first_row = false;
      const double pred =
          m.fit_result().coef.empty()
              ? 0.0
              : std::max(0.0, m.fit_result().predict(EnsembleModel::features(
                                  o.scenarios, o.workers, o.batch,
                                  o.lane_evals, m.hw_threads())));
      os << "{\"scenarios\":" << o.scenarios << ",\"workers\":" << o.workers
         << ",\"batch\":" << o.batch << ",\"measured\":";
      append_number(os, o.seconds);
      os << ",\"predicted\":";
      append_number(os, pred);
      os << '}';
    }
    os << "]}";
  }
  os << "],\"stiff\":[";
  first_model = true;
  for (const auto& [n, m] : stiffs_) {
    if (!first_model) {
      os << ',';
    }
    first_model = false;
    os << "{\"problem_n\":" << n << ",\"dense_fit\":";
    append_fit(os, m.fit_result(false), kStiffTerms, 3);
    os << ",\"sparse_fit\":";
    append_fit(os, m.fit_result(true), kStiffTerms, 3);
    os << ",\"residuals\":[";
    bool first_row = true;
    for (const StiffObservation& o : m.observations()) {
      if (!first_row) {
        os << ',';
      }
      first_row = false;
      os << "{\"sparse\":" << (o.sparse ? "true" : "false")
         << ",\"jac_threads\":" << o.jac_threads << ",\"measured\":";
      append_number(os, o.seconds);
      os << ",\"predicted\":";
      append_number(os, m.has_backend(o.sparse)
                            ? m.predict(o.sparse, o.jac_threads)
                            : 0.0);
      os << '}';
    }
    os << "]}";
  }
  os << "],\"counters\":{\"observations\":"
     << obs::Registry::global().counter("tune.observations").value()
     << ",\"picks\":" << obs::Registry::global().counter("tune.picks").value()
     << ",\"refits\":"
     << obs::Registry::global().counter("tune.refits").value()
     << ",\"drift_events\":"
     << obs::Registry::global().counter("tune.drift_events").value()
     << "}}";
  return os.str();
}

bool AutoTuner::export_json(const std::string& path) const {
  return obs::write_file(path, model_json());
}

void AutoTuner::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ensembles_.clear();
  stiffs_.clear();
  ensemble_new_samples_.clear();
  stiff_new_samples_.clear();
}

std::uint64_t AutoTuner::picks() const {
  return obs::Registry::global().counter("tune.picks").value();
}

std::uint64_t AutoTuner::drift_events() const {
  return obs::Registry::global().counter("tune.drift_events").value();
}

std::uint64_t AutoTuner::refits() const {
  return obs::Registry::global().counter("tune.refits").value();
}

}  // namespace omx::tune
