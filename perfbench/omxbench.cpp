// omxbench — the repository benchmark's measuring binary.
//
// Drives the public API of parser, pipeline/codegen, exec, ode and svc,
// and a real omxd child process, from outside the program. Every layer
// call is timed here, in the benchmark's own code; nothing inside the
// program is instrumented for it. perfbench/run.py builds this binary,
// warms the native object cache and turns its report into the result
// line; see perfbench/README.md for the workloads and metrics.
//
//   omxbench --workload compile|stiff|service --seed N --seconds S
//            --trace 0|1 --omxd PATH [--spans PATH]
//   omxbench --warm compile|stiff|service
//
// Prints one JSON report on stdout. With --trace 1 the layer calls run
// individually inside spans held in memory (written to --spans at the
// end); with --trace 0 they run through the plain entry points.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "omx/analysis/dependency.hpp"
#include "omx/analysis/partition.hpp"
#include "omx/analysis/sparsity.hpp"
#include "omx/codegen/assignments.hpp"
#include "omx/codegen/cpp_emit.hpp"
#include "omx/codegen/tape.hpp"
#include "omx/codegen/tasks.hpp"
#include "omx/model/flatten.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/solve.hpp"
#include "omx/parser/parser.hpp"
#include "omx/parser/unparse.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/json.hpp"
#include "omx/svc/client.hpp"

extern char** environ;

namespace {

using namespace omx;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::string warm;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string omxd;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "omxbench: %s\n"
               "usage: omxbench --workload compile|stiff|service --seed N "
               "--seconds S --trace 0|1 --omxd PATH [--spans PATH]\n"
               "       omxbench --warm compile|stiff|service\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + k).c_str());
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--warm") {
      a.warm = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--omxd") {
      a.omxd = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  const std::string& w = a.warm.empty() ? a.workload : a.warm;
  if (w != "compile" && w != "stiff" && w != "service") {
    usage("workload must be compile, stiff or service");
  }
  if (a.warm.empty() && !(a.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return a;
}

// ------------------------------------------------------ seeded inputs

/// splitmix64, owned by the benchmark so the generated inputs do not
/// change when the program's own generators do.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_[name] = Metric{value, unit, samples};
  }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed, refused-and-never-completed or wrong-answer operation.
  void fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 8) {
      failures_.push_back(why);
    }
  }
  /// A check on the benchmark's own measurements that did not hold.
  void check_failed(const std::string& why) {
    check_ok_ = false;
    failures_.push_back(why);
  }
  void env(const std::string& k, const std::string& v) { env_[k] = v; }

  std::string json() const {
    std::ostringstream os;
    os << "{\"correct\": "
       << (failed_ == 0 && check_ok_ && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [k, m] : metrics_) {
      os << (first ? "" : ", ") << quoted(k) << ": {\"value\": "
         << num(m.value) << ", \"unit\": " << quoted(m.unit)
         << ", \"samples\": " << m.samples << "}";
      first = false;
    }
    os << "}, \"env\": {";
    first = true;
    for (const auto& [k, v] : env_) {
      os << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
      first = false;
    }
    os << "}, \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      os << (i > 0 ? ", " : "") << quoted(failures_[i]);
    }
    os << "]}";
    return os.str();
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> env_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool check_ok_ = true;
};

// ---------------------------------------------------------------- spans

/// Spans held in memory and written out when the run ends. A span is
/// either a timed interval (start/end on the run clock) or an aggregate
/// child: the summed duration and count of a hot call boundary (every
/// RHS evaluation, every event guard) inside its parent, which would be
/// too many to keep one by one.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint32_t op = 0;
    int parent = -1;
    double start = -1.0;  // seconds since the run began; -1 = aggregate
    double dur = 0.0;
    std::uint64_t count = 1;
    bool probe = false;  // attribution probe timed outside its parent
  };

  Tracer() : t0_(Clock::now()) { spans_.reserve(4096); }

  int open(const std::string& name, std::uint32_t op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, op, parent, since(t0_), 0.0, 1, false});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    spans_[id].dur = since(t0_) - spans_[id].start;
    stack_.pop_back();
  }
  void aggregate(const std::string& name, int parent, double dur,
                 std::uint64_t count) {
    spans_.push_back(
        Span{name, spans_[parent].op, parent, -1.0, dur, count, false});
  }
  /// A span that re-runs part of `parent`'s work outside it, to show
  /// how much of the parent that part takes.
  void probe(const std::string& name, int parent, double dur) {
    spans_.push_back(
        Span{name, spans_[parent].op, parent, -1.0, dur, 1, true});
  }

  double dur(int id) const { return spans_[id].dur; }
  /// Duration minus the children's; a probe re-ran part of its parent
  /// elsewhere, so it is not subtracted.
  double self(int id) const {
    double s = spans_[id].dur;
    for (const Span& c : spans_) {
      if (c.parent == id && !c.probe) {
        s -= c.dur;
      }
    }
    return s;
  }
  /// Summed duration of every span called `name`.
  double dur_total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) {
        s += sp.dur;
      }
    }
    return s;
  }

  void write(const std::string& path) const {
    if (path.empty()) {
      return;
    }
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
          << ", \"op\": " << s.op << ", \"parent\": " << s.parent
          << ", \"start_s\": " << num(s.start) << ", \"dur_s\": "
          << num(s.dur) << ", \"self_s\": " << num(self(static_cast<int>(i)))
          << ", \"count\": " << s.count
          << ", \"probe\": " << (s.probe ? "true" : "false") << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint32_t op)
      : t_(t), id_(t.open(name, op)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------- hot boundaries

/// Counts and times the calls a solver makes back into the kernel and
/// the event guards, through wrapped Problem callables. Batched calls
/// may come from several threads at once (the colored-FD Jacobian runs
/// color groups on distinct lanes), so their time is the wall time
/// during which at least one batched call was running.
struct HotCounters {
  std::atomic<std::uint64_t> rhs_calls{0}, rhs_ns{0};
  std::atomic<std::uint64_t> batch_lanes{0};
  std::atomic<std::uint64_t> guard_calls{0}, guard_ns{0};
  std::atomic<std::uint64_t> resets{0}, reset_ns{0};
  std::mutex busy_mutex;
  int busy = 0;  // guarded by busy_mutex
  Clock::time_point busy_since;
  std::uint64_t batch_busy_ns = 0;  // guarded by busy_mutex

  void batch_enter() {
    const std::lock_guard<std::mutex> lock(busy_mutex);
    if (busy++ == 0) {
      busy_since = Clock::now();
    }
  }
  void batch_exit() {
    const std::lock_guard<std::mutex> lock(busy_mutex);
    if (--busy == 0) {
      batch_busy_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now() - busy_since)
              .count());
    }
  }
};

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// A copy of `base` whose rhs, batch_rhs, event guards and resets count
/// and time every call into `hc`. `base` must outlive the copy (the
/// wrappers call through its callables).
ode::Problem instrumented(const ode::Problem& base, HotCounters& hc) {
  ode::Problem p = base;
  const ode::RhsFn inner = base.rhs;
  p.set_rhs([inner, &hc](double t, std::span<const double> y,
                         std::span<double> ydot) {
    const Clock::time_point t0 = Clock::now();
    inner(t, y, ydot);
    hc.rhs_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
    hc.rhs_calls.fetch_add(1, std::memory_order_relaxed);
  });
  if (base.batch_rhs) {
    const ode::BatchRhsFn inner_b = base.batch_rhs;
    p.set_batch_rhs([inner_b, &hc](std::size_t lane, std::size_t nb,
                                   const double* t, const double* y,
                                   double* ydot) {
      hc.batch_enter();
      inner_b(lane, nb, t, y, ydot);
      hc.batch_exit();
      hc.batch_lanes.fetch_add(nb, std::memory_order_relaxed);
    });
  }
  if (base.events) {
    auto spec = std::make_shared<ode::EventSpec>(*base.events);
    for (ode::EventFunction& f : spec->functions) {
      auto guard = f.guard;
      f.guard = [guard, &hc](double t, std::span<const double> y) {
        const Clock::time_point t0 = Clock::now();
        const double g = guard(t, y);
        hc.guard_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
        hc.guard_calls.fetch_add(1, std::memory_order_relaxed);
        return g;
      };
      if (f.reset) {
        auto reset = f.reset;
        f.reset = [reset, &hc](double t, std::span<double> y) {
          const Clock::time_point t0 = Clock::now();
          reset(t, y);
          hc.reset_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
          hc.resets.fetch_add(1, std::memory_order_relaxed);
        };
      }
    }
    p.events = std::move(spec);
  }
  return p;
}

// ------------------------------------------------------------------ sink

/// Thread-safe sink that keeps, per scenario, the row count, the last
/// row and the solver statistics, and counts committed chunks.
/// Committed chunks are recycled; the sink owns every chunk it lends.
class FinalsSink final : public ode::TrajectorySink {
 public:
  explicit FinalsSink(std::size_t scenarios) : sc_(scenarios) {}

  ode::TrajectoryChunk* acquire(std::uint32_t scenario,
                                std::size_t n) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) {
      all_.push_back(std::make_unique<ode::TrajectoryChunk>());
      free_.push_back(all_.back().get());
    }
    ode::TrajectoryChunk* c = free_.back();
    free_.pop_back();
    c->reset(scenario, n, kDefaultChunkRows);
    return c;
  }
  void commit(ode::TrajectoryChunk* c) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    Scenario& s = sc_[c->scenario];
    if (c->size > 0) {
      s.rows += c->size;
      const std::span<const double> y = c->row_view(c->size - 1);
      s.y.assign(y.begin(), y.end());
    }
    ++chunks_;
    free_.push_back(c);
  }
  void finish(std::uint32_t scenario, const ode::SolverStats& st) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    sc_[scenario].stats = st;
  }

  struct Scenario {
    std::uint64_t rows = 0;
    std::vector<double> y;  // the last row
    ode::SolverStats stats;
  };
  const std::vector<Scenario>& scenarios() const { return sc_; }
  std::uint64_t chunks() const { return chunks_; }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ode::TrajectoryChunk>> all_;
  std::vector<ode::TrajectoryChunk*> free_;
  std::vector<Scenario> sc_;
  std::uint64_t chunks_ = 0;
};

// ----------------------------------------------------- solve accounting

/// Per-solve layer totals of the traced runs: one "solve" is one
/// ode::solve call or one solve_ensemble job.
struct SolveTotals {
  std::vector<double> wall, rhs, batch, jac_fd, guard, reset;
  double rhs_calls = 0, batch_lanes = 0, jac_fd_lanes = 0, guard_calls = 0;
  double fired = 0;
  double steps = 0, rejected = 0, newton = 0, jac_calls = 0, jac_fact = 0,
         jac_reuse = 0, switches = 0, rows = 0, chunks = 0;
  std::size_t solves() const { return wall.size(); }
};

/// Runs `solve` on an instrumented copy of `base` inside an "ode.solve"
/// span and books the hot-boundary time as aggregate child spans.
/// `batch_is_fd` names what batched calls are on this path: FD Jacobian
/// color groups for ode::solve, the RHS itself for solve_ensemble.
void traced_solve(Tracer& tr, std::uint32_t op, const ode::Problem& base,
                  bool batch_is_fd, SolveTotals& tot,
                  const std::function<void(const ode::Problem&)>& solve) {
  HotCounters hc;
  const ode::Problem p = instrumented(base, hc);
  int id = -1;
  {
    Scope s(tr, "ode.solve", op);
    id = s.id();
    solve(p);
  }
  const double rhs = 1e-9 * static_cast<double>(hc.rhs_ns.load());
  const double batch = 1e-9 * static_cast<double>(hc.batch_busy_ns);
  const double guard = 1e-9 * static_cast<double>(hc.guard_ns.load());
  const double reset = 1e-9 * static_cast<double>(hc.reset_ns.load());
  tr.aggregate("exec.rhs", id, rhs, hc.rhs_calls.load());
  tr.aggregate(batch_is_fd ? "ode.jac_fd" : "exec.batch_rhs", id, batch,
               hc.batch_lanes.load());
  tr.aggregate("events.guard", id, guard, hc.guard_calls.load());
  tr.aggregate("events.reset", id, reset, hc.resets.load());
  tot.wall.push_back(tr.dur(id));
  tot.rhs.push_back(rhs);
  tot.batch.push_back(batch_is_fd ? 0.0 : batch);
  tot.jac_fd.push_back(batch_is_fd ? batch : 0.0);
  tot.guard.push_back(guard);
  tot.reset.push_back(reset);
  tot.rhs_calls += static_cast<double>(hc.rhs_calls.load());
  const auto lanes = static_cast<double>(hc.batch_lanes.load());
  (batch_is_fd ? tot.jac_fd_lanes : tot.batch_lanes) += lanes;
  tot.guard_calls += static_cast<double>(hc.guard_calls.load());
}

void add_stats(SolveTotals& tot, const FinalsSink& sink) {
  for (const FinalsSink::Scenario& s : sink.scenarios()) {
    tot.steps += static_cast<double>(s.stats.steps);
    tot.rejected += static_cast<double>(s.stats.rejected);
    tot.newton += static_cast<double>(s.stats.newton_iters);
    tot.jac_calls += static_cast<double>(s.stats.jac_calls);
    tot.jac_fact += static_cast<double>(s.stats.jac_factorizations);
    tot.jac_reuse += static_cast<double>(s.stats.jac_reuse_hits);
    tot.switches += static_cast<double>(s.stats.method_switches);
    tot.fired += static_cast<double>(s.stats.events);
    tot.rows += static_cast<double>(s.rows);
  }
  tot.chunks += static_cast<double>(sink.chunks());
}

// ------------------------------------------------------------- set-up

std::string bearing_source(int rollers) {
  expr::Context ctx;
  models::BearingConfig cfg;
  cfg.n_rollers = rollers;
  return parser::unparse_model(models::build_bearing(ctx, cfg));
}

constexpr int kCompileRollers = 40;  // 206 states
constexpr int kStiffRollers = 20;    // 106 states
constexpr int kSweepRollers = 10;    // 56 states

/// Model source text turned into a ready problem.
struct Ready {
  std::unique_ptr<pipeline::CompiledModel> cm;
  exec::KernelInstance kernel;
  ode::Problem problem;
};

/// Set-up through the plain entry points: parse_model inside
/// pipeline::compile_model, then make_kernel(kNative) and make_problem.
Ready setup_plain(const std::string& src, double tend) {
  Ready r;
  r.cm = std::make_unique<pipeline::CompiledModel>(pipeline::compile_model(
      [&src](expr::Context& ctx) { return parser::parse_model(src, ctx); }));
  r.kernel = r.cm->make_kernel(exec::Backend::kNative);
  r.problem = r.cm->make_problem(r.kernel, 0.0, tend);
  return r;
}

void require_native(const Ready& r, const char* what) {
  if (r.kernel.backend() != exec::Backend::kNative) {
    throw std::runtime_error(std::string(what) +
                             ": native backend unavailable");
  }
}

/// An untimed set-up of each source: before a traced run's interleaved
/// plain and traced set-ups, so the first-time costs of the process
/// (page faults, the first dlopen) land in neither, and to warm the
/// native object cache.
void untimed_setups(const std::vector<std::string>& srcs) {
  for (const std::string& src : srcs) {
    require_native(setup_plain(src, 1.0), "set-up");
  }
}

/// Sizes of what one set-up produced (summed over the set-ups of a run).
struct SetupCounts {
  double source_bytes = 0, states = 0, algebraics = 0, sccs = 0,
         largest_scc = 0, tasks = 0, tape_ops = 0, emit_bytes = 0;
};

/// The same set-up with each stage of pipeline::compile_model called on
/// its own inside a span, in compile_model's order; `seconds` gets the
/// set-up span's duration. The four emit_cpp_* calls that
/// make_native_kernel makes internally are repeated after the set-up as
/// a probe of exec.native_kernel, to show the C++ emission's share of it
/// (the rest is hashing, cache lookup and dlopen).
Ready setup_traced(const std::string& src, double tend, Tracer& tr,
                   std::uint32_t op, SetupCounts& counts, double& seconds) {
  Ready r;
  r.cm = std::make_unique<pipeline::CompiledModel>();
  pipeline::CompiledModel& cm = *r.cm;
  int top_id = -1;
  int native_id = -1;
  {
    Scope top(tr, "setup", op);
    top_id = top.id();
    cm.ctx = std::make_unique<expr::Context>();
    std::optional<model::Model> m;
    {
      Scope s(tr, "parser.parse", op);
      m.emplace(parser::parse_model(src, *cm.ctx));
    }
    {
      Scope s(tr, "model.flatten", op);
      cm.flat = std::make_unique<model::FlatSystem>(model::flatten(*m));
      m.reset();
    }
    {
      Scope s(tr, "analysis.deps", op);
      cm.deps = analysis::analyze_dependencies(*cm.flat);
      cm.partition = analysis::partition_by_scc(*cm.flat, cm.deps);
      cm.sparsity = std::make_shared<la::SparsityPattern>(
          analysis::structural_sparsity(cm.deps, cm.flat->num_states()));
    }
    {
      Scope s(tr, "codegen.assignments", op);
      cm.assignments = codegen::build_assignments(*cm.flat, {});
    }
    {
      Scope s(tr, "codegen.tasks", op);
      cm.plan = codegen::plan_tasks(*cm.flat, cm.assignments, {});
    }
    {
      Scope s(tr, "codegen.tapes", op);
      cm.parallel_program = codegen::compile_parallel_tape(*cm.flat, cm.plan);
      cm.serial_program =
          codegen::compile_serial_tape(*cm.flat, cm.assignments);
    }
    {
      Scope s(tr, "exec.native_kernel", op);
      native_id = s.id();
      r.kernel = cm.make_kernel(exec::Backend::kNative);
    }
    {
      Scope s(tr, "exec.make_problem", op);
      r.problem = cm.make_problem(r.kernel, 0.0, tend);
    }
  }
  seconds = tr.dur(top_id);
  // Same options as the native backend's source composition.
  codegen::EmitOptions eo;
  eo.with_helpers = false;
  eo.with_prelude = false;
  eo.simd_math = true;
  const Clock::time_point t0 = Clock::now();
  const std::size_t bytes =
      codegen::emit_cpp_serial(*cm.flat, cm.assignments, eo).code.size() +
      codegen::emit_cpp_parallel(*cm.flat, cm.plan, eo).code.size() +
      codegen::emit_cpp_serial_batch(*cm.flat, cm.assignments, eo)
          .code.size() +
      codegen::emit_cpp_parallel_batch(*cm.flat, cm.plan, eo).code.size();
  tr.probe("codegen.emit_cpp", native_id, since(t0));

  counts.source_bytes += static_cast<double>(src.size());
  counts.states += static_cast<double>(cm.flat->num_states());
  counts.algebraics += static_cast<double>(cm.flat->num_algebraics());
  counts.sccs += static_cast<double>(cm.partition.num_subsystems());
  counts.largest_scc += static_cast<double>(cm.partition.largest());
  counts.tasks += static_cast<double>(cm.plan.tasks.size());
  counts.tape_ops += static_cast<double>(cm.parallel_program.total_ops() +
                                         cm.serial_program.total_ops());
  counts.emit_bytes += static_cast<double>(bytes);
  return r;
}

/// Set-up times of one run: plain set-ups always, traced ones in a
/// traced run, interleaved so both see the same machine state. One
/// sample is one set-up of every model the workload uses.
struct SetupLog {
  std::vector<double> plain_s, traced_s;
  SetupCounts counts;
};

/// Sets up each source (its problem over [0, tend]), traced when a
/// tracer is given, and logs the summed time.
std::vector<Ready> setup_models(
    const std::vector<std::pair<std::string, double>>& models, Tracer* tr,
    std::uint32_t op, SetupLog& log) {
  std::vector<Ready> out;
  double total = 0.0;
  for (const auto& [src, tend] : models) {
    if (tr != nullptr) {
      double seconds = 0.0;
      out.push_back(setup_traced(src, tend, *tr, op, log.counts, seconds));
      total += seconds;
    } else {
      const Clock::time_point t0 = Clock::now();
      out.push_back(setup_plain(src, tend));
      total += since(t0);
    }
  }
  (tr != nullptr ? log.traced_s : log.plain_s).push_back(total);
  return out;
}

// The stages of a set-up, in pipeline order, with their metric names.
// Their durations add up to the set-up's.
const std::pair<const char*, const char*> kSetupLayers[] = {
    {"parser.parse", "parser.parse_s"},
    {"model.flatten", "model.flatten_s"},
    {"analysis.deps", "analysis.deps_s"},
    {"codegen.assignments", "codegen.assignments_s"},
    {"codegen.tasks", "codegen.tasks_s"},
    {"codegen.tapes", "codegen.tapes_s"},
    {"exec.native_kernel", "exec.native_kernel_s"},
    {"exec.make_problem", "exec.make_problem_s"},
};

/// Per-layer set-up metrics (means per traced set-up) and, when `check`,
/// the check that the layer times add up to the plain set-up time within
/// the tracing overhead. Reports zeros when no traced set-up ran.
void report_setup_layers(const SetupLog& log, const Tracer* tr, bool check,
                         Report& rep) {
  const std::size_t k = log.traced_s.size();
  const double per = k > 0 ? 1.0 / static_cast<double>(k) : 0.0;
  auto total = [&](const char* span) {
    return tr != nullptr ? tr->dur_total(span) * per : 0.0;
  };
  double layer_sum = 0.0;
  for (const auto& [span, metric] : kSetupLayers) {
    layer_sum += total(span);
    rep.set(metric, total(span), "s", k);
  }
  rep.set("codegen.emit_cpp_s", total("codegen.emit_cpp"), "s", k);
  const SetupCounts& c = log.counts;
  rep.set("parser.source_bytes", c.source_bytes * per, "bytes", k);
  rep.set("model.states", c.states * per, "count", k);
  rep.set("model.algebraics", c.algebraics * per, "count", k);
  rep.set("analysis.sccs", c.sccs * per, "count", k);
  rep.set("analysis.largest_scc", c.largest_scc * per, "count", k);
  rep.set("codegen.tasks", c.tasks * per, "count", k);
  rep.set("vm.tape_ops", c.tape_ops * per, "count", k);
  rep.set("codegen.emit_cpp_bytes", c.emit_bytes * per, "bytes", k);

  const double traced = mean(log.traced_s);
  const double plain = mean(log.plain_s);
  const bool both = k > 0 && !log.plain_s.empty();
  const double overhead = both ? traced - plain : 0.0;
  rep.set("trace.setup_traced_s", traced, "s", k);
  rep.set("trace.setup_plain_s", plain, "s", log.plain_s.size());
  rep.set("trace.layer_sum_s", layer_sum, "s", k);
  rep.set("trace.overhead_s", overhead, "s", k);
  rep.set("trace.unattributed_s", k > 0 ? traced - layer_sum : 0.0, "s", k);
  // 2% of the set-up is allowed on top of the overhead for the noise
  // between the separately timed plain and traced set-ups.
  if (check && both &&
      std::fabs(layer_sum - plain) > std::fabs(overhead) + 0.02 * plain) {
    rep.check_failed("set-up layer times sum to " + num(layer_sum) +
                     " s, plain set-up " + num(plain) +
                     " s, tracing overhead " + num(overhead) + " s");
  }
}

/// Per-layer solver metrics: means per solve (one ode::solve call or
/// one solve_ensemble job). ode.self_s is the solve's wall time minus
/// the time inside the kernel and event callbacks, so the parts add up
/// to ode.solve_s.
void report_solve_layers(const SolveTotals& t, Report& rep) {
  const std::size_t k = t.solves();
  const double per = k > 0 ? 1.0 / static_cast<double>(k) : 0.0;
  const double wall = mean(t.wall), rhs = mean(t.rhs), batch = mean(t.batch),
               fd = mean(t.jac_fd), guard = mean(t.guard),
               reset = mean(t.reset);
  rep.set("ode.solve_s", wall, "s", k);
  rep.set("exec.rhs_s", rhs, "s", k);
  rep.set("exec.rhs_calls", t.rhs_calls * per, "count", k);
  rep.set("exec.batch_rhs_s", batch, "s", k);
  rep.set("exec.batch_lanes", t.batch_lanes * per, "count", k);
  rep.set("ode.jac_fd_s", fd, "s", k);
  rep.set("ode.jac_fd_lanes", t.jac_fd_lanes * per, "count", k);
  rep.set("events.guard_s", guard, "s", k);
  rep.set("events.guard_calls", t.guard_calls * per, "count", k);
  rep.set("events.reset_s", reset, "s", k);
  rep.set("events.fired", t.fired * per, "count", k);
  rep.set("ode.self_s", wall - rhs - batch - fd - guard - reset, "s", k);
  rep.set("ode.steps", t.steps * per, "count", k);
  rep.set("ode.rejected", t.rejected * per, "count", k);
  rep.set("ode.accept_ratio",
          t.steps + t.rejected > 0 ? t.steps / (t.steps + t.rejected) : 0.0,
          "ratio", k);
  rep.set("ode.newton_iters", t.newton * per, "count", k);
  rep.set("ode.jac_calls", t.jac_calls * per, "count", k);
  rep.set("ode.jac_factorizations", t.jac_fact * per, "count", k);
  rep.set("ode.jac_reuse_hits", t.jac_reuse * per, "count", k);
  rep.set("ode.method_switches", t.switches * per, "count", k);
  rep.set("sink.rows", t.rows * per, "count", k);
  rep.set("sink.chunks", t.chunks * per, "count", k);
}

// ------------------------------------------------------------- checks

/// Largest component error of `y` against `ref`, in units of
/// atol + rtol * |ref|.
double scaled_error(std::span<const double> y, std::span<const double> ref,
                    double rtol, double atol) {
  if (y.size() != ref.size()) {
    return INFINITY;
  }
  double e = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double d = std::fabs(y[i] - ref[i]) / (atol + rtol * std::fabs(ref[i]));
    e = std::isnan(d) ? INFINITY : std::max(e, d);
  }
  return e;
}

/// Largest component error of `y` against `ref` in units of `rel` times
/// the largest |ref| among the states of the same kind (kinds[i], e.g.
/// every roller's "omega"), so that a state passing near zero is judged
/// on the scale of its kind.
double kind_scaled_error(std::span<const double> y,
                         std::span<const double> ref,
                         const std::vector<std::string>& kinds, double rel) {
  if (y.size() != ref.size() || kinds.size() != ref.size()) {
    return INFINITY;
  }
  std::map<std::string, double> scale;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    scale[kinds[i]] = std::max(scale[kinds[i]], std::fabs(ref[i]));
  }
  double e = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double d =
        std::fabs(y[i] - ref[i]) / (rel * scale[kinds[i]] + 1e-12);
    e = std::isnan(d) ? INFINITY : std::max(e, d);
  }
  return e;
}

/// The kind of each state: its name after the last '.' ("omega" for
/// "w[3].omega").
std::vector<std::string> state_kinds(const pipeline::CompiledModel& cm) {
  std::vector<std::string> kinds;
  for (std::size_t i = 0; i < cm.n(); ++i) {
    const std::string& name = cm.flat->state_name(i);
    kinds.push_back(name.substr(name.rfind('.') + 1));
  }
  return kinds;
}

/// The bearing's initial state with every component moved by a seeded
/// relative 1e-5 and absolute 1e-7 (well inside the 20 um clearance).
std::vector<double> perturbed(const std::vector<double>& y0, Rng& rng) {
  std::vector<double> y = y0;
  for (double& v : y) {
    v = v * (1.0 + rng.uniform(-1e-5, 1e-5)) + rng.uniform(-1e-7, 1e-7);
  }
  return y;
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Number of compiled objects in the native cache directory. Its growth
/// over a run counts the native compiles of every process involved.
std::size_t cached_objects() {
  const char* dir = std::getenv("OMX_NATIVE_CACHE_DIR");
  if (dir == nullptr) {
    return 0;
  }
  std::size_t n = 0;
  if (DIR* d = opendir(dir)) {
    while (const dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 3 && name.compare(name.size() - 3, 3, ".so") == 0) {
        ++n;
      }
    }
    closedir(d);
  }
  return n;
}


// ------------------------------------------------------------ workloads
//
// Every workload sets up from model source text and then solves; the
// constants below size each one (see perfbench/README.md for why).

// compile: 40-roller bearing; each operation is one set-up plus short
// native solves checked against the reference backend. Fixed-step RK4,
// so both backends take the same steps and agree to rounding.
constexpr double kCheckTend = 1e-3;
constexpr double kCheckDt = 1e-6;
constexpr int kCheckSolves = 5;

// stiff: 20-roller bearing, one long LSODA-like solve per operation.
constexpr double kStiffTend = 0.05;
constexpr int kStiffSetups = 5;

// service: omxd with 2 executors x 1 job worker; two closed-loop
// connections, one per job class.
constexpr std::size_t kSweepScenarios = 16;
constexpr double kSweepTend = 0.005;
constexpr std::size_t kStreamScenarios = 256;
constexpr double kBallTend = 2.5;
constexpr std::size_t kPoolJobs = 4;
constexpr int kServiceSegments = 3;

constexpr std::size_t kFinalOnly = std::size_t{1} << 30;

void run_compile(const Args& a, Report& rep, Tracer* tr) {
  const std::string src = bearing_source(kCompileRollers);
  Rng rng(a.seed);
  SetupLog log;
  SolveTotals tot;
  std::vector<double> solve_s;
  ode::SolverOptions so;
  so.dt = kCheckDt;
  so.record_every = kFinalOnly;
  std::vector<double> y0, ref;
  std::vector<std::string> kinds;
  double busy = 0.0;
  std::size_t done = 0;
  const std::size_t min_ops = tr != nullptr ? 4 : 2;
  if (tr != nullptr) {
    untimed_setups({src});
  }
  const Clock::time_point start = Clock::now();
  for (std::uint32_t op = 0; op < min_ops || since(start) < a.seconds; ++op) {
    const bool traced = tr != nullptr && op % 2 == 1;
    rep.attempt();
    try {
      const Ready r = std::move(setup_models({{src, kCheckTend}},
                                             traced ? tr : nullptr, op,
                                             log)[0]);
      busy += (traced ? log.traced_s : log.plain_s).back();
      require_native(r, "compile");
      if (ref.empty()) {
        // Untimed: the reference backend (tree-walking evaluation of the
        // flattened equations) on the same seeded initial state.
        y0 = perturbed(r.problem.y0, rng);
        ode::Problem rp =
            r.cm->make_problem(exec::Backend::kReference, 0.0, kCheckTend);
        rp.y0 = y0;
        const ode::Solution sol = ode::solve(rp, ode::Method::kRk4, so);
        ref.assign(sol.final_state().begin(), sol.final_state().end());
        kinds = state_kinds(*r.cm);
      }
      ode::Problem p = r.problem;
      p.y0 = y0;
      bool ok = true;
      for (int k = 0; k < kCheckSolves; ++k) {
        FinalsSink sink(1);
        auto solve = [&](const ode::Problem& q) {
          ode::solve(q, ode::Method::kRk4, so, sink);
        };
        const Clock::time_point t0 = Clock::now();
        if (traced) {
          traced_solve(*tr, op, p, true, tot, solve);
          add_stats(tot, sink);
        } else {
          solve(p);
          solve_s.push_back(since(t0));
        }
        busy += since(t0);
        const double err =
            kind_scaled_error(sink.scenarios()[0].y, ref, kinds, 1e-9);
        if (!(err <= 1.0)) {
          ok = false;
          rep.fail("compile: native solve differs from the reference "
                   "backend by " + num(err) + " tolerance units");
          break;
        }
      }
      done += ok ? 1 : 0;
    } catch (const std::exception& e) {
      rep.fail(std::string("compile: ") + e.what());
    }
  }
  rep.set("setup_s", quantile(log.plain_s, 0.5), "s", log.plain_s.size());
  rep.set("solve_s", quantile(solve_s, 0.5), "s", solve_s.size());
  rep.set("scenarios_per_s", busy > 0 ? static_cast<double>(done) / busy : 0,
          "1/s", done);
  report_setup_layers(log, tr, true, rep);
  report_solve_layers(tot, rep);
}

void run_stiff(const Args& a, Report& rep, Tracer* tr) {
  const std::string src = bearing_source(kStiffRollers);
  Rng rng(a.seed);
  SetupLog log;
  Ready r;
  const int setups = tr != nullptr ? 2 * kStiffSetups : kStiffSetups;
  if (tr != nullptr) {
    untimed_setups({src});
  }
  for (int i = 0; i < setups; ++i) {
    const bool traced = tr != nullptr && i % 2 == 1;
    rep.attempt();
    r = std::move(setup_models({{src, kStiffTend}}, traced ? tr : nullptr,
                               static_cast<std::uint32_t>(i), log)[0]);
  }
  require_native(r, "stiff");

  ode::Problem p = r.problem;
  p.y0 = perturbed(p.y0, rng);
  ode::SolverOptions so;
  so.tol.rtol = 1e-6;
  so.tol.atol = 1e-9;
  so.jac_threads = 2;
  so.record_every = kFinalOnly;
  // Untimed: a tight-tolerance solve of the same problem.
  ode::SolverOptions tight = so;
  tight.tol.rtol = 1e-8;
  tight.tol.atol = 1e-11;
  FinalsSink ref(1);
  ode::solve(p, ode::Method::kLsodaLike, tight, ref);
  const std::vector<double> yref = ref.scenarios()[0].y;
  const std::vector<std::string> kinds = state_kinds(*r.cm);

  SolveTotals tot;
  std::vector<double> solve_s;
  double busy = 0.0;
  std::size_t done = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t op = 0; op < 3 || since(start) < a.seconds; ++op) {
    rep.attempt();
    try {
      FinalsSink sink(1);
      auto solve = [&](const ode::Problem& q) {
        ode::solve(q, ode::Method::kLsodaLike, so, sink);
      };
      const Clock::time_point t0 = Clock::now();
      if (tr != nullptr) {
        traced_solve(*tr, 100 + op, p, true, tot, solve);
        add_stats(tot, sink);
      } else {
        solve(p);
        solve_s.push_back(since(t0));
      }
      busy += since(t0);
      // Global error of an rtol 1e-6 solve against the tight one, per
      // kind of state: friction makes single roller spins drift by ~1%.
      const double err =
          kind_scaled_error(sink.scenarios()[0].y, yref, kinds, 2e-3);
      if (!(err <= 1.0)) {
        rep.fail("stiff: final state off the tight-tolerance solve by " +
                 num(err) + " tolerance units");
      } else {
        ++done;
      }
    } catch (const std::exception& e) {
      rep.fail(std::string("stiff: ") + e.what());
    }
  }
  rep.set("setup_s", quantile(log.plain_s, 0.5), "s", log.plain_s.size());
  rep.set("solve_s", quantile(solve_s, 0.5), "s", solve_s.size());
  rep.set("scenarios_per_s", busy > 0 ? static_cast<double>(done) / busy : 0,
          "1/s", done);
  report_setup_layers(log, tr, false, rep);
  report_solve_layers(tot, rep);
}

// --------------------------------------------------------------- service

/// An omxd child process on an ephemeral loopback port. Stopped (SIGTERM
/// and waited for) by stop() or the destructor.
class Daemon {
 public:
  explicit Daemon(const std::string& exe) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("omxd: pipe failed");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    std::vector<std::string> args = {exe,         "--port", "0",
                                     "--executors", "2",    "--job-workers",
                                     "1"};
    std::vector<char*> argv;
    for (std::string& s : args) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    rd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      stop();
      throw std::runtime_error("omxd: cannot start " + exe);
    }
    // The daemon announces "omxd listening on <port>".
    std::string line;
    const Clock::time_point t0 = Clock::now();
    while (line.find('\n') == std::string::npos && since(t0) < 30.0) {
      pollfd pfd{rd_, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) {
        continue;
      }
      char buf[256];
      const ssize_t n = ::read(rd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      line.append(buf, static_cast<std::size_t>(n));
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "omxd listening on %u", &port) != 1) {
      stop();
      throw std::runtime_error("omxd: no port announcement");
    }
    port_ = static_cast<std::uint16_t>(port);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// Peak resident set of the daemon so far (VmHWM).
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        in >> kb;
        return kb / 1024.0;
      }
    }
    return 0.0;
  }

  void stop() {
    if (pid_ > 0) {
      // omxd waits for SIGTERM in sigsuspend on its main thread; a
      // process-directed signal may be taken by one of its other threads
      // and leave the main thread asleep, so direct it at the main thread
      // (tid == pid). SIGKILL if it has not exited within 10 s.
      ::syscall(SYS_tgkill, pid_, pid_, SIGTERM);
      int status = 0;
      const Clock::time_point t0 = Clock::now();
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (since(t0) > 10.0) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (rd_ >= 0) {
      ::close(rd_);
      rd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int rd_ = -1;
  std::uint16_t port_ = 0;
};

/// One job's inputs and expected final states (row-major, scenario x n).
struct JobInput {
  std::vector<double> y0s;
  std::vector<double> expect;
};

/// Analytic bouncing-ball state (h, v) at `tend` from a rest drop at h0.
std::array<double, 2> ball_state(double h0, double tend) {
  models::BouncingBall cfg;
  cfg.h0 = h0;
  const std::vector<double> hits =
      models::bouncing_ball_bounce_times(cfg, tend);
  if (hits.empty()) {
    return {h0 - 0.5 * cfg.g * tend * tend, -cfg.g * tend};
  }
  // Speed leaving the k-th impact: e^k times the first impact speed.
  const double u = std::pow(cfg.e, static_cast<double>(hits.size())) *
                   std::sqrt(2.0 * cfg.g * h0);
  const double tau = tend - hits.back();
  return {u * tau - 0.5 * cfg.g * tau * tau, u - cfg.g * tau};
}

/// Client-side log of one job class.
struct ClassLog {
  std::vector<double> latency_s, submit_rtt_s, first_frame_s;
  std::uint64_t attempted = 0, scenarios = 0, frames = 0, bytes = 0,
                retries = 0;
  double queue_depth_max = 0.0;
  std::vector<std::string> failures;
};

/// Closed loop on one connection: submit the next job of the pool only
/// after the previous one's DONE, until `seconds` have passed. Every
/// job's streamed rows are checked against the DONE row counts and its
/// final rows against the expected states.
void drive_class(svc::Client& c, const std::string& model, bool sweep,
                 const std::vector<JobInput>& pool, std::size_t n,
                 double tend, Clock::time_point start, double seconds,
                 bool poll_stats, ClassLog& log) {
  const char* cls = sweep ? "sweep" : "stream";
  for (std::size_t j = 0; since(start) < seconds; ++j) {
    const JobInput& in = pool[j % pool.size()];
    const std::size_t ns = in.y0s.size() / n;
    svc::SubmitRequest req;
    req.model = model;
    req.method = "dopri5";
    req.tend = tend;
    req.scenarios = ns;
    req.y0s = in.y0s;
    req.record_every = sweep ? kFinalOnly : 1;
    ++log.attempted;
    const Clock::time_point t0 = Clock::now();
    svc::SubmitResult sr = c.submit(req);
    while (!sr.accepted && since(t0) < 30.0) {
      ++log.retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, sr.retry_after_ms)));
      sr = c.submit(req);
    }
    if (!sr.accepted) {
      log.failures.push_back(std::string(cls) + ": refused for 30 s");
      continue;
    }
    log.submit_rtt_s.push_back(since(t0));
    std::vector<std::uint64_t> rows(ns, 0);
    std::vector<double> last(ns * n, NAN);
    bool first = true;
    std::string why;
    bool desync = false;  // the connection is out of step with the job
    for (;;) {
      svc::Event ev;
      if (!c.next_event(ev, 60000)) {
        why = "no DONE within 60 s";
        desync = true;
        break;
      }
      if (ev.job != sr.job) {
        why = "event for another job";
        desync = true;
        break;
      }
      if (ev.kind == svc::Event::Kind::kFrame) {
        if (first) {
          log.first_frame_s.push_back(since(t0));
          first = false;
        }
        if (ev.scenario >= ns || ev.n != n || ev.rows == 0) {
          why = "malformed frame";
          desync = true;
          break;
        }
        rows[ev.scenario] += ev.rows;
        std::copy_n(ev.states.data() + (ev.rows - 1) * n, n,
                    last.data() + ev.scenario * n);
        ++log.frames;
        log.bytes += 8 * ev.rows * (n + 1);
        continue;
      }
      const double latency = since(t0);
      if (!ev.error.empty() || ev.cancelled) {
        why = "job failed: " + ev.error;
      } else if (ev.row_counts != rows) {
        why = "streamed rows differ from the DONE row counts";
      } else {
        // Sweep finals must match the in-process run of the same job;
        // ball finals the analytic bounce solution.
        const double err =
            sweep ? scaled_error(last, in.expect, 1e-4, 1e-8)
                  : scaled_error(last, in.expect, 1e-5, 1e-6);
        if (!(err <= 1.0)) {
          why = "final states off by " + num(err) + " tolerance units";
        }
      }
      if (why.empty()) {
        log.latency_s.push_back(latency);
        log.scenarios += ns;
      }
      break;
    }
    if (!why.empty()) {
      log.failures.push_back(std::string(cls) + ": " + why);
      if (desync) {
        return;
      }
    }
    if (poll_stats) {
      const support::json::Value st = support::json::parse(c.stats());
      log.queue_depth_max = std::max(log.queue_depth_max,
                                     st.get_number("queued_jobs", 0.0));
    }
  }
}

/// Client-side and in-process twin metrics of the service traffic; zeros
/// with no samples on the workloads that run none.
void report_service_layers(const ClassLog& sweep, const ClassLog& stream,
                           const std::vector<double>& twin_sweep_s,
                           const std::vector<double>& twin_stream_s,
                           Report& rep) {
  const double sweep_p50 = quantile(sweep.latency_s, 0.5);
  const double stream_p50 = quantile(stream.latency_s, 0.5);
  const std::size_t jobs = sweep.latency_s.size() + stream.latency_s.size();
  rep.set("svc.sweep_job_p50_ms", 1e3 * sweep_p50, "ms",
          sweep.latency_s.size());
  rep.set("svc.sweep_job_p90_ms", 1e3 * quantile(sweep.latency_s, 0.9),
          "ms", sweep.latency_s.size());
  rep.set("svc.stream_job_p50_ms", 1e3 * stream_p50, "ms",
          stream.latency_s.size());
  rep.set("svc.stream_job_p90_ms", 1e3 * quantile(stream.latency_s, 0.9),
          "ms", stream.latency_s.size());
  std::vector<double> rtt = sweep.submit_rtt_s;
  rtt.insert(rtt.end(), stream.submit_rtt_s.begin(),
             stream.submit_rtt_s.end());
  rep.set("svc.submit_rtt_ms", 1e3 * quantile(rtt, 0.5), "ms", rtt.size());
  rep.set("svc.first_frame_ms", 1e3 * quantile(stream.first_frame_s, 0.5),
          "ms", stream.first_frame_s.size());
  const double per_job = jobs > 0 ? 1.0 / static_cast<double>(jobs) : 0.0;
  rep.set("svc.frames", static_cast<double>(sweep.frames +
                                            stream.frames) * per_job,
          "count", jobs);
  rep.set("svc.bytes_received", static_cast<double>(sweep.bytes +
                                                    stream.bytes) * per_job,
          "bytes", jobs);
  rep.set("svc.retries", static_cast<double>(sweep.retries +
                                             stream.retries),
          "count", jobs);
  rep.set("svc.queue_depth_max", sweep.queue_depth_max, "count",
          sweep.latency_s.size());
  const double twin_sweep = quantile(twin_sweep_s, 0.5);
  const double twin_stream = quantile(twin_stream_s, 0.5);
  rep.set("ensemble.sweep_job_ms", 1e3 * twin_sweep, "ms", twin_sweep_s.size());
  rep.set("ensemble.stream_job_ms", 1e3 * twin_stream, "ms",
          twin_stream_s.size());
  rep.set("svc.sweep_overhead_ms", 1e3 * (sweep_p50 - twin_sweep), "ms",
          sweep.latency_s.size());
  rep.set("svc.stream_overhead_ms", 1e3 * (stream_p50 - twin_stream), "ms",
          stream.latency_s.size());
}

void run_service(const Args& a, Report& rep, Tracer* tr) {
  const std::string sweep_src = bearing_source(kSweepRollers);
  const std::string ball_src = models::bouncing_ball_source();
  Rng rng(a.seed);

  // In-process twin of the daemon's work: the same sources set up here,
  // the same jobs run through solve_ensemble with the daemon's settings.
  SetupLog log;
  Ready sweep_r, ball_r;
  const int twin_setups = tr != nullptr ? 2 : 1;
  if (tr != nullptr) {
    untimed_setups({sweep_src, ball_src});
  }
  for (int i = 0; i < twin_setups; ++i) {
    const bool traced = tr != nullptr && i % 2 == 1;
    std::vector<Ready> rs = setup_models(
        {{sweep_src, kSweepTend}, {ball_src, kBallTend}},
        traced ? tr : nullptr, static_cast<std::uint32_t>(i), log);
    sweep_r = std::move(rs[0]);
    ball_r = std::move(rs[1]);
  }
  require_native(sweep_r, "service sweep model");
  require_native(ball_r, "service ball model");
  const std::size_t n_sweep = sweep_r.problem.n;
  const std::size_t n_ball = ball_r.problem.n;
  if (n_ball != 2 || ball_r.cm->flat->state_name(0).back() != 'h') {
    throw std::runtime_error("service: unexpected ball state layout");
  }

  // Seeded job pools: bearing scenarios around the model's initial state
  // with the inner-ring speed drawn in +-20%; ball drop heights in
  // [0.5, 2] m.
  std::size_t omega = n_sweep;
  for (std::size_t i = 0; i < n_sweep; ++i) {
    if (sweep_r.cm->flat->state_name(i) == "inner.omega") {
      omega = i;
    }
  }
  if (omega == n_sweep) {
    throw std::runtime_error("service: no inner.omega state");
  }
  std::vector<JobInput> sweep_pool(kPoolJobs), stream_pool(kPoolJobs);
  for (JobInput& in : sweep_pool) {
    for (std::size_t s = 0; s < kSweepScenarios; ++s) {
      std::vector<double> y = perturbed(sweep_r.problem.y0, rng);
      y[omega] *= rng.uniform(0.8, 1.2);
      in.y0s.insert(in.y0s.end(), y.begin(), y.end());
    }
  }
  for (JobInput& in : stream_pool) {
    for (std::size_t s = 0; s < kStreamScenarios; ++s) {
      const double h0 = rng.uniform(0.5, 2.0);
      in.y0s.insert(in.y0s.end(), {h0, 0.0});
      const std::array<double, 2> y = ball_state(h0, kBallTend);
      in.expect.insert(in.expect.end(), y.begin(), y.end());
    }
  }

  // Untimed references for the sweep jobs, and the twin's job times
  // (two passes over each pool, uninstrumented).
  auto twin_job = [](const ode::Problem& p, const JobInput& in,
                     std::size_t n, bool sweep, FinalsSink& sink) {
    ode::EnsembleSpec spec;
    spec.workers = 1;
    for (std::size_t s = 0; s < in.y0s.size() / n; ++s) {
      spec.initial_states.emplace_back(in.y0s.begin() + s * n,
                                       in.y0s.begin() + (s + 1) * n);
    }
    // The daemon's defaults: rtol 1e-6, atol 1e-9.
    ode::SolverOptions so;
    so.record_every = sweep ? kFinalOnly : 1;
    ode::solve_ensemble(p, ode::Method::kDopri5, so, spec, sink);
  };
  std::vector<double> twin_sweep_s, twin_stream_s;
  for (int pass = 0; pass < 2; ++pass) {
    for (JobInput& in : sweep_pool) {
      FinalsSink sink(kSweepScenarios);
      const Clock::time_point t0 = Clock::now();
      twin_job(sweep_r.problem, in, n_sweep, true, sink);
      twin_sweep_s.push_back(since(t0));
      in.expect.clear();
      for (const FinalsSink::Scenario& s : sink.scenarios()) {
        in.expect.insert(in.expect.end(), s.y.begin(), s.y.end());
      }
    }
    for (const JobInput& in : stream_pool) {
      FinalsSink sink(kStreamScenarios);
      const Clock::time_point t0 = Clock::now();
      twin_job(ball_r.problem, in, n_ball, false, sink);
      twin_stream_s.push_back(since(t0));
      std::vector<double> last;
      for (const FinalsSink::Scenario& s : sink.scenarios()) {
        last.insert(last.end(), s.y.begin(), s.y.end());
      }
      const double err = scaled_error(last, in.expect, 1e-5, 1e-6);
      if (!(err <= 1.0)) {
        throw std::runtime_error("service: in-process ball finals off by " +
                                 num(err) + " tolerance units");
      }
    }
  }
  SolveTotals tot;
  if (tr != nullptr) {
    std::uint32_t op = 1000;
    for (const JobInput& in : sweep_pool) {
      FinalsSink sink(kSweepScenarios);
      traced_solve(*tr, op++, sweep_r.problem, false, tot,
                   [&](const ode::Problem& q) {
                     twin_job(q, in, n_sweep, true, sink);
                   });
      add_stats(tot, sink);
    }
    for (const JobInput& in : stream_pool) {
      FinalsSink sink(kStreamScenarios);
      traced_solve(*tr, op++, ball_r.problem, false, tot,
                   [&](const ode::Problem& q) {
                     twin_job(q, in, n_ball, false, sink);
                   });
      add_stats(tot, sink);
    }
  }

  // Segments, each on a fresh omxd: set-up (both COMPILE round trips,
  // timed) and then traffic for a share of the run. Pooling several
  // daemons per run averages what one daemon's thread placement does to
  // the streaming class.
  std::vector<double> setup_s;
  ClassLog sweep_log, stream_log;
  double traffic_s = 0.0;
  double daemon_rss = 0.0;
  for (int seg = 0; seg < kServiceSegments; ++seg) {
    Daemon d(a.omxd);
    rep.attempt();
    svc::ModelInfo sweep_m, ball_m;
    {
      svc::Client c;
      c.connect("127.0.0.1", d.port());
      const Clock::time_point t0 = Clock::now();
      sweep_m = c.compile_source(sweep_src);
      ball_m = c.compile_source(ball_src);
      setup_s.push_back(since(t0));
      c.bye();
    }
    if (sweep_m.backend != "native" || ball_m.backend != "native" ||
        sweep_m.n != n_sweep || ball_m.n != n_ball) {
      rep.fail("service: daemon COMPILE did not give native kernels of the "
               "expected widths");
      continue;
    }
    const Clock::time_point start = Clock::now();
    const double seconds = a.seconds / kServiceSegments;
    auto drive = [&](bool sweep, ClassLog& cl) {
      try {
        svc::Client c;
        c.connect("127.0.0.1", d.port());
        drive_class(c, sweep ? sweep_m.model : ball_m.model, sweep,
                    sweep ? sweep_pool : stream_pool,
                    sweep ? n_sweep : n_ball, sweep ? kSweepTend : kBallTend,
                    start, seconds, tr != nullptr && sweep, cl);
        c.bye();
      } catch (const std::exception& e) {
        cl.failures.push_back(std::string(sweep ? "sweep: " : "stream: ") +
                              e.what());
      }
    };
    std::thread sweep_thread(drive, true, std::ref(sweep_log));
    drive(false, stream_log);
    sweep_thread.join();
    traffic_s += since(start);
    daemon_rss = std::max(daemon_rss, d.peak_rss_mb());
  }

  for (const ClassLog* cl : {&sweep_log, &stream_log}) {
    rep.attempt(cl->attempted);
    for (const std::string& f : cl->failures) {
      rep.fail(f);
    }
  }
  const double sweep_p50 = quantile(sweep_log.latency_s, 0.5);
  rep.set("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  rep.set("solve_s", sweep_p50, "s", sweep_log.latency_s.size());
  rep.set("scenarios_per_s",
          traffic_s > 0 ? static_cast<double>(sweep_log.scenarios +
                                              stream_log.scenarios) /
                              traffic_s
                        : 0.0,
          "1/s", sweep_log.latency_s.size() + stream_log.latency_s.size());
  // The daemons' peak plus this client's: every process of the workload.
  rep.set("peak_rss_mb", daemon_rss + peak_rss_mb_self(), "MB", 2);

  report_service_layers(sweep_log, stream_log, twin_sweep_s, twin_stream_s,
                        rep);
  report_setup_layers(log, tr, false, rep);
  report_solve_layers(tot, rep);
}

// ------------------------------------------------------------------ main

/// Builds every native kernel the workload will load, so no timed
/// operation pays a cold compile. Uses the exact source texts the
/// workload sets up from: a parsed model's emitted code (and so its
/// cache key) differs from that of the model models::build_bearing
/// returns.
void warm_cache(const std::string& workload) {
  if (workload == "compile") {
    untimed_setups({bearing_source(kCompileRollers)});
  } else if (workload == "stiff") {
    untimed_setups({bearing_source(kStiffRollers)});
  } else {
    untimed_setups(
        {bearing_source(kSweepRollers), models::bouncing_ball_source()});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (!a.warm.empty()) {
      warm_cache(a.warm);
      return 0;
    }
    Report rep;
    std::unique_ptr<Tracer> tracer;
    if (a.trace) {
      tracer = std::make_unique<Tracer>();
    }
    const std::size_t objects_before = cached_objects();
    if (a.workload == "compile") {
      run_compile(a, rep, tracer.get());
    } else if (a.workload == "stiff") {
      run_stiff(a, rep, tracer.get());
    } else {
      if (a.omxd.empty()) {
        usage("service needs --omxd");
      }
      run_service(a, rep, tracer.get());
    }
    if (a.workload != "service") {
      rep.set("peak_rss_mb", peak_rss_mb_self(), "MB", 1);
      report_service_layers({}, {}, {}, {}, rep);
    }
    rep.set("exec.native_compiles",
            static_cast<double>(cached_objects()) -
                static_cast<double>(objects_before),
            "count", 1);
    rep.env("nproc", std::to_string(std::thread::hardware_concurrency()));
    rep.env("compiler", OMXBENCH_COMPILER);
    rep.env("build_type", OMXBENCH_BUILD_TYPE);
    if (tracer) {
      tracer->write(a.spans);
    }
    std::printf("%s\n", rep.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omxbench: %s\n", e.what());
    return 1;
  }
}
