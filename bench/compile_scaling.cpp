// Compile-pipeline scaling: pipeline::compile_model plus the four C++
// emitters on the 2-D bearing at 10, 20, 40, 80 and 160 rollers, with
// an interpreter kernel so no host compiler runs. Exports
// BENCH_compile.json.
//
// scripts/bench_gate.py (gate_compile) gates only machine-independent
// counts per size:
//   * pool nodes after compile_model and after emission equal the
//     baseline exactly — the node-order invariant of
//     codegen::inline_algebraics shows up first as a node count;
//   * Pool::substitute passes do not exceed the baseline;
//   * the emitted C++ byte count equals the baseline.
// Milliseconds per state (task planning, compile_model, emission) are
// exported and reported, never gated.
//
// The ROADMAP's slope gate (per-state cost within 2x across 10-160
// rollers) is not met: task planning keeps every intermediate node of
// the descending substitution sweep, because CSE numbers temporaries in
// ExprId order and the emitted code must not change, so its per-state
// cost still grows with the bearing. The bench prints the measured
// slope next to that target.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "omx/codegen/cpp_emit.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/profile.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Total milliseconds of the spans named `name` in a profile.
double span_ms(const omx::obs::Profile& prof, const std::string& name) {
  double ms = 0.0;
  for (const omx::obs::ProfileNode& n : prof.nodes) {
    if (n.name == name) {
      ms += static_cast<double>(n.total_ns) * 1e-6;
    }
  }
  return ms;
}

}  // namespace

int main() {
  using namespace omx;
  const std::vector<int> sizes{10, 20, 40, 80, 160};
  obs::Registry metrics;

  std::printf("compile pipeline scaling (2-D bearing, interp kernel)\n");
  std::printf("  %7s %6s %9s %9s %10s %10s %9s %9s %9s\n", "rollers",
              "states", "nodes(cm)", "nodes(em)", "subst", "emit bytes",
              "plan/st", "cm/st", "emit/st");

  std::vector<double> cm_ms_per_state;
  for (int n : sizes) {
    models::BearingConfig cfg;
    cfg.n_rollers = n;

    obs::TraceBuffer& tb = obs::TraceBuffer::global();
    tb.start();
    const auto t0 = Clock::now();
    pipeline::CompiledModel cm = pipeline::compile_model(
        [&cfg](expr::Context& ctx) { return models::build_bearing(ctx, cfg); });
    const double compile_ms = ms_since(t0);
    tb.stop();
    const double plan_ms = span_ms(obs::aggregate_profile(tb), "task_planning");
    const std::size_t nodes_compile = cm.ctx->pool.size();

    const exec::KernelInstance kernel = cm.make_kernel(exec::Backend::kInterp);
    (void)kernel;

    // The emission the native backend performs (exec/native.cpp).
    codegen::EmitOptions eo;
    eo.with_helpers = false;
    eo.with_prelude = false;
    eo.simd_math = true;
    const auto t1 = Clock::now();
    std::size_t bytes = 0;
    bytes += codegen::emit_cpp_serial(*cm.flat, cm.assignments, eo).code.size();
    bytes += codegen::emit_cpp_parallel(*cm.flat, cm.plan, eo).code.size();
    bytes += codegen::emit_cpp_serial_batch(*cm.flat, cm.assignments, eo)
                 .code.size();
    bytes +=
        codegen::emit_cpp_parallel_batch(*cm.flat, cm.plan, eo).code.size();
    const double emit_ms = ms_since(t1);

    const double states = static_cast<double>(cm.n());
    cm_ms_per_state.push_back(compile_ms / states);
    std::printf("  %7d %6zu %9zu %9zu %10zu %10zu %9.3f %9.3f %9.3f\n", n,
                cm.n(), nodes_compile, cm.ctx->pool.size(),
                cm.ctx->pool.substitute_passes(), bytes, plan_ms / states,
                compile_ms / states, emit_ms / states);

    const std::string name = "compile.r" + std::to_string(n);
    auto g = [&metrics, &name](const char* suffix, double v) {
      metrics.gauge(name + "." + suffix).set(v);
    };
    g("states", states);
    g("algebraics", static_cast<double>(cm.flat->num_algebraics()));
    g("pool_nodes_compile", static_cast<double>(nodes_compile));
    g("pool_nodes_emit", static_cast<double>(cm.ctx->pool.size()));
    g("substitute_passes",
      static_cast<double>(cm.ctx->pool.substitute_passes()));
    g("emit_cpp_bytes", static_cast<double>(bytes));
    g("task_planning_ms_per_state", plan_ms / states);
    g("compile_ms_per_state", compile_ms / states);
    g("emit_ms_per_state", emit_ms / states);
  }

  const double slope = cm_ms_per_state.back() / cm_ms_per_state.front();
  metrics.gauge("compile.slope_ms_per_state").set(slope);
  std::printf("\n  compile_model ms/state, %d vs %d rollers: %.2fx"
              " (ROADMAP target <= 2x: %s)\n",
              sizes.back(), sizes.front(), slope,
              slope <= 2.0 ? "met" : "NOT met");

  const char* out_path = "BENCH_compile.json";
  if (!obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
