// Differential tests for the execution backends (exec::RhsKernel): the
// runtime-compiled native kernel must reproduce the tape interpreter and
// the tree-walking reference evaluator on every bundled model, task by
// task and end to end, and must degrade to the interpreter (never fail)
// when the toolchain is unavailable.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/runtime/parallel_rhs.hpp"

namespace omx::exec {
namespace {

pipeline::KernelOptions test_kernel_opts() {
  pipeline::KernelOptions ko;
  ko.native.cache_dir =
      (std::filesystem::temp_directory_path() / "omx-test-native-cache")
          .string();
  return ko;
}

std::vector<double> start_state(const pipeline::CompiledModel& cm) {
  std::vector<double> y(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y[i] = cm.flat->states()[i].start;
  }
  return y;
}

/// Evaluates the model through every backend at the start state and a
/// perturbed state and checks agreement to 1e-12 (relative).
void expect_backends_agree(const pipeline::CompiledModel& cm) {
  const KernelInstance ref = cm.make_kernel(Backend::kReference);
  const KernelInstance interp = cm.make_kernel(Backend::kInterp);
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }

  std::vector<double> y = start_state(cm);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<double> a(cm.n()), b(cm.n()), c(cm.n());
    ref.kernel()(0.1, y, a);
    interp.kernel()(0.1, y, b);
    native.kernel()(0.1, y, c);
    for (std::size_t i = 0; i < cm.n(); ++i) {
      const double scale = std::max(1.0, std::fabs(a[i]));
      EXPECT_NEAR(c[i], b[i], 1e-12 * scale) << "native vs interp, slot "
                                             << i;
      EXPECT_NEAR(c[i], a[i], 1e-12 * scale) << "native vs reference, slot "
                                             << i;
    }
    // Second trial: perturb away from the (often symmetric) start state.
    for (std::size_t i = 0; i < cm.n(); ++i) {
      y[i] += 1e-3 * static_cast<double>(i % 7) + 1e-4;
    }
  }
}

TEST(NativeBackend, MatchesInterpAndReferenceOnOscillator) {
  expect_backends_agree(pipeline::compile_model(models::build_oscillator));
}

TEST(NativeBackend, MatchesInterpAndReferenceOnBearing2d) {
  expect_backends_agree(pipeline::compile_model([](expr::Context& ctx) {
    models::BearingConfig cfg;
    cfg.n_rollers = 5;
    return models::build_bearing(ctx, cfg);
  }));
}

TEST(NativeBackend, MatchesInterpAndReferenceOnHydroPlant) {
  expect_backends_agree(pipeline::compile_model(models::build_hydro));
}

TEST(NativeBackend, MatchesInterpAndReferenceOnHeat1d) {
  expect_backends_agree(pipeline::compile_model([](expr::Context& ctx) {
    models::Heat1dConfig cfg;
    cfg.n_cells = 24;
    return models::build_heat1d(ctx, cfg);
  }));
}

TEST(NativeBackend, TaskCompositionReproducesSerialEval) {
  // run_task has accumulate semantics: composing every task over a
  // pre-zeroed ydot must reproduce the whole-system eval (§3.2).
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  const RhsKernel& k = native.kernel();
  ASSERT_TRUE(k.has_tasks());
  ASSERT_EQ(k.num_tasks(), cm.plan.tasks.size());

  const std::vector<double> y = start_state(cm);
  std::vector<double> whole(cm.n()), composed(cm.n(), 0.0);
  k(0.05, y, whole);
  for (std::uint32_t t = 0; t < k.num_tasks(); ++t) {
    k.run_task(/*lane=*/0, t, 0.05, y.data(), composed.data());
  }
  for (std::size_t i = 0; i < cm.n(); ++i) {
    EXPECT_NEAR(composed[i], whole[i],
                1e-12 * std::max(1.0, std::fabs(whole[i])))
        << "slot " << i;
  }
}

TEST(NativeBackend, WorkerPoolComposesNativeTasks) {
  // The full parallel path over native code: supervisor + workers
  // marshalling per-task outputs must match the serial native eval.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }

  runtime::ParallelRhsOptions opts;
  opts.pool.num_workers = 3;
  runtime::ParallelRhs par(native.kernel(), opts);

  const std::vector<double> y = start_state(cm);
  std::vector<double> serial(cm.n()), parallel(cm.n());
  native.kernel()(0.0, y, serial);
  par.eval(0.0, y, parallel);
  for (std::size_t i = 0; i < cm.n(); ++i) {
    EXPECT_NEAR(parallel[i], serial[i],
                1e-12 * std::max(1.0, std::fabs(serial[i])))
        << "slot " << i;
  }
}

TEST(NativeBackend, SecondBuildHitsCache) {
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const pipeline::KernelOptions ko = test_kernel_opts();
  const KernelInstance first = cm.make_kernel(Backend::kNative, ko);
  if (first.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  obs::set_enabled(true);
  const auto hits_before = obs::Registry::global()
                               .counter("backend.native.cache_hits")
                               .value();
  const KernelInstance second = cm.make_kernel(Backend::kNative, ko);
  EXPECT_EQ(second.backend(), Backend::kNative);
  EXPECT_GT(obs::Registry::global()
                .counter("backend.native.cache_hits")
                .value(),
            hits_before);
}

TEST(NativeBackend, ForceFallbackDegradesToInterp) {
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  pipeline::KernelOptions ko = test_kernel_opts();
  ko.native.force_fallback = true;
  const KernelInstance k = cm.make_kernel(Backend::kNative, ko);
  EXPECT_EQ(k.backend(), Backend::kInterp);

  // The fallback kernel still evaluates correctly.
  const std::vector<double> y = start_state(cm);
  std::vector<double> ydot(cm.n());
  k.kernel()(0.0, y, ydot);
  EXPECT_DOUBLE_EQ(ydot[0], y[1]);
  EXPECT_DOUBLE_EQ(ydot[1], -y[0]);
}

TEST(NativeBackend, DisableEnvDegradesToInterp) {
  ::setenv("OMX_NATIVE_DISABLE", "1", 1);
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const KernelInstance k =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  ::unsetenv("OMX_NATIVE_DISABLE");
  EXPECT_EQ(k.backend(), Backend::kInterp);
}

TEST(Kernels, ProblemCarriesKernelArity) {
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const KernelInstance k = cm.make_kernel(Backend::kInterp);
  ode::Problem p = cm.make_problem(k, 0.0, 1.0);
  EXPECT_EQ(p.rhs_arity, cm.n());
  p.validate();
  p.n = cm.n() + 1;  // desync: validate must reject the arity mismatch
  p.y0.push_back(0.0);
  EXPECT_THROW(p.validate(), omx::Error);
}

TEST(Kernels, SolveThroughEveryBackendAgrees) {
  // End-to-end: the same integration through reference, interp and
  // native kernels lands on the same trajectory.
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  ode::SolverOptions o;
  o.dt = 1e-3;
  o.record_every = 1000;

  std::vector<ode::Solution> sols;
  for (Backend b : {Backend::kReference, Backend::kInterp, Backend::kNative}) {
    const KernelInstance k = cm.make_kernel(b, test_kernel_opts());
    ode::Problem p = cm.make_problem(k, 0.0, 6.0);
    sols.push_back(ode::solve(p, ode::Method::kRk4, o));
  }
  for (const ode::Solution& s : sols) {
    EXPECT_NEAR(s.final_state()[0], std::cos(6.0), 1e-6);
  }
  EXPECT_NEAR(sols[1].final_state()[0], sols[0].final_state()[0], 1e-12);
  EXPECT_NEAR(sols[2].final_state()[0], sols[0].final_state()[0], 1e-12);
}

// ------------------------------------------------ batched (SoA) kernels
//
// Differential suite for the ensemble execution engine: every backend's
// eval_batch must agree with the scalar reference evaluator lane by
// lane, and a lane's result must not depend on the batch it rides in.

/// nb perturbed start states with distinct per-lane times, SoA-packed.
struct BatchFixture {
  std::size_t nb = 0;
  std::vector<double> ts;
  std::vector<double> y_soa;                   // n x nb
  std::vector<std::vector<double>> lane_y;     // per-lane copies

  BatchFixture(const pipeline::CompiledModel& cm, std::size_t lanes)
      : nb(lanes), ts(lanes) {
    const std::size_t n = cm.n();
    y_soa.resize(n * nb);
    for (std::size_t j = 0; j < nb; ++j) {
      ts[j] = 0.01 + 0.05 * static_cast<double>(j);
      std::vector<double> y = start_state(cm);
      for (std::size_t i = 0; i < n; ++i) {
        y[i] += 1e-3 * static_cast<double>((i + 3 * j) % 7) +
                1e-4 * static_cast<double>(j);
        y_soa[i * nb + j] = y[i];
      }
      lane_y.push_back(std::move(y));
    }
  }
};

void expect_batched_backends_agree(const pipeline::CompiledModel& cm) {
  const KernelInstance ref = cm.make_kernel(Backend::kReference);
  const KernelInstance interp = cm.make_kernel(Backend::kInterp);
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  ASSERT_TRUE(ref.kernel().has_batch());
  ASSERT_TRUE(interp.kernel().has_batch());

  const std::size_t n = cm.n();
  const BatchFixture fx(cm, 6);
  std::vector<double> br(n * fx.nb), bi(n * fx.nb), bn(n * fx.nb);
  ref.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                          br.data());
  interp.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                             bi.data());
  const bool have_native = native.backend() == Backend::kNative;
  if (have_native) {
    ASSERT_TRUE(native.kernel().has_batch());
    native.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                               bn.data());
  }

  for (std::size_t j = 0; j < fx.nb; ++j) {
    // Oracle: a scalar reference eval of this lane alone.
    std::vector<double> expected(n), scalar_interp(n);
    ref.kernel()(fx.ts[j], fx.lane_y[j], expected);
    interp.kernel()(fx.ts[j], fx.lane_y[j], scalar_interp);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = std::max(1.0, std::fabs(expected[i]));
      EXPECT_NEAR(br[i * fx.nb + j], expected[i], 1e-12 * scale)
          << "reference batch, lane " << j << " slot " << i;
      EXPECT_NEAR(bi[i * fx.nb + j], expected[i], 1e-12 * scale)
          << "interp batch, lane " << j << " slot " << i;
      // The batched interpreter runs the identical instruction sequence
      // per lane: bitwise equal to the scalar interpreter, not just close.
      EXPECT_EQ(bi[i * fx.nb + j], scalar_interp[i])
          << "interp batch not bitwise, lane " << j << " slot " << i;
      if (have_native) {
        EXPECT_NEAR(bn[i * fx.nb + j], expected[i], 1e-12 * scale)
            << "native batch, lane " << j << " slot " << i;
      }
    }
  }
}

TEST(BatchedKernels, MatchScalarReferenceOnOscillator) {
  expect_batched_backends_agree(
      pipeline::compile_model(models::build_oscillator));
}

TEST(BatchedKernels, MatchScalarReferenceOnBearing2d) {
  expect_batched_backends_agree(pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 5;
        return models::build_bearing(ctx, cfg);
      }));
}

TEST(BatchedKernels, MatchScalarReferenceOnHeat1d) {
  expect_batched_backends_agree(pipeline::compile_model(
      [](expr::Context& ctx) {
        models::Heat1dConfig cfg;
        cfg.n_cells = 24;
        return models::build_heat1d(ctx, cfg);
      }));
}

TEST(BatchedKernels, LaneResultsInvariantUnderRepacking) {
  // Mixed scenario lifetimes: after some lanes retire mid-sweep the
  // ensemble driver compacts the batch; the surviving lanes' results
  // must be bitwise unchanged in the narrower batch.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const std::size_t n = cm.n();
  const BatchFixture fx(cm, 6);
  const std::vector<std::size_t> survivors = {0, 2, 5};  // 1, 3, 4 retired

  std::vector<KernelInstance> kernels;
  kernels.push_back(cm.make_kernel(Backend::kInterp));
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() == Backend::kNative) {
    kernels.push_back(native);
  }
  for (const KernelInstance& k : kernels) {
    std::vector<double> full(n * fx.nb);
    k.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                          full.data());

    const std::size_t nb2 = survivors.size();
    std::vector<double> ts2(nb2), y2(n * nb2), out2(n * nb2);
    for (std::size_t j = 0; j < nb2; ++j) {
      ts2[j] = fx.ts[survivors[j]];
      for (std::size_t i = 0; i < n; ++i) {
        y2[i * nb2 + j] = fx.y_soa[i * fx.nb + survivors[j]];
      }
    }
    k.kernel().eval_batch(0, nb2, ts2.data(), y2.data(), out2.data());
    for (std::size_t j = 0; j < nb2; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out2[i * nb2 + j], full[i * fx.nb + survivors[j]])
            << to_string(k.backend()) << " lane " << survivors[j]
            << " slot " << i;
      }
    }
  }
}

TEST(BatchedKernels, BatchedTaskCompositionReproducesEvalBatch) {
  // run_task_batch has the same accumulate semantics as run_task:
  // composing every task over pre-zeroed SoA output reproduces
  // eval_batch.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const std::size_t n = cm.n();
  const BatchFixture fx(cm, 4);
  std::vector<KernelInstance> kernels;
  kernels.push_back(cm.make_kernel(Backend::kInterp));
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() == Backend::kNative) {
    kernels.push_back(native);
  }
  for (const KernelInstance& ki : kernels) {
    const RhsKernel& k = ki.kernel();
    ASSERT_TRUE(k.has_batch_tasks());
    std::vector<double> whole(n * fx.nb), composed(n * fx.nb, 0.0);
    k.eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(), whole.data());
    for (std::uint32_t t = 0; t < k.num_tasks(); ++t) {
      k.run_task_batch(0, t, fx.nb, fx.ts.data(), fx.y_soa.data(),
                       composed.data());
    }
    for (std::size_t i = 0; i < n * fx.nb; ++i) {
      EXPECT_NEAR(composed[i], whole[i],
                  1e-12 * std::max(1.0, std::fabs(whole[i])))
          << to_string(ki.backend()) << " flat index " << i;
    }
  }
}

TEST(Ensemble, AgreesAcrossBackendsAndIsStableAcrossWorkerCounts) {
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const std::size_t n = cm.n();

  ode::EnsembleSpec spec;
  for (std::size_t s = 0; s < 6; ++s) {
    std::vector<double> y = start_state(cm);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += 1e-3 * static_cast<double>((i + s) % 5);
    }
    spec.initial_states.push_back(std::move(y));
  }
  spec.workers = 2;
  spec.max_batch = 4;

  ode::SolverOptions o;
  o.record_every = 1000;
  // Tight tolerance keeps the backend-rounding divergence (amplified by
  // the bearing's contact dynamics) well below the comparison bar.
  o.tol.rtol = 1e-10;
  o.tol.atol = 1e-12;

  pipeline::KernelOptions ko = test_kernel_opts();
  ko.lanes = 4;

  // Cross-backend agreement per scenario. The kernels agree to 1e-12 per
  // RHS call (BatchedKernels.* above), but adaptive step control turns
  // last-bit RHS differences into different accept/reject sequences, so
  // integrated trajectories only agree to the solver's own accuracy.
  std::vector<ode::EnsembleResult> results;
  std::vector<Backend> backends = {Backend::kReference, Backend::kInterp};
  if (cm.make_kernel(Backend::kNative, ko).backend() == Backend::kNative) {
    backends.push_back(Backend::kNative);
  }
  for (Backend b : backends) {
    const KernelInstance k = cm.make_kernel(b, ko);
    const ode::Problem p = cm.make_problem(k, 0.0, 0.01);
    results.push_back(
        ode::solve_ensemble(p, ode::Method::kDopri5, o, spec));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
      const auto a = results[0].solutions[s].final_state();
      const auto b = results[r].solutions[s].final_state();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(b[i], a[i], 1e-4 * std::max(1.0, std::fabs(a[i])))
            << to_string(backends[r]) << " scenario " << s << " slot " << i;
      }
    }
  }

  // Bit-for-bit stability across worker counts and batch widths within
  // one backend: scenario trajectories are lane-independent, so the
  // packing/scheduling must not change a single bit.
  const KernelInstance k = cm.make_kernel(Backend::kInterp, ko);
  const ode::Problem p = cm.make_problem(k, 0.0, 0.01);
  ode::EnsembleSpec base = spec;
  base.workers = 1;
  base.max_batch = 1;
  const ode::EnsembleResult golden =
      ode::solve_ensemble(p, ode::Method::kDopri5, o, base);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{3}, std::size_t{8}}) {
      ode::EnsembleSpec v = spec;
      v.workers = workers;
      v.max_batch = batch;
      const ode::EnsembleResult got =
          ode::solve_ensemble(p, ode::Method::kDopri5, o, v);
      for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
        const ode::Solution& ga = golden.solutions[s];
        const ode::Solution& gb = got.solutions[s];
        ASSERT_EQ(gb.size(), ga.size()) << "scenario " << s;
        for (std::size_t i = 0; i < ga.size(); ++i) {
          EXPECT_EQ(gb.time(i), ga.time(i));
          const auto ya = ga.state(i);
          const auto yb = gb.state(i);
          for (std::size_t q = 0; q < n; ++q) {
            EXPECT_EQ(yb[q], ya[q])
                << "workers=" << workers << " batch=" << batch
                << " scenario " << s << " step " << i << " slot " << q;
          }
        }
        EXPECT_EQ(gb.stats.steps, ga.stats.steps);
        EXPECT_EQ(gb.stats.rhs_calls, ga.stats.rhs_calls);
      }
    }
  }
}

TEST(Ensemble, StiffLanesOverBatchedKernelMatchSequentialSolves) {
  // BDF and LSODA-like ensembles go scenario-at-a-time; each worker's
  // solve — its rhs AND its colored-FD Jacobian's batched calls — must
  // stay on the worker's own interpreter lane. A Jacobian sent to a
  // shared lane races other workers' register files and corrupts their
  // solves (typically a Newton failure with vanishing step).
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const std::size_t n = cm.n();
  pipeline::KernelOptions ko;
  ko.lanes = 4;
  const KernelInstance k = cm.make_kernel(Backend::kInterp, ko);
  const ode::Problem p = cm.make_problem(k, 0.0, 0.02);
  ASSERT_TRUE(p.batch_rhs);
  ASSERT_TRUE(p.sparsity);

  ode::EnsembleSpec spec;
  for (std::size_t s = 0; s < 16; ++s) {
    std::vector<double> y = start_state(cm);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += 1e-3 * static_cast<double>((i + s) % 7);
    }
    spec.initial_states.push_back(std::move(y));
  }
  spec.workers = 4;

  ode::SolverOptions o;
  o.record_every = 1000;
  for (const ode::Method m : {ode::Method::kBdf, ode::Method::kLsodaLike}) {
    const ode::EnsembleResult got = ode::solve_ensemble(p, m, o, spec);
    for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
      ode::Problem q = p;
      q.y0 = spec.initial_states[s];
      const ode::Solution want = ode::solve(q, m, o);
      const ode::Solution& g = got.solutions[s];
      EXPECT_EQ(g.stats.steps, want.stats.steps)
          << to_string(m) << " scenario " << s;
      const auto a = want.final_state();
      const auto b = g.final_state();
      ASSERT_EQ(b.size(), a.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(b[i], a[i])
            << to_string(m) << " scenario " << s << " slot " << i;
      }
    }
  }
}

TEST(Multistep, LsodaLikeHonoursJacThreads) {
  // kLsodaLike's BDF phase builds its colored-FD Jacobians with the
  // caller's jac_threads: with 2 the color groups split over both kernel
  // lanes, and lane independence keeps the trajectory bitwise that of
  // one thread.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  pipeline::KernelOptions ko;
  ko.lanes = 2;
  const KernelInstance k = cm.make_kernel(Backend::kInterp, ko);
  const ode::Problem base = cm.make_problem(k, 0.0, 0.02);
  ASSERT_EQ(base.batch_lanes, 2u);
  ASSERT_TRUE(base.sparsity);

  std::array<std::atomic<int>, 2> lane_calls{};
  ode::Problem p = base;
  p.set_batch_rhs([&base, &lane_calls](std::size_t lane, std::size_t nb,
                                       const double* t, const double* y_soa,
                                       double* ydot_soa) {
    lane_calls.at(lane).fetch_add(1, std::memory_order_relaxed);
    base.batch_rhs(lane, nb, t, y_soa, ydot_soa);
  });

  ode::SolverOptions o;
  const ode::Solution one = ode::solve(p, ode::Method::kLsodaLike, o);
  ASSERT_GE(one.stats.method_switches, 1u) << "never reached the BDF phase";
  ASSERT_GT(one.stats.jac_calls, 0u);
  EXPECT_EQ(lane_calls[1].load(), 0);

  o.jac_threads = 2;
  const ode::Solution two = ode::solve(p, ode::Method::kLsodaLike, o);
  EXPECT_GT(lane_calls[1].load(), 0) << "jac_threads = 2 stayed on lane 0";
  EXPECT_EQ(two.stats.steps, one.stats.steps);
  EXPECT_EQ(two.stats.rhs_calls, one.stats.rhs_calls);
  EXPECT_EQ(two.stats.jac_calls, one.stats.jac_calls);
  ASSERT_EQ(two.size(), one.size());
  for (std::size_t r = 0; r < one.size(); ++r) {
    EXPECT_EQ(two.time(r), one.time(r)) << "row " << r;
    for (std::size_t i = 0; i < cm.n(); ++i) {
      EXPECT_EQ(two.state(r)[i], one.state(r)[i])
          << "row " << r << " slot " << i;
    }
  }
}

TEST(Kernels, InterpLanesAreIndependent) {
  // Distinct lanes own private register files: running the same task on
  // two lanes back-to-back gives identical accumulations.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  pipeline::KernelOptions ko;
  ko.lanes = 2;
  const KernelInstance k = cm.make_kernel(Backend::kInterp, ko);
  ASSERT_GE(k.kernel().num_lanes(), 2u);

  const std::vector<double> y = start_state(cm);
  std::vector<double> a(cm.n(), 0.0), b(cm.n(), 0.0);
  for (std::uint32_t t = 0; t < k.kernel().num_tasks(); ++t) {
    k.kernel().run_task(0, t, 0.0, y.data(), a.data());
    k.kernel().run_task(1, t, 0.0, y.data(), b.data());
  }
  for (std::size_t i = 0; i < cm.n(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(NativeBackend, ConcurrentBuildersCompileEachModuleOnce) {
  // The .so cache is shared across processes (omxd executors, parallel
  // test shards); the per-key lockfile must serialize builders so
  // racing compiles of the same model neither clobber each other's
  // artifacts nor compile redundantly. flock on distinct fds excludes
  // within one process too, so racing threads exercise the same path.
  namespace fs = std::filesystem;
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  obs::Counter& compiles =
      obs::Registry::global().counter("backend.native.compiles");

  // Calibrate: how many modules does one cold build of this model
  // compile? (The kernel may carry scalar + batch entry points.)
  const fs::path calib_dir =
      fs::temp_directory_path() / "omx-test-lock-calib";
  fs::remove_all(calib_dir);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = calib_dir.string();
  const std::uint64_t before_calib = compiles.value();
  const KernelInstance probe = cm.make_kernel(Backend::kNative, ko);
  if (probe.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  const std::uint64_t per_build = compiles.value() - before_calib;
  ASSERT_GT(per_build, 0u);

  const fs::path race_dir =
      fs::temp_directory_path() / "omx-test-lock-race";
  fs::remove_all(race_dir);
  ko.native.cache_dir = race_dir.string();
  const std::uint64_t before_race = compiles.value();
  constexpr int kBuilders = 4;
  std::vector<KernelInstance> kernels;
  kernels.reserve(kBuilders);
  std::mutex kernels_mutex;
  std::vector<std::thread> threads;
  threads.reserve(kBuilders);
  for (int i = 0; i < kBuilders; ++i) {
    threads.emplace_back([&] {
      KernelInstance k = cm.make_kernel(Backend::kNative, ko);
      const std::lock_guard<std::mutex> lock(kernels_mutex);
      kernels.push_back(std::move(k));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Exactly one builder compiled; the rest blocked on the lock and then
  // hit the published artifact.
  EXPECT_EQ(compiles.value() - before_race, per_build);
  const std::vector<double> y = start_state(cm);
  std::vector<double> want(cm.n());
  probe.kernel()(0.1, y, want);
  for (const KernelInstance& k : kernels) {
    ASSERT_EQ(k.backend(), Backend::kNative);
    std::vector<double> got(cm.n());
    k.kernel()(0.1, y, got);
    for (std::size_t i = 0; i < cm.n(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], want[i]);
    }
  }
}

}  // namespace
}  // namespace omx::exec
