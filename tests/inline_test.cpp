// Differential and neutrality tests for codegen::inline_algebraics.
//
// The oracle is the original inliner, kept here only: one
// Pool::substitute pass per algebraic, in descending index order, with no
// memo. Every test runs a model twice, in two identically built contexts
// ("twins"), so equal pool contents mean equal node-creation sequences:
//   * node for node: the inliner and the oracle, fed the same inputs in
//     the pipeline's order, return the same ExprId and leave pools of the
//     same size after every call;
//   * stage neutrality: plan_tasks and the four C++ emitters add the same
//     nodes and print the same code whether the inlinings they use come
//     from the inliner or were computed by the oracle beforehand.
//
// Models: everything in src/omx/models/ that builds a flat system
// (bearing at 2-12 rollers, oscillator, hydro, servo, heat1d, bouncing
// ball) plus 50 seeded random `when` models with chains of algebraics.
// The other hybrid-zoo members (Coulomb oscillator, switching chemistry)
// and the coupled oscillators are hand-written ode::Problems with no flat
// system, so there is nothing to inline for them.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "omx/codegen/assignments.hpp"
#include "omx/codegen/cpp_emit.hpp"
#include "omx/codegen/tasks.hpp"
#include "omx/model/flatten.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/models/servo.hpp"
#include "omx/parser/parser.hpp"
#include "random_when_model.hpp"

namespace omx::codegen {
namespace {

using Builder = std::function<model::Model(expr::Context&)>;

struct Case {
  std::string name;
  Builder build;
};

std::vector<Case> all_models() {
  std::vector<Case> cases;
  for (int n = 2; n <= 12; ++n) {  // the bearing needs two rollers
    cases.push_back({"bearing" + std::to_string(n), [n](expr::Context& c) {
                       models::BearingConfig cfg;
                       cfg.n_rollers = n;
                       return models::build_bearing(c, cfg);
                     }});
  }
  cases.push_back({"oscillator", models::build_oscillator});
  cases.push_back({"hydro", models::build_hydro});
  cases.push_back({"servo", models::build_servo});
  cases.push_back({"heat1d", [](expr::Context& c) {
                     return models::build_heat1d(c, models::Heat1dConfig{});
                   }});
  cases.push_back({"bouncing_ball", models::build_bouncing_ball});
  std::mt19937 rng(20261017);
  std::uniform_int_distribution<std::size_t> clauses(1, 3);
  std::uniform_int_distribution<std::size_t> algebraics(1, 4);
  for (int k = 0; k < 50; ++k) {
    const std::size_t nc = clauses(rng);
    const std::size_t na = algebraics(rng);
    const std::string src = testgen::rand_model_source(rng, nc, na);
    cases.push_back({"when" + std::to_string(k) + ":\n" + src,
                     [src](expr::Context& c) {
                       return parser::parse_model(src, c);
                     }});
  }
  return cases;
}

/// The original inliner: substitute every algebraic, in descending index
/// order (the algebraics are topologically sorted, so one sweep resolves
/// chains).
expr::ExprId oracle_inline(const model::FlatSystem& flat, expr::ExprId e) {
  expr::Pool& pool = flat.ctx().pool;
  for (std::size_t j = flat.algebraics().size(); j-- > 0;) {
    const model::FlatAlgebraic& al = flat.algebraics()[j];
    e = pool.substitute(e, al.name, al.rhs);
  }
  return e;
}

/// One compiled copy of a model, up to the assignment set.
struct Twin {
  explicit Twin(const Builder& build)
      : ctx(std::make_unique<expr::Context>()) {
    model::Model m = build(*ctx);
    flat = std::make_unique<model::FlatSystem>(model::flatten(m));
    set = build_assignments(*flat);
  }
  expr::Pool& pool() { return ctx->pool; }

  std::unique_ptr<expr::Context> ctx;
  std::unique_ptr<model::FlatSystem> flat;
  AssignmentSet set;
};

/// The (simplified) state RHS, as the task planner and serial emitters
/// inline them.
std::vector<expr::ExprId> state_inputs(const Twin& t) {
  std::vector<expr::ExprId> in;
  for (const Assignment& a : t.set.states) {
    in.push_back(a.rhs);
  }
  return in;
}

/// Every event guard, then every event's resets: the serial emitter's
/// order.
std::vector<expr::ExprId> event_inputs(const Twin& t) {
  std::vector<expr::ExprId> in;
  for (const model::FlatEvent& ev : t.flat->events()) {
    in.push_back(ev.guard);
  }
  for (const model::FlatEvent& ev : t.flat->events()) {
    for (const auto& [target, value] : ev.resets) {
      (void)target;
      in.push_back(value);
    }
  }
  return in;
}

/// Inputs to the inliner in pipeline order: state RHS, events, then the
/// raw state RHS the Jacobian tapes inline.
std::vector<expr::ExprId> pipeline_inputs(const Twin& t) {
  std::vector<expr::ExprId> in = state_inputs(t);
  for (expr::ExprId e : event_inputs(t)) {
    in.push_back(e);
  }
  for (const model::FlatState& st : t.flat->states()) {
    in.push_back(st.rhs);
  }
  return in;
}

TEST(Inline, MatchesOracleNodeForNode) {
  for (const Case& c : all_models()) {
    SCOPED_TRACE(c.name);
    Twin a(c.build);
    Twin b(c.build);
    ASSERT_EQ(a.pool().size(), b.pool().size());
    const std::vector<expr::ExprId> in = pipeline_inputs(a);
    ASSERT_EQ(in, pipeline_inputs(b));
    std::vector<expr::ExprId> out;
    for (expr::ExprId e : in) {
      const expr::ExprId got = inline_algebraics(*a.flat, e);
      ASSERT_EQ(got, oracle_inline(*b.flat, e));
      ASSERT_EQ(a.pool().size(), b.pool().size());
      out.push_back(got);
    }
    // Inline-once: repeated calls are memo hits that create no node.
    const std::size_t size = a.pool().size();
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(inline_algebraics(*a.flat, in[i]), out[i]);
    }
    EXPECT_EQ(a.pool().size(), size);
  }
}

TEST(Inline, PlanningAndEmissionAreNodeNeutral) {
  EmitOptions eo;
  eo.with_helpers = false;
  eo.with_prelude = false;
  eo.simd_math = true;
  // The native backend's four emissions, in its order.
  auto emit_all = [&eo](Twin& t, const TaskPlan& plan) {
    std::string code = emit_cpp_serial(*t.flat, t.set, eo).code;
    code += emit_cpp_parallel(*t.flat, plan, eo).code;
    code += emit_cpp_serial_batch(*t.flat, t.set, eo).code;
    code += emit_cpp_parallel_batch(*t.flat, plan, eo).code;
    return code;
  };
  for (const Case& c : all_models()) {
    SCOPED_TRACE(c.name);
    Twin a(c.build);
    Twin b(c.build);
    // b runs through the oracle: every inlining a stage asks for is
    // computed by the oracle just before the stage and left in the memo.
    auto seed = [&b](const std::vector<expr::ExprId>& in) {
      for (expr::ExprId e : in) {
        b.flat->inline_cache().memo.emplace(e, oracle_inline(*b.flat, e));
      }
    };
    const TaskPlan plan_a = plan_tasks(*a.flat, a.set);
    seed(state_inputs(b));
    const TaskPlan plan_b = plan_tasks(*b.flat, b.set);
    EXPECT_EQ(a.pool().size(), b.pool().size()) << "after plan_tasks";
    ASSERT_EQ(plan_a.tasks.size(), plan_b.tasks.size());
    for (std::size_t k = 0; k < plan_a.tasks.size(); ++k) {
      ASSERT_EQ(plan_a.tasks[k].units.size(), plan_b.tasks[k].units.size());
      for (std::size_t u = 0; u < plan_a.tasks[k].units.size(); ++u) {
        EXPECT_EQ(plan_a.tasks[k].units[u].rhs, plan_b.tasks[k].units[u].rhs);
      }
    }

    const std::string code_a = emit_all(a, plan_a);
    seed(event_inputs(b));
    const std::string code_b = emit_all(b, plan_b);
    EXPECT_EQ(a.pool().size(), b.pool().size()) << "after emission";
    EXPECT_EQ(code_a, code_b);
  }
}

// The variants emitters print both surfaces from one preparation; the
// text must equal the separate calls', and neither path may add a node
// the other does not.
TEST(Inline, VariantsEmitMatchSeparateCalls) {
  for (const Case& c : all_models()) {
    SCOPED_TRACE(c.name);
    Twin a(c.build);
    Twin b(c.build);
    const TaskPlan plan_a = plan_tasks(*a.flat, a.set);
    const TaskPlan plan_b = plan_tasks(*b.flat, b.set);
    const EmitVariants serial = emit_cpp_serial_variants(*a.flat, a.set);
    const EmitVariants par = emit_cpp_parallel_variants(*a.flat, plan_a);
    EXPECT_EQ(serial.scalar.code, emit_cpp_serial(*b.flat, b.set).code);
    EXPECT_EQ(par.scalar.code, emit_cpp_parallel(*b.flat, plan_b).code);
    EXPECT_EQ(serial.batch.code, emit_cpp_serial_batch(*b.flat, b.set).code);
    EXPECT_EQ(par.batch.code, emit_cpp_parallel_batch(*b.flat, plan_b).code);
    EXPECT_EQ(serial.scalar.num_cse_temps,
              emit_cpp_serial(*b.flat, b.set).num_cse_temps);
    EXPECT_EQ(a.pool().size(), b.pool().size());
  }
}

}  // namespace
}  // namespace omx::codegen
