// The flattened mathematical model: explicit first-order ODEs
//   der(x_i) = f_i(x, a, p, t)
// plus topologically ordered algebraic assignments
//   a_j = g_j(x, a_<j, p, t)
// with all parameters bound to numeric values. This is the interface
// between the OO modeling layer and everything downstream (dependency
// analysis, code generation, solvers).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "omx/expr/context.hpp"

namespace omx::expr {
class Env;
}  // namespace omx::expr

namespace omx::model {

struct FlatState {
  SymbolId name = kInvalidSymbol;
  double start = 0.0;
  expr::ExprId rhs = expr::kNoExpr;  // der(name) == rhs
};

struct FlatAlgebraic {
  SymbolId name = kInvalidSymbol;
  expr::ExprId rhs = expr::kNoExpr;  // name == rhs (explicit)
};

/// A flattened `when` clause: a zero-crossing guard over the flat
/// symbols plus the state resets applied when it fires. Guards and
/// resets are evaluated through the expression pool (eval_event_guard /
/// apply_event_resets) — deliberately backend-independent, so every
/// execution backend localizes the same event at the same time.
struct FlatEvent {
  expr::ExprId guard = expr::kNoExpr;
  int direction = 0;  // +1 up (rising), -1 down (falling), 0 cross
  std::vector<std::pair<SymbolId, expr::ExprId>> resets;
};

/// Per-system state of codegen::inline_algebraics (see there). Built by
/// finalize(); the memo stays valid for the life of the system because
/// the pool is append-only and the algebraics are frozen.
struct InlineCache {
  /// deps[j]: indices of the algebraics that algebraics()[j].rhs reads.
  std::vector<std::vector<std::uint32_t>> deps;
  /// Input ExprId -> inlined ExprId of every finished inlining.
  std::unordered_map<expr::ExprId, expr::ExprId> memo;
  /// Epoch-stamped visit marks over the algebraics (closure gathering).
  std::vector<std::uint32_t> marks;
  std::uint32_t epoch = 0;
};

class FlatSystem {
 public:
  explicit FlatSystem(expr::Context& ctx);

  expr::Context& ctx() const { return *ctx_; }
  SymbolId time_symbol() const { return time_; }

  // -- construction ----------------------------------------------------------
  void add_state(SymbolId name, double start, expr::ExprId rhs);
  /// Algebraics may be added in any order; finalize() sorts them.
  void add_algebraic(SymbolId name, expr::ExprId rhs);
  void bind_parameter(SymbolId name, double value);
  /// Adds a when-clause event; finalize() validates that the guard and
  /// reset expressions reference known symbols and that every reset
  /// target is a state.
  void add_event(FlatEvent ev);

  /// Validates symbol references, topologically sorts algebraics (throws
  /// omx::Error on an algebraic loop), and freezes the system.
  void finalize();
  bool finalized() const { return finalized_; }

  // -- access ----------------------------------------------------------------
  std::size_t num_states() const { return states_.size(); }
  std::size_t num_algebraics() const { return algebraics_.size(); }
  const std::vector<FlatState>& states() const { return states_; }
  const std::vector<FlatAlgebraic>& algebraics() const { return algebraics_; }
  const std::vector<std::pair<SymbolId, double>>& parameters() const {
    return parameters_;
  }
  const std::vector<FlatEvent>& events() const { return events_; }

  /// State index of symbol, or -1.
  int state_index(SymbolId s) const;
  /// Algebraic index of symbol, or -1.
  int algebraic_index(SymbolId s) const;
  bool is_parameter(SymbolId s) const { return param_value_.count(s) != 0; }
  double parameter_value(SymbolId s) const;

  /// The algebraic inliner's state; mutable through a const system
  /// because inlining only memoizes (see codegen::inline_algebraics).
  InlineCache& inline_cache() const { return inline_cache_; }

  /// Human-readable state name.
  const std::string& state_name(std::size_t i) const;

  /// Direct evaluation of all RHS at (t, y) — the reference semantics used
  /// in tests; production execution uses the compiled tape.
  void eval_rhs(double t, std::span<const double> y,
                std::span<double> ydot) const;

  /// Guard value of events()[k] at (t, y) — algebraics are evaluated in
  /// topological order first, so guards may reference them.
  double eval_event_guard(std::size_t k, double t,
                          std::span<const double> y) const;
  /// Applies events()[k]'s resets to y in place. All reset right-hand
  /// sides are evaluated against the pre-reset state (simultaneous
  /// assignment), then written.
  void apply_event_resets(std::size_t k, double t,
                          std::span<double> y) const;

 private:
  /// Environment with time, parameters, states, and algebraics bound.
  void build_env(double t, std::span<const double> y,
                 expr::Env& env) const;

  expr::Context* ctx_;
  SymbolId time_;
  std::vector<FlatState> states_;
  std::vector<FlatAlgebraic> algebraics_;
  std::vector<FlatEvent> events_;
  std::vector<std::pair<SymbolId, double>> parameters_;
  std::unordered_map<SymbolId, int> state_index_;
  std::unordered_map<SymbolId, int> algebraic_index_;
  std::unordered_map<SymbolId, double> param_value_;
  mutable InlineCache inline_cache_;
  bool finalized_ = false;
};

}  // namespace omx::model
