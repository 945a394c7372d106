#include "omx/model/flatten.hpp"

#include <algorithm>
#include <deque>

#include "omx/expr/eval.hpp"

namespace omx::model {

// ---------------------------------------------------------------------------
// FlatSystem
// ---------------------------------------------------------------------------

FlatSystem::FlatSystem(expr::Context& ctx)
    : ctx_(&ctx), time_(ctx.symbol(kTimeSymbolName)) {}

void FlatSystem::add_state(SymbolId name, double start, expr::ExprId rhs) {
  OMX_REQUIRE(!finalized_, "FlatSystem is finalized");
  if (state_index_.count(name) || algebraic_index_.count(name)) {
    throw omx::Error("variable '" + ctx_->names.name(name) +
                     "' defined twice");
  }
  state_index_.emplace(name, static_cast<int>(states_.size()));
  states_.push_back(FlatState{name, start, rhs});
}

void FlatSystem::add_algebraic(SymbolId name, expr::ExprId rhs) {
  OMX_REQUIRE(!finalized_, "FlatSystem is finalized");
  if (state_index_.count(name) || algebraic_index_.count(name)) {
    throw omx::Error("variable '" + ctx_->names.name(name) +
                     "' defined twice");
  }
  algebraic_index_.emplace(name, static_cast<int>(algebraics_.size()));
  algebraics_.push_back(FlatAlgebraic{name, rhs});
}

void FlatSystem::bind_parameter(SymbolId name, double value) {
  OMX_REQUIRE(!finalized_, "FlatSystem is finalized");
  if (param_value_.count(name)) {
    throw omx::Error("parameter '" + ctx_->names.name(name) +
                     "' bound twice");
  }
  param_value_.emplace(name, value);
  parameters_.emplace_back(name, value);
}

void FlatSystem::add_event(FlatEvent ev) {
  OMX_REQUIRE(!finalized_, "FlatSystem is finalized");
  events_.push_back(std::move(ev));
}

int FlatSystem::state_index(SymbolId s) const {
  auto it = state_index_.find(s);
  return it == state_index_.end() ? -1 : it->second;
}

int FlatSystem::algebraic_index(SymbolId s) const {
  auto it = algebraic_index_.find(s);
  return it == algebraic_index_.end() ? -1 : it->second;
}

double FlatSystem::parameter_value(SymbolId s) const {
  auto it = param_value_.find(s);
  OMX_REQUIRE(it != param_value_.end(), "not a parameter");
  return it->second;
}

const std::string& FlatSystem::state_name(std::size_t i) const {
  return ctx_->names.name(states_[i].name);
}

void FlatSystem::finalize() {
  OMX_REQUIRE(!finalized_, "finalize called twice");

  // 1. Every symbol referenced from any RHS must be known.
  auto check_expr = [&](expr::ExprId e, SymbolId target) {
    std::vector<SymbolId> syms;
    ctx_->pool.free_syms(e, syms);
    for (SymbolId s : syms) {
      if (s == time_ || state_index_.count(s) || algebraic_index_.count(s) ||
          param_value_.count(s)) {
        continue;
      }
      throw omx::Error("equation for '" + ctx_->names.name(target) +
                       "' references undeclared symbol '" +
                       ctx_->names.name(s) + "'");
    }
  };
  for (const FlatState& st : states_) {
    check_expr(st.rhs, st.name);
  }
  for (const FlatAlgebraic& al : algebraics_) {
    check_expr(al.rhs, al.name);
  }
  for (const FlatEvent& ev : events_) {
    for (const auto& [target, value] : ev.resets) {
      if (!state_index_.count(target)) {
        throw omx::Error("when-clause reset target '" +
                         ctx_->names.name(target) + "' is not a state");
      }
      check_expr(value, target);
    }
    // The guard has no named target; report against its first reset's
    // target (a when clause must reset something to be well-formed).
    if (ev.resets.empty()) {
      throw omx::Error("when clause has no resets");
    }
    check_expr(ev.guard, ev.resets.front().first);
  }

  // 2. Topologically order the algebraic assignments. An algebraic cycle is
  //    an implicit equation system, which this explicit pipeline rejects
  //    (the paper's code generator likewise accepts explicit form only).
  const std::size_t na = algebraics_.size();
  std::vector<std::vector<std::size_t>> users(na);
  std::vector<std::vector<std::uint32_t>> deps(na);
  std::vector<std::size_t> indeg(na, 0);
  for (std::size_t j = 0; j < na; ++j) {
    std::vector<SymbolId> syms;
    ctx_->pool.free_syms(algebraics_[j].rhs, syms);
    for (SymbolId s : syms) {
      if (auto it = algebraic_index_.find(s); it != algebraic_index_.end()) {
        users[static_cast<std::size_t>(it->second)].push_back(j);
        deps[j].push_back(static_cast<std::uint32_t>(it->second));
        ++indeg[j];
      }
    }
  }
  std::deque<std::size_t> ready;
  for (std::size_t j = 0; j < na; ++j) {
    if (indeg[j] == 0) {
      ready.push_back(j);
    }
  }
  std::vector<FlatAlgebraic> ordered;
  ordered.reserve(na);
  std::vector<std::uint32_t> position(na);  // old index -> sorted index
  while (!ready.empty()) {
    const std::size_t j = ready.front();
    ready.pop_front();
    position[j] = static_cast<std::uint32_t>(ordered.size());
    ordered.push_back(algebraics_[j]);
    for (std::size_t u : users[j]) {
      if (--indeg[u] == 0) {
        ready.push_back(u);
      }
    }
  }
  if (ordered.size() != na) {
    std::string names;
    for (std::size_t j = 0; j < na; ++j) {
      if (indeg[j] != 0) {
        if (!names.empty()) names += ", ";
        names += ctx_->names.name(algebraics_[j].name);
      }
    }
    throw omx::Error("algebraic loop between: " + names);
  }
  algebraics_ = std::move(ordered);
  algebraic_index_.clear();
  for (std::size_t j = 0; j < na; ++j) {
    algebraic_index_.emplace(algebraics_[j].name, static_cast<int>(j));
  }
  inline_cache_.deps.assign(na, {});
  inline_cache_.marks.assign(na, 0);
  for (std::size_t j = 0; j < na; ++j) {
    std::vector<std::uint32_t>& d = inline_cache_.deps[position[j]];
    for (std::uint32_t k : deps[j]) {
      d.push_back(position[k]);
    }
  }

  finalized_ = true;
}

void FlatSystem::build_env(double t, std::span<const double> y,
                           expr::Env& env) const {
  env.set(time_, t);
  for (const auto& [name, value] : parameters_) {
    env.set(name, value);
  }
  for (std::size_t i = 0; i < states_.size(); ++i) {
    env.set(states_[i].name, y[i]);
  }
  for (const FlatAlgebraic& al : algebraics_) {
    env.set(al.name, expr::eval(ctx_->pool, al.rhs, env));
  }
}

void FlatSystem::eval_rhs(double t, std::span<const double> y,
                          std::span<double> ydot) const {
  OMX_REQUIRE(finalized_, "FlatSystem not finalized");
  OMX_REQUIRE(y.size() == states_.size() && ydot.size() == states_.size(),
              "state vector size mismatch");
  expr::Env env;
  build_env(t, y, env);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ydot[i] = expr::eval(ctx_->pool, states_[i].rhs, env);
  }
}

double FlatSystem::eval_event_guard(std::size_t k, double t,
                                    std::span<const double> y) const {
  OMX_REQUIRE(finalized_, "FlatSystem not finalized");
  OMX_REQUIRE(k < events_.size(), "event index out of range");
  expr::Env env;
  build_env(t, y, env);
  return expr::eval(ctx_->pool, events_[k].guard, env);
}

void FlatSystem::apply_event_resets(std::size_t k, double t,
                                    std::span<double> y) const {
  OMX_REQUIRE(finalized_, "FlatSystem not finalized");
  OMX_REQUIRE(k < events_.size(), "event index out of range");
  expr::Env env;
  build_env(t, y, env);
  // Simultaneous assignment: every RHS sees the pre-reset state.
  std::vector<std::pair<int, double>> writes;
  writes.reserve(events_[k].resets.size());
  for (const auto& [target, value] : events_[k].resets) {
    writes.emplace_back(state_index(target),
                        expr::eval(ctx_->pool, value, env));
  }
  for (const auto& [idx, value] : writes) {
    y[static_cast<std::size_t>(idx)] = value;
  }
}

// ---------------------------------------------------------------------------
// Flattener
// ---------------------------------------------------------------------------

namespace {

/// Fully instantiated members of a class (inheritance resolved, formals
/// substituted), before name qualification.
struct Members {
  std::vector<Variable> vars;
  std::vector<Parameter> params;
  std::vector<Part> parts;
  std::vector<Equation> equations;
  std::vector<WhenClause> whens;
};

class Flattener {
 public:
  explicit Flattener(const Model& m)
      : m_(m), ctx_(m.ctx()), flat_(m.ctx()) {}

  FlatSystem run() {
    // Every substitution below shares one memo allocation.
    expr::Pool::ScratchScope scratch;
    for (const Instance& inst : m_.instances()) {
      if (inst.is_array) {
        for (int i = inst.lo; i <= inst.hi; ++i) {
          std::vector<expr::ExprId> args = bind_index(inst.args, i);
          expand(inst.name + "[" + std::to_string(i) + "]", inst.class_name,
                 args, inst.loc);
        }
      } else {
        expand(inst.name, inst.class_name, inst.args, inst.loc);
      }
    }
    bind_parameters();
    classify_equations();
    for (FlatEvent& ev : events_) {
      flat_.add_event(std::move(ev));
    }
    flat_.finalize();
    return std::move(flat_);
  }

 private:
  // Substitutes the reserved `index` symbol with the element number.
  std::vector<expr::ExprId> bind_index(const std::vector<expr::ExprId>& args,
                                       int i) {
    const SymbolId idx = ctx_.symbol(kIndexSymbolName);
    const expr::ExprId value = ctx_.pool.constant(static_cast<double>(i));
    std::vector<expr::ExprId> out;
    out.reserve(args.size());
    for (expr::ExprId a : args) {
      out.push_back(ctx_.pool.substitute(a, idx, value));
    }
    return out;
  }

  /// Resolves inheritance and formal substitution for one class.
  Members instantiate(const std::string& cls,
                      const std::vector<expr::ExprId>& args, SourceLoc loc,
                      std::size_t depth) {
    if (depth > m_.classes().size()) {
      throw omx::Error("inheritance cycle involving class '" + cls + "'",
                       loc);
    }
    const ClassDef& c = m_.find_class(cls);
    if (args.size() != c.formals().size()) {
      throw omx::Error("class '" + cls + "' expects " +
                           std::to_string(c.formals().size()) +
                           " argument(s), got " + std::to_string(args.size()),
                       loc);
    }
    std::unordered_map<SymbolId, expr::ExprId> formal_map;
    for (std::size_t i = 0; i < args.size(); ++i) {
      formal_map.emplace(c.formals()[i], args[i]);
    }
    auto subst = [&](expr::ExprId e) {
      return formal_map.empty() ? e : ctx_.pool.substitute(e, formal_map);
    };

    Members out;
    if (!c.base().empty()) {
      std::vector<expr::ExprId> base_args;
      base_args.reserve(c.base_args().size());
      for (expr::ExprId a : c.base_args()) {
        base_args.push_back(subst(a));
      }
      out = instantiate(c.base(), base_args, loc, depth + 1);
    }

    for (Variable v : c.variables()) {
      if (v.start != expr::kNoExpr) {
        v.start = subst(v.start);
      }
      out.vars.push_back(v);
    }
    for (Parameter p : c.parameters()) {
      p.value = subst(p.value);
      // A derived class may re-bind an inherited parameter ("variant
      // handling" in ObjectMath): the most-derived value wins.
      auto it = std::find_if(
          out.params.begin(), out.params.end(),
          [&](const Parameter& q) { return q.name == p.name; });
      if (it != out.params.end()) {
        *it = p;
      } else {
        out.params.push_back(p);
      }
    }
    for (Part p : c.parts()) {
      for (expr::ExprId& a : p.args) {
        a = subst(a);
      }
      out.parts.push_back(std::move(p));
    }
    for (Equation e : c.equations()) {
      e.lhs = subst_lhs(e.lhs, formal_map);
      e.rhs = subst(e.rhs);
      out.equations.push_back(e);
    }
    for (WhenClause w : c.whens()) {
      w.guard = subst(w.guard);
      for (auto& r : w.resets) {
        r.second = subst(r.second);
      }
      out.whens.push_back(std::move(w));
    }
    return out;
  }

  // der(x) nodes must survive substitution with their inner symbol intact.
  expr::ExprId subst_lhs(
      expr::ExprId lhs,
      const std::unordered_map<SymbolId, expr::ExprId>& map) {
    const expr::Node& n = ctx_.pool.node(lhs);
    if (n.op != expr::Op::kDer) {
      return map.empty() ? lhs : ctx_.pool.substitute(lhs, map);
    }
    // Substituting under der() is only legal if the result is a symbol.
    expr::ExprId inner = n.a;
    if (!map.empty()) {
      inner = ctx_.pool.substitute(inner, map);
    }
    if (ctx_.pool.node(inner).op != expr::Op::kSym) {
      throw omx::Error("der() of a non-variable after substitution");
    }
    return ctx_.pool.der(inner);
  }

  /// Expands one instance subtree rooted at `prefix`.
  void expand(const std::string& prefix, const std::string& cls,
              const std::vector<expr::ExprId>& args, SourceLoc loc) {
    const Members mem = instantiate(cls, args, loc, 0);

    // Build the qualification map for this scope: local member names and
    // part-qualified names get the instance prefix; everything else is left
    // alone (global references to other instances).
    std::unordered_map<std::string, bool> local_heads;
    for (const Variable& v : mem.vars) {
      local_heads[ctx_.names.name(v.name)] = true;
    }
    for (const Parameter& p : mem.params) {
      local_heads[ctx_.names.name(p.name)] = true;
    }
    for (const Part& p : mem.parts) {
      local_heads[ctx_.names.name(p.name)] = true;
    }

    auto qualify_sym = [&](SymbolId s) -> SymbolId {
      if (s == ctx_.symbol(kTimeSymbolName)) {
        return s;
      }
      const std::string& n = ctx_.names.name(s);
      const std::string head = n.substr(0, n.find('.'));
      if (local_heads.count(head)) {
        return ctx_.symbol(prefix + "." + n);
      }
      return s;
    };
    auto qualify = [&](expr::ExprId e) {
      std::vector<SymbolId> syms;
      ctx_.pool.free_syms(e, syms);
      std::unordered_map<SymbolId, expr::ExprId> map;
      for (SymbolId s : syms) {
        const SymbolId q = qualify_sym(s);
        if (q != s) {
          map.emplace(s, ctx_.pool.sym(q));
        }
      }
      return map.empty() ? e : ctx_.pool.substitute(e, map);
    };

    for (const Variable& v : mem.vars) {
      const SymbolId q = ctx_.symbol(prefix + "." + ctx_.names.name(v.name));
      VarDecl decl;
      decl.name = q;
      decl.start = (v.start == expr::kNoExpr) ? expr::kNoExpr
                                              : qualify(v.start);
      var_decls_.push_back(decl);
    }
    for (const Parameter& p : mem.params) {
      const SymbolId q = ctx_.symbol(prefix + "." + ctx_.names.name(p.name));
      pending_params_.push_back({q, qualify(p.value)});
    }
    for (const Equation& e : mem.equations) {
      Equation q;
      const expr::Node& lhs = ctx_.pool.node(e.lhs);
      if (lhs.op == expr::Op::kDer) {
        const SymbolId target =
            qualify_sym(ctx_.pool.sym_of(lhs.a));
        q.lhs = ctx_.pool.der(ctx_.pool.sym(target));
      } else if (lhs.op == expr::Op::kSym) {
        q.lhs = ctx_.pool.sym(qualify_sym(ctx_.pool.sym_of(e.lhs)));
      } else {
        throw omx::Error(
            "equation left-hand side must be der(x) or a variable (class '" +
                cls + "')",
            e.loc);
      }
      q.rhs = qualify(e.rhs);
      q.loc = e.loc;
      equations_.push_back(q);
    }
    for (const WhenClause& w : mem.whens) {
      FlatEvent ev;
      ev.guard = qualify(w.guard);
      ev.direction = w.direction;
      for (const auto& [target, value] : w.resets) {
        ev.resets.emplace_back(qualify_sym(target), qualify(value));
      }
      events_.push_back(std::move(ev));
    }
    for (const Part& p : mem.parts) {
      std::vector<expr::ExprId> part_args;
      part_args.reserve(p.args.size());
      for (expr::ExprId a : p.args) {
        part_args.push_back(qualify(a));
      }
      expand(prefix + "." + ctx_.names.name(p.name), p.class_name, part_args,
             p.loc);
    }
  }

  /// Evaluates parameter value expressions. Parameters may reference other
  /// parameters (any order); cycles are diagnosed.
  void bind_parameters() {
    expr::Env env;
    std::vector<bool> done(pending_params_.size(), false);
    std::size_t remaining = pending_params_.size();
    bool progress = true;
    while (remaining > 0 && progress) {
      progress = false;
      for (std::size_t i = 0; i < pending_params_.size(); ++i) {
        if (done[i]) {
          continue;
        }
        std::vector<SymbolId> syms;
        ctx_.pool.free_syms(pending_params_[i].second, syms);
        const bool ready = std::all_of(syms.begin(), syms.end(),
                                       [&](SymbolId s) { return env.has(s); });
        if (!ready) {
          continue;
        }
        const double v = expr::eval(ctx_.pool, pending_params_[i].second, env);
        env.set(pending_params_[i].first, v);
        flat_.bind_parameter(pending_params_[i].first, v);
        done[i] = true;
        --remaining;
        progress = true;
      }
    }
    if (remaining > 0) {
      std::string names;
      for (std::size_t i = 0; i < pending_params_.size(); ++i) {
        if (!done[i]) {
          if (!names.empty()) names += ", ";
          names += ctx_.names.name(pending_params_[i].first);
        }
      }
      throw omx::Error(
          "parameters depend on non-parameters or form a cycle: " + names);
    }
    param_env_ = std::move(env);
  }

  void classify_equations() {
    // Map variable -> defining equation.
    std::unordered_map<SymbolId, const Equation*> der_eq, alg_eq;
    for (const Equation& e : equations_) {
      const expr::Node& lhs = ctx_.pool.node(e.lhs);
      if (lhs.op == expr::Op::kDer) {
        const SymbolId target = ctx_.pool.sym_of(lhs.a);
        if (!der_eq.emplace(target, &e).second) {
          throw omx::Error("two der() equations for '" +
                               ctx_.names.name(target) + "'",
                           e.loc);
        }
      } else {
        const SymbolId target = ctx_.pool.sym_of(e.lhs);
        if (!alg_eq.emplace(target, &e).second) {
          throw omx::Error(
              "two defining equations for '" + ctx_.names.name(target) + "'",
              e.loc);
        }
      }
    }

    for (const VarDecl& v : var_decls_) {
      const bool has_der = der_eq.count(v.name) != 0;
      const bool has_alg = alg_eq.count(v.name) != 0;
      const std::string& name = ctx_.names.name(v.name);
      if (has_der && has_alg) {
        throw omx::Error("variable '" + name +
                         "' has both der() and algebraic equations");
      }
      if (!has_der && !has_alg) {
        throw omx::Error("variable '" + name + "' has no defining equation");
      }
      if (has_der) {
        double start = 0.0;
        if (v.start != expr::kNoExpr) {
          start = eval_start(v.start, name);
        }
        flat_.add_state(v.name, start, der_eq[v.name]->rhs);
      } else {
        if (v.start != expr::kNoExpr) {
          throw omx::Error("algebraic variable '" + name +
                           "' cannot have a start value");
        }
        flat_.add_algebraic(v.name, alg_eq[v.name]->rhs);
      }
      der_eq.erase(v.name);
      alg_eq.erase(v.name);
    }

    // Any leftover equation defines an undeclared variable.
    for (const auto& [sym, eq] : der_eq) {
      throw omx::Error("der() equation for undeclared variable '" +
                           ctx_.names.name(sym) + "'",
                       eq->loc);
    }
    for (const auto& [sym, eq] : alg_eq) {
      throw omx::Error("equation for undeclared variable '" +
                           ctx_.names.name(sym) + "'",
                       eq->loc);
    }
  }

  double eval_start(expr::ExprId e, const std::string& var) {
    std::vector<SymbolId> syms;
    ctx_.pool.free_syms(e, syms);
    for (SymbolId s : syms) {
      if (!param_env_.has(s)) {
        throw omx::Error("start value of '" + var +
                         "' references non-parameter '" +
                         ctx_.names.name(s) + "'");
      }
    }
    return expr::eval(ctx_.pool, e, param_env_);
  }

  struct VarDecl {
    SymbolId name = kInvalidSymbol;
    expr::ExprId start = expr::kNoExpr;
  };

  const Model& m_;
  expr::Context& ctx_;
  FlatSystem flat_;
  std::vector<VarDecl> var_decls_;
  std::vector<std::pair<SymbolId, expr::ExprId>> pending_params_;
  std::vector<Equation> equations_;
  std::vector<FlatEvent> events_;
  expr::Env param_env_;
};

}  // namespace

FlatSystem flatten(const Model& m) { return Flattener(m).run(); }

}  // namespace omx::model
