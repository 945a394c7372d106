#include "omx/codegen/assignments.hpp"

#include <algorithm>
#include <functional>

#include "omx/expr/simplify.hpp"

namespace omx::codegen {

AssignmentSet build_assignments(const model::FlatSystem& flat,
                                const TransformOptions& opts) {
  OMX_REQUIRE(flat.finalized(), "flat system must be finalized");
  expr::Context& ctx = flat.ctx();
  AssignmentSet out;

  auto transform = [&](expr::ExprId e) {
    return opts.simplify ? expr::simplify(ctx.pool, e) : e;
  };

  for (std::size_t j = 0; j < flat.algebraics().size(); ++j) {
    const model::FlatAlgebraic& al = flat.algebraics()[j];
    out.algebraics.push_back(Assignment{Assignment::Kind::kAlgebraic,
                                        static_cast<int>(j), al.name,
                                        transform(al.rhs)});
  }
  for (std::size_t i = 0; i < flat.num_states(); ++i) {
    const model::FlatState& st = flat.states()[i];
    out.states.push_back(Assignment{Assignment::Kind::kStateDer,
                                    static_cast<int>(i), st.name,
                                    transform(st.rhs)});
  }
  return out;
}

expr::ExprId inline_algebraics(const model::FlatSystem& flat,
                               expr::ExprId e) {
  OMX_REQUIRE(flat.finalized(), "flat system must be finalized");
  model::InlineCache& cache = flat.inline_cache();
  if (auto it = cache.memo.find(e); it != cache.memo.end()) {
    return it->second;
  }
  expr::Pool& pool = flat.ctx().pool;

  // Gather the transitive closure of the algebraics `e` reads: the
  // directly referenced ones, then their dependency lists.
  if (++cache.epoch == 0) {
    std::fill(cache.marks.begin(), cache.marks.end(), 0);
    cache.epoch = 1;
  }
  std::vector<std::uint32_t> closure;
  auto visit = [&](std::uint32_t j) {
    if (cache.marks[j] != cache.epoch) {
      cache.marks[j] = cache.epoch;
      closure.push_back(j);
    }
  };
  std::vector<SymbolId> syms;
  pool.free_syms(e, syms);
  for (SymbolId s : syms) {
    if (const int j = flat.algebraic_index(s); j >= 0) {
      visit(static_cast<std::uint32_t>(j));
    }
  }
  for (std::size_t k = 0; k < closure.size(); ++k) {
    for (std::uint32_t d : cache.deps[closure[k]]) {
      visit(d);
    }
  }

  // The algebraics are topologically ordered, so substituting in
  // descending index order resolves chains in one sweep. A pass for an
  // algebraic outside the closure would find no occurrence and create no
  // node, so skipping those passes leaves the node sequence unchanged.
  std::sort(closure.begin(), closure.end(), std::greater<>());
  expr::Pool::ScratchScope scratch;
  expr::ExprId cur = e;
  for (std::uint32_t j : closure) {
    const model::FlatAlgebraic& al = flat.algebraics()[j];
    cur = pool.substitute(cur, al.name, al.rhs);
  }
  cache.memo.emplace(e, cur);
  return cur;
}

}  // namespace omx::codegen
