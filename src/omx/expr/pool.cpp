#include "omx/expr/pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace omx::expr {

const char* func1_name(Func1 f) {
  switch (f) {
    case Func1::kSin: return "sin";
    case Func1::kCos: return "cos";
    case Func1::kTan: return "tan";
    case Func1::kAsin: return "asin";
    case Func1::kAcos: return "acos";
    case Func1::kAtan: return "atan";
    case Func1::kSinh: return "sinh";
    case Func1::kCosh: return "cosh";
    case Func1::kTanh: return "tanh";
    case Func1::kExp: return "exp";
    case Func1::kLog: return "log";
    case Func1::kSqrt: return "sqrt";
    case Func1::kAbs: return "abs";
    case Func1::kSign: return "sign";
  }
  return "?";
}

const char* func2_name(Func2 f) {
  switch (f) {
    case Func2::kAtan2: return "atan2";
    case Func2::kMin: return "min";
    case Func2::kMax: return "max";
    case Func2::kHypot: return "hypot";
  }
  return "?";
}

std::size_t Pool::hash(const Node& n) {
  // FNV-style mix over the four fields, then a 64-bit finalizer so the
  // low bits the probe uses depend on every field.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(n.op));
  mix(n.fn);
  mix(n.a);
  mix(static_cast<std::uint64_t>(n.b) << 1);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

void Pool::grow_dedup() {
  std::vector<ExprId> table(dedup_.size() * 2, kNoExpr);
  const std::size_t mask = table.size() - 1;
  for (ExprId id = 0; id < nodes_.size(); ++id) {
    std::size_t i = hash(nodes_[id]) & mask;
    while (table[i] != kNoExpr) {
      i = (i + 1) & mask;
    }
    table[i] = id;
  }
  dedup_.swap(table);
}

ExprId Pool::intern(Op op, std::uint8_t fn, ExprId a, ExprId b) {
  const Node n{op, fn, a, b};
  // A hit writes nothing, so looking up existing nodes is read-only.
  const std::size_t mask = dedup_.size() - 1;
  std::size_t i = hash(n) & mask;
  for (; dedup_[i] != kNoExpr; i = (i + 1) & mask) {
    if (nodes_[dedup_[i]] == n) {
      return dedup_[i];
    }
  }
  const ExprId id = static_cast<ExprId>(nodes_.size());
  nodes_.push_back(n);
  if (2 * nodes_.size() > dedup_.size()) {
    grow_dedup();  // re-inserts the new node as well
  } else {
    dedup_[i] = id;
  }
  return id;
}

ExprId Pool::constant(double value) {
  // Canonicalize -0.0 to +0.0 so the two compare equal as nodes.
  if (value == 0.0) {
    value = 0.0;
  }
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  auto it = const_index_.find(bits);
  std::uint32_t idx;
  if (it != const_index_.end()) {
    idx = it->second;
  } else {
    consts_.push_back(value);
    idx = static_cast<std::uint32_t>(consts_.size() - 1);
    const_index_.emplace(bits, idx);
  }
  return intern(Op::kConst, 0, idx, kNoExpr);
}

ExprId Pool::sym(SymbolId s) { return intern(Op::kSym, 0, s, kNoExpr); }

ExprId Pool::der(ExprId symbol) {
  OMX_REQUIRE(node(symbol).op == Op::kSym, "der() applies to a symbol");
  return intern(Op::kDer, 0, symbol, kNoExpr);
}

double Pool::const_value(ExprId id) const {
  const Node& n = node(id);
  OMX_REQUIRE(n.op == Op::kConst, "node is not a constant");
  return consts_[n.a];
}

SymbolId Pool::sym_of(ExprId id) const {
  const Node& n = node(id);
  OMX_REQUIRE(n.op == Op::kSym, "node is not a symbol");
  return static_cast<SymbolId>(n.a);
}

bool Pool::is_const(ExprId id, double v) const {
  const Node& n = node(id);
  return n.op == Op::kConst && consts_[n.a] == v;
}

namespace {

bool has_two_children(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kPow:
    case Op::kCall2:
      return true;
    default:
      return false;
  }
}

bool is_leaf(Op op) { return op == Op::kConst || op == Op::kSym; }

}  // namespace

std::size_t Pool::tree_op_count(ExprId id) const {
  // Memoized: tree count of a node is 1 + sum of children's tree counts,
  // independent of where the node appears.
  std::vector<std::size_t> memo(nodes_.size(), static_cast<std::size_t>(-1));
  // Iterative post-order to avoid deep recursion on big models.
  std::vector<std::pair<ExprId, bool>> stack{{id, false}};
  while (!stack.empty()) {
    auto [cur, ready] = stack.back();
    stack.pop_back();
    if (memo[cur] != static_cast<std::size_t>(-1)) {
      continue;
    }
    const Node& n = nodes_[cur];
    if (is_leaf(n.op)) {
      memo[cur] = 0;
      continue;
    }
    if (!ready) {
      stack.push_back({cur, true});
      stack.push_back({n.a, false});
      if (has_two_children(n.op)) {
        stack.push_back({n.b, false});
      }
    } else {
      std::size_t c = 1 + memo[n.a];
      if (has_two_children(n.op)) {
        c += memo[n.b];
      }
      memo[cur] = c;
    }
  }
  return memo[id];
}

std::size_t Pool::dag_op_count(ExprId id) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<ExprId> stack{id};
  std::size_t count = 0;
  while (!stack.empty()) {
    const ExprId cur = stack.back();
    stack.pop_back();
    if (seen[cur]) {
      continue;
    }
    seen[cur] = true;
    const Node& n = nodes_[cur];
    if (is_leaf(n.op)) {
      continue;
    }
    ++count;
    stack.push_back(n.a);
    if (has_two_children(n.op)) {
      stack.push_back(n.b);
    }
  }
  return count;
}

void Pool::free_syms(ExprId id, std::vector<SymbolId>& out) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<ExprId> stack{id};
  while (!stack.empty()) {
    const ExprId cur = stack.back();
    stack.pop_back();
    if (seen[cur]) {
      continue;
    }
    seen[cur] = true;
    const Node& n = nodes_[cur];
    if (n.op == Op::kSym) {
      out.push_back(static_cast<SymbolId>(n.a));
    } else if (!is_leaf(n.op)) {
      stack.push_back(n.a);
      if (has_two_children(n.op)) {
        stack.push_back(n.b);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

namespace {

// substitute()'s memo, one per thread: value[id] is valid iff epoch_of[id]
// is the current pass's epoch. Sized to the pool at the start of a pass;
// nodes the pass creates are never looked up.
struct SubstituteScratch {
  std::vector<std::uint32_t> epoch_of;
  std::vector<ExprId> value;
  std::uint32_t epoch = 0;
  int holds = 0;
};

thread_local SubstituteScratch t_scratch;

}  // namespace

Pool::ScratchScope::ScratchScope() { ++t_scratch.holds; }

Pool::ScratchScope::~ScratchScope() {
  if (--t_scratch.holds == 0) {
    std::vector<std::uint32_t>().swap(t_scratch.epoch_of);
    std::vector<ExprId>().swap(t_scratch.value);
  }
}

template <class Lookup>
ExprId Pool::substitute_with(ExprId id, const Lookup& lookup) {
  substitute_passes_.fetch_add(1, std::memory_order_relaxed);
  ScratchScope hold;
  SubstituteScratch& m = t_scratch;
  if (m.epoch_of.size() < nodes_.size()) {
    m.epoch_of.resize(nodes_.size(), 0);
    m.value.resize(nodes_.size(), kNoExpr);
  }
  if (++m.epoch == 0) {  // wrapped: forget every stale stamp
    std::fill(m.epoch_of.begin(), m.epoch_of.end(), 0);
    m.epoch = 1;
  }
  const std::uint32_t epoch = m.epoch;
  auto memoize = [&m, epoch](ExprId at, ExprId value) {
    m.epoch_of[at] = epoch;
    m.value[at] = value;
  };
  // Iterative post-order rebuild. Children are rebuilt before parents.
  std::vector<std::pair<ExprId, bool>> stack{{id, false}};
  while (!stack.empty()) {
    auto [cur, ready] = stack.back();
    stack.pop_back();
    if (m.epoch_of[cur] == epoch) {
      continue;
    }
    const Node n = nodes_[cur];  // copy: nodes_ may grow below
    if (n.op == Op::kConst) {
      memoize(cur, cur);
      continue;
    }
    if (n.op == Op::kSym) {
      memoize(cur, lookup(static_cast<SymbolId>(n.a), cur));
      continue;
    }
    if (!ready) {
      stack.push_back({cur, true});
      stack.push_back({n.a, false});
      if (has_two_children(n.op)) {
        stack.push_back({n.b, false});
      }
    } else {
      const ExprId na = m.value[n.a];
      const ExprId nb = has_two_children(n.op) ? m.value[n.b] : kNoExpr;
      memoize(cur, intern(n.op, n.fn, na, nb));
    }
  }
  return m.value[id];
}

ExprId Pool::substitute(ExprId id, SymbolId from, ExprId to) {
  return substitute_with(id, [from, to](SymbolId s, ExprId self) {
    return s == from ? to : self;
  });
}

ExprId Pool::substitute(ExprId id,
                        const std::unordered_map<SymbolId, ExprId>& map) {
  return substitute_with(id, [&map](SymbolId s, ExprId self) {
    auto it = map.find(s);
    return it == map.end() ? self : it->second;
  });
}

}  // namespace omx::expr
