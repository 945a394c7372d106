// Seeded random `when`-grammar models shared by the event property tests
// and the inliner differential tests: a damped oscillator carrying random
// when clauses, optionally with a chain of random algebraics the guards
// and the velocity equation read.
#pragma once

#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace omx::testgen {

/// Random expression over `leaves`, constants, sin, + and *: small depth,
/// sin/cos heavy so guards actually cross.
inline std::string rand_expr(std::mt19937& rng, int depth,
                             const std::vector<std::string>& leaves = {
                                 "x", "v", "a"}) {
  const int n = static_cast<int>(leaves.size());
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? n : n + 3);
  std::uniform_real_distribution<double> c(-2.0, 2.0);
  const int k = pick(rng);
  if (k < n) {
    return leaves[static_cast<std::size_t>(k)];
  }
  if (k == n) {
    std::ostringstream os;
    os << c(rng);
    return os.str();
  }
  if (k == n + 1) {
    return "sin(" + rand_expr(rng, depth - 1, leaves) + ")";
  }
  if (k == n + 2) {
    return "(" + rand_expr(rng, depth - 1, leaves) + " + " +
           rand_expr(rng, depth - 1, leaves) + ")";
  }
  return "(" + rand_expr(rng, depth - 1, leaves) + " * " +
         rand_expr(rng, depth - 1, leaves) + ")";
}

/// A damped oscillator carrying `count` random when clauses. Resets only
/// touch v (bounded dynamics either way) and keep magnitudes small. With
/// `algebraics` > 0 the class also defines w1..wN, each a random
/// expression over the states, the parameter and the earlier w's; the
/// guards read them, and v's equation reads the last one (scaled small).
inline std::string rand_model_source(std::mt19937& rng, std::size_t count,
                                     std::size_t algebraics = 0) {
  static const char* dirs[] = {"", "up ", "down ", "cross "};
  std::vector<std::string> leaves{"x", "v", "a"};
  std::string src =
      "model M\n"
      "  class A\n"
      "    param a = 0.3;\n"
      "    var x start 1;\n"
      "    var v start 0;\n";
  for (std::size_t k = 1; k <= algebraics; ++k) {
    const std::string w = "w" + std::to_string(k);
    src += "    var " + w + ";\n";
    src += "    eq " + w + " == " + rand_expr(rng, 2, leaves) + ";\n";
    leaves.push_back(w);
  }
  src += "    eq der(x) == v;\n";
  src += algebraics == 0
             ? "    eq der(v) == -x - a*v;\n"
             : "    eq der(v) == -x - a*v + 0.01*sin(" + leaves.back() +
                   ");\n";
  std::uniform_int_distribution<int> dir(0, 3);
  std::uniform_int_distribution<int> two(0, 1);
  for (std::size_t k = 0; k < count; ++k) {
    src += "    when " + std::string(dirs[dir(rng)]) +
           rand_expr(rng, 2, leaves) + " then v = " +
           (two(rng) ? "0.5 * v" : "v - 0.01") + ";\n";
  }
  src +=
      "  end\n"
      "  instance m : A;\n"
      "end\n";
  return src;
}

}  // namespace omx::testgen
