#include "omx/analysis/subsystem_solver.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

namespace omx::analysis {

PartitionedSolution solve_partitioned(const model::FlatSystem& flat,
                                      const Partition& partition,
                                      double t0, double tend,
                                      const PartitionedSolveOptions& opts) {
  OMX_REQUIRE(flat.finalized(), "flat system must be finalized");
  const std::size_t n = flat.num_states();
  const std::size_t num_sub = partition.num_subsystems();

  // state index -> (subsystem, column within that subsystem's solution).
  std::vector<std::pair<std::size_t, std::size_t>> locate(n);
  for (std::size_t c = 0; c < num_sub; ++c) {
    const auto& states = partition.subsystems[c].states;
    for (std::size_t k = 0; k < states.size(); ++k) {
      locate[static_cast<std::size_t>(states[k])] = {c, k};
    }
  }

  PartitionedSolution out;
  out.per_subsystem.resize(num_sub);
  std::vector<bool> solved(num_sub, false);

  // Solve in level order (levels respect the condensation topology).
  std::vector<std::size_t> order(num_sub);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return partition.subsystems[a].level <
                            partition.subsystems[b].level;
                   });

  for (std::size_t c : order) {
    const auto& members = partition.subsystems[c].states;

    // Local problem: the subsystem's states; everything else is read from
    // upstream trajectories (SCC-ness guarantees no other dependencies).
    ode::Problem p;
    p.n = members.size();
    p.t0 = t0;
    p.tend = tend;
    p.y0.reserve(p.n);
    for (int s : members) {
      p.y0.push_back(flat.states()[static_cast<std::size_t>(s)].start);
    }

    // Full-state scratch; non-upstream, non-member entries stay at their
    // start values and are never read by this subsystem's equations.
    auto full = std::make_shared<std::vector<double>>(n);
    auto fulldot = std::make_shared<std::vector<double>>(n);
    for (std::size_t i = 0; i < n; ++i) {
      (*full)[i] = flat.states()[i].start;
    }

    p.set_rhs([&flat, &out, &locate, &solved, members, full,
               fulldot](double t, std::span<const double> y,
                        std::span<double> ydot) {
      // Refresh upstream values by interpolation.
      const std::size_t nn = full->size();
      for (std::size_t i = 0; i < nn; ++i) {
        const auto [sub, col] = locate[i];
        if (solved[sub]) {
          (*full)[i] = out.per_subsystem[sub].at(t)[col];
        }
      }
      for (std::size_t k = 0; k < members.size(); ++k) {
        (*full)[static_cast<std::size_t>(members[k])] = y[k];
      }
      flat.eval_rhs(t, *full, *fulldot);
      for (std::size_t k = 0; k < members.size(); ++k) {
        ydot[k] = (*fulldot)[static_cast<std::size_t>(members[k])];
      }
    });

    ode::SolverOptions sopts;
    sopts.tol = opts.tol;
    sopts.max_steps = opts.max_steps;
    sopts.record_every = 1;  // downstream interpolation needs every step
    out.per_subsystem[c] = ode::solve(p, ode::Method::kDopri5, sopts);
    out.total += out.per_subsystem[c].stats;
    solved[c] = true;
  }

  out.final_state.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [sub, col] = locate[i];
    out.final_state[i] = out.per_subsystem[sub].final_state()[col];
  }
  return out;
}

}  // namespace omx::analysis
