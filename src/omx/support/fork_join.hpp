// fork_join: the one fan-out primitive of the tree. runtime::WorkerPool's
// workers, solve_ensemble's workers and the colored-FD Jacobian's color
// groups all run on it.
//
// fork_join(n, fn) runs fn(i) once for every i in [0, n): index 0 on the
// calling thread, indices 1..n-1 on helper threads. It returns once every
// index has returned, then re-throws the first exception any index threw.
//
// Helpers stay parked for the life of the process and are reused. A
// helper is handed out only while idle, and a new one starts when none
// is, so concurrent callers and nested calls never wait on each other.
// Handing out an index and reporting its completion each go through a
// mutex: the caller's writes before the call are visible to fn(i), and
// fn(i)'s writes are visible to the caller after it returns.
#pragma once

#include <cstddef>

#include "omx/support/function_ref.hpp"

namespace omx::support {

void fork_join(std::size_t n, FunctionRef<void(std::size_t)> fn);

}  // namespace omx::support
