#include "omx/runtime/worker_pool.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "omx/obs/trace.hpp"
#include "omx/support/config.hpp"
#include "omx/support/fork_join.hpp"
#include "omx/support/timer.hpp"

namespace omx::runtime {

namespace {
// Fixed per-message envelope (header, tags) in bytes.
constexpr std::size_t kHeaderBytes = 16;
}  // namespace

bool WorkerPool::stealing_env_default() {
  return config::get_bool("OMX_POOL_STEALING", false);
}

WorkerPool::WorkerPool(const exec::RhsKernel& kernel, const Options& opts)
    : kernel_(&kernel), opts_(opts) {
  init();
}

void WorkerPool::init() {
  OMX_REQUIRE(opts_.num_workers >= 1, "need at least one worker");
  OMX_REQUIRE(opts_.compute_scale >= 1, "compute_scale must be >= 1");
  OMX_REQUIRE(kernel_->has_tasks(),
              "WorkerPool needs a kernel with a task decomposition");
  OMX_REQUIRE(kernel_->num_lanes() >= opts_.num_workers,
              "kernel has fewer lanes than workers");
  obs::Registry& reg = obs::Registry::global();
  rhs_calls_metric_ = &reg.counter("rhs.calls");
  tasks_run_metric_ = &reg.counter("rhs.tasks_run");
  steals_metric_ = &reg.counter("pool.steals");
  steal_failures_metric_ = &reg.counter("pool.steal_failures");
  // Steal latency spans lock contention (~100 ns) up to a whole task on a
  // loaded machine.
  steal_latency_metric_ = &reg.histogram(
      "pool.steal_latency_seconds", obs::log_spaced_bounds(1e-7, 1e-2));
  task_seconds_metric_ = &reg.histogram(
      "pool.task_seconds", obs::log_spaced_bounds(1e-7, 1.0));

  y_.resize(kernel_->n_state(), 0.0);
  const exec::TaskTable& table = kernel_->tasks();
  task_seconds_.assign(table.size(), 0.0);
  task_result_offset_.resize(table.size() + 1);
  std::size_t offset = 0;
  for (std::size_t t = 0; t < table.size(); ++t) {
    task_result_offset_[t] = offset;
    offset += table.tasks[t].out_slots.size();
  }
  task_result_offset_[table.size()] = offset;
  task_results_.assign(offset, 0.0);

  workers_.reserve(opts_.num_workers);
  for (std::size_t w = 0; w < opts_.num_workers; ++w) {
    auto ws = std::make_unique<WorkerState>();
    ws->task_out.assign(kernel_->n_out(), 0.0);
    ws->deque.reserve(table.size());
    workers_.push_back(std::move(ws));
  }
  // Default schedule: round-robin, replaced by the caller via
  // set_schedule() (LPT) in normal operation.
  sched::Schedule rr(opts_.num_workers);
  for (std::size_t i = 0; i < kernel_->num_tasks(); ++i) {
    rr[i % opts_.num_workers].push_back(static_cast<std::uint32_t>(i));
  }
  set_schedule(rr);
}

void WorkerPool::set_schedule(const sched::Schedule& schedule) {
  OMX_REQUIRE(schedule.size() == workers_.size(),
              "schedule/worker count mismatch");
  const exec::TaskTable& table = kernel_->tasks();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->tasks = schedule[w];
    std::size_t outputs = 0;
    for (std::uint32_t t : schedule[w]) {
      OMX_REQUIRE(t < table.size(), "task index out of range");
      outputs += table.tasks[t].out_slots.size();
    }
    workers_[w]->result_bytes = kHeaderBytes + 16 * outputs;
  }
  // A task the new schedule omits must contribute zero, not a stale
  // value from an earlier schedule.
  std::fill(task_results_.begin(), task_results_.end(), 0.0);
  recompute_message_sizes();
}

void WorkerPool::recompute_message_sizes() {
  const exec::TaskTable& table = kernel_->tasks();
  for (auto& w : workers_) {
    std::size_t payload_states = kernel_->n_state();
    // Stealing needs the full broadcast: any worker may execute any task
    // (the paper's own argument for sending everything, §3.2.3).
    if (opts_.communication_analysis && !opts_.stealing) {
      std::unordered_set<std::uint32_t> needed;
      for (std::uint32_t t : w->tasks) {
        for (std::uint32_t s : table.tasks[t].in_states) {
          needed.insert(s);
        }
      }
      payload_states = needed.size();
    }
    // t plus the states; results carry (slot, value) pairs.
    w->state_bytes = kHeaderBytes + 8 * (payload_states + 1);
  }
}

void WorkerPool::execute_task(WorkerState& w, std::size_t index,
                              std::uint32_t task) {
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  const exec::TaskMeta& meta = kernel_->tasks().tasks[task];
  const bool tracing = tb.active();
  const std::int64_t span_start = tracing ? tb.now_ns() : 0;
  Stopwatch timer;
  for (std::size_t rep = 0; rep < opts_.compute_scale; ++rep) {
    // run_task accumulates, so its slots are re-zeroed per rep; only the
    // final rep's values are kept.
    for (std::uint32_t slot : meta.out_slots) {
      w.task_out[slot] = 0.0;
    }
    kernel_->run_task(index, task, t_, y_.data(), w.task_out.data());
  }
  task_seconds_[task] = timer.seconds();
  task_seconds_metric_->observe(task_seconds_[task]);
  if (tracing) {
    tb.record("task/" + std::to_string(task), "task", span_start,
              tb.now_ns() - span_start);
  }
  double* dst = task_results_.data() + task_result_offset_[task];
  for (std::uint32_t slot : meta.out_slots) {
    *dst++ = w.task_out[slot];
  }
  w.outputs_produced += meta.out_slots.size();
}

void WorkerPool::run_epoch(WorkerState& w, std::size_t index) {
  std::size_t executed = 0;
  w.outputs_produced = 0;

  if (!opts_.stealing) {
    // Static §3.2.3 mode: drain the fixed assignment, nothing else.
    if (w.tasks.empty()) {
      return;
    }
    stats_.charge(opts_.net, w.state_bytes);  // receive the state message
    for (std::uint32_t task : w.tasks) {
      if (abort_.load(std::memory_order_acquire)) {
        break;
      }
      execute_task(w, index, task);
      ++executed;
    }
    if (executed > 0) {
      tasks_run_metric_->add(executed);
      stats_.charge(opts_.net, w.result_bytes);  // send the results back
    }
    return;
  }

  // Stealing mode: drain the own deque, then steal until every deque is
  // empty. Tasks still running elsewhere are the fork_join's to wait for
  // (tasks are only seeded between epochs, so none can appear). Every
  // worker participates (and pays the full-state receive) even with an
  // empty seed — it may steal.
  stats_.charge(opts_.net, w.state_bytes);
  std::uint64_t steals = 0;
  std::uint64_t lost_races = 0;
  Stopwatch hunt;  // since this worker last finished a task
  const auto deque_at = [&](std::size_t i) -> TaskDeque& {
    return workers_[i]->deque;
  };
  while (!abort_.load(std::memory_order_acquire)) {
    std::uint32_t task = 0;
    const Claim claim =
        claim_task(index, workers_.size(), deque_at, task, lost_races);
    if (claim == Claim::kNone) {
      break;
    }
    if (claim == Claim::kStolen) {
      steal_latency_metric_->observe(hunt.seconds());
      ++steals;
    }
    execute_task(w, index, task);
    ++executed;
    hunt.reset();
  }
  if (executed > 0) {
    tasks_run_metric_->add(executed);
  }
  if (steals > 0) {
    steals_metric_->add(steals);
    tasks_stolen_.fetch_add(steals, std::memory_order_relaxed);
  }
  if (lost_races > 0) {
    steal_failures_metric_->add(lost_races);
  }
  // The response message doubles as the completion report, so it is sent
  // even when this worker executed nothing — message counts stay
  // deterministic under dynamic scheduling.
  stats_.charge(opts_.net, kHeaderBytes + 16 * w.outputs_produced);
}

void WorkerPool::eval(double t, std::span<const double> y,
                      std::span<double> ydot) {
  OMX_REQUIRE(y.size() == kernel_->n_state(), "state size mismatch");
  OMX_REQUIRE(ydot.size() == kernel_->n_out(), "ydot size mismatch");

  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  if (tb.active()) {
    tb.set_thread_name("supervisor");
  }
  obs::Span eval_span("rhs.eval", "runtime");

  t_ = t;
  std::copy(y.begin(), y.end(), y_.begin());

  {
    // Distribution phase: the supervisor serializes the sends (it is one
    // processor writing to the interconnect), then each worker pays its
    // receive cost concurrently. All epoch inputs are published by the
    // fork_join hand-off below.
    obs::Span scatter("scatter", "runtime");
    for (auto& w : workers_) {
      if (opts_.stealing) {
        w->deque.seed(w->tasks);
        stats_.charge(opts_.net, w->state_bytes);  // full broadcast
      } else if (!w->tasks.empty()) {
        stats_.charge(opts_.net, w->state_bytes);  // supervisor send cost
      }
    }
    abort_.store(false, std::memory_order_relaxed);
  }

  // Execution phase: the supervisor runs worker 0, helpers the rest. A
  // throwing worker aborts the epoch so peers stop claiming tasks;
  // fork_join re-throws the first exception once every worker returned.
  auto run = [&](std::size_t i) {
    if (i > 0 && tb.active()) {
      tb.set_thread_name("worker/" + std::to_string(i));
    }
    try {
      run_epoch(*workers_[i], i);
    } catch (...) {
      abort_.store(true, std::memory_order_release);
      throw;
    }
  };
  support::fork_join(workers_.size(), run);

  // Collection phase: accumulate the per-task results in task-id order —
  // deterministic regardless of which worker executed which task.
  obs::Span gather("gather", "runtime");
  for (auto& w : workers_) {
    if (opts_.stealing) {
      // supervisor receive cost, mirroring the worker's send
      stats_.charge(opts_.net, kHeaderBytes + 16 * w->outputs_produced);
    } else if (!w->tasks.empty()) {
      stats_.charge(opts_.net, w->result_bytes);
    }
  }

  std::fill(ydot.begin(), ydot.end(), 0.0);
  const exec::TaskTable& table = kernel_->tasks();
  for (std::size_t task = 0; task < table.size(); ++task) {
    const double* src = task_results_.data() + task_result_offset_[task];
    for (std::uint32_t slot : table.tasks[task].out_slots) {
      ydot[slot] += *src++;
    }
  }

  rhs_calls_metric_->add();
  ++evals_completed_;
}

}  // namespace omx::runtime
