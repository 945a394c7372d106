// Chase-Lev work-stealing deque (Chase & Lev, "Dynamic Circular
// Work-Stealing Deques", SPAA 2005), specialized for the worker pool's
// epoch discipline, plus claim_task(): the one "pop own, else steal from
// the most-loaded victim" loop shared by the worker pool and the
// ensemble driver.
//
//  * Fixed capacity. The deque is (re)seeded before a fork_join hands
//    the workers their share and only drained (pop/steal) while that
//    fork_join runs, so the circular-growth path of the original
//    algorithm is unnecessary and indices never wrap.
//  * seq_cst atomics instead of standalone fences. ThreadSanitizer does
//    not model std::atomic_thread_fence, so the classic fence-based C11
//    formulation produces false race reports; sequentially consistent
//    operations are strictly stronger, keep the pool TSan-clean, and cost
//    nothing measurable at the task granularities scheduled here.
//
// The owner pops newest-first from the bottom; thieves steal oldest-first
// from the top. Seeded with an LPT assignment (descending predicted
// cost), a thief therefore migrates the largest remaining task — the most
// rebalancing per steal.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

namespace omx::runtime {

class TaskDeque {
 public:
  TaskDeque() = default;
  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Before the fork_join only: ensures room for `cap` entries.
  void reserve(std::size_t cap) {
    if (cap > cap_) {
      buf_.reset(new std::atomic<std::uint32_t>[cap]);
      cap_ = cap;
    }
  }

  /// Before the fork_join only: refills the deque. tasks[0] becomes
  /// the oldest entry (stolen first); tasks.back() is popped first by the
  /// owner. Requires reserve(tasks.size()) to have happened.
  void seed(std::span<const std::uint32_t> tasks) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      buf_[i].store(tasks[i], std::memory_order_relaxed);
    }
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(static_cast<std::int64_t>(tasks.size()),
                  std::memory_order_relaxed);
  }

  /// Owner-only: removes the newest entry. Returns false when empty.
  bool pop(std::uint32_t& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);  // publish the claim
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Empty (or a thief got the last entry): undo the claim.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = buf_[b].load(std::memory_order_relaxed);
    if (t == b) {
      // Last entry: race the thieves for it via the CAS on top.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Any thread: removes the oldest entry. Returns false when empty or
  /// when the CAS loses a race (the caller retries or picks a new
  /// victim).
  bool steal(std::uint32_t& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) {
      return false;
    }
    // Read the entry before claiming it; a failed CAS discards the value.
    out = buf_[t].load(std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
  }

  /// Racy size approximation for victim selection only.
  std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::unique_ptr<std::atomic<std::uint32_t>[]> buf_;
  std::size_t cap_ = 0;
};

enum class Claim {
  kNone,    // the own deque and every other deque are empty
  kOwn,     // popped from the own deque
  kStolen,  // stole the oldest entry of the most-loaded other deque
};

/// Claims a task for worker `self` of `n`: pops its own deque, else
/// steals from the most-loaded other deque by (racy) size_estimate(),
/// picking again after each steal that loses its race (counted in
/// `lost_races`). `deque_at(i)` returns worker i's TaskDeque.
template <typename DequeAt>
Claim claim_task(std::size_t self, std::size_t n, DequeAt&& deque_at,
                 std::uint32_t& out, std::uint64_t& lost_races) {
  if (deque_at(self).pop(out)) {
    return Claim::kOwn;
  }
  for (;;) {
    std::size_t victim = self;
    std::size_t victim_size = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i == self ? 0 : deque_at(i).size_estimate();
      if (s > victim_size) {
        victim_size = s;
        victim = i;
      }
    }
    if (victim == self) {
      return Claim::kNone;
    }
    if (deque_at(victim).steal(out)) {
      return Claim::kStolen;
    }
    ++lost_races;
  }
}

}  // namespace omx::runtime
