#include "omx/support/fork_join.hpp"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

namespace omx::support {

namespace {

/// One fork_join call. Guarded by HelperSet::mutex_.
struct Join {
  std::condition_variable cv;
  std::size_t pending = 0;  // indices that have not returned yet
  std::exception_ptr error;
};

struct Helper {
  Helper() = default;
  Helper(const Helper&) = delete;  // its thread holds its address
  Helper& operator=(const Helper&) = delete;

  std::condition_variable_any cv;
  // The handed-out index (join == nullptr: none). Guarded by
  // HelperSet::mutex_.
  FunctionRef<void(std::size_t)> fn;
  std::size_t index = 0;
  Join* join = nullptr;
  std::jthread thread;  // last member: stopped and joined first
};

/// Every helper the process has started, behind one mutex that also
/// guards every Join. Idle helpers sit on a stack, so the most recently
/// parked one is handed out first. Destroying the set (a function-local
/// static) stops and joins every helper.
class HelperSet {
 public:
  HelperSet() = default;
  HelperSet(const HelperSet&) = delete;  // helpers hold its address
  HelperSet& operator=(const HelperSet&) = delete;

  void fork_join(std::size_t n, FunctionRef<void(std::size_t)> fn) {
    Join join;
    join.pending = n;
    std::exception_ptr error;
    std::size_t i = 1;
    try {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (; i < n; ++i) {
          Helper* h = nullptr;
          if (idle_.empty()) {
            h = all_.emplace_back(std::make_unique<Helper>()).get();
            h->thread = std::jthread(
                [this, h](std::stop_token stop) { run(*h, stop); });
          } else {
            h = idle_.back();
            idle_.pop_back();
          }
          h->fn = fn;
          h->index = i;
          h->join = &join;
          h->cv.notify_one();
        }
      }
      fn(0);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    // Index 0, plus any indices a failed hand-out never started.
    arrive(join, std::move(error), 1 + (n - i));
    join.cv.wait(lock, [&] { return join.pending == 0; });
    if (join.error != nullptr) {
      std::rethrow_exception(join.error);
    }
  }

 private:
  /// Under mutex_. Notifies under the lock: the caller destroys the Join
  /// as soon as it observes pending == 0.
  static void arrive(Join& join, std::exception_ptr error,
                     std::size_t count) {
    if (join.error == nullptr) {
      join.error = std::move(error);
    }
    join.pending -= count;
    if (join.pending == 0) {
      join.cv.notify_one();
    }
  }

  void run(Helper& h, const std::stop_token& stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (h.cv.wait(lock, stop, [&] { return h.join != nullptr; })) {
      Join& join = *std::exchange(h.join, nullptr);
      lock.unlock();
      std::exception_ptr error;
      try {
        h.fn(h.index);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      // Parked and reported in one step: a caller that starts its next
      // fork_join as soon as this one returns finds the helper idle.
      idle_.push_back(&h);
      arrive(join, std::move(error), 1);
    }
  }

  std::mutex mutex_;
  std::vector<Helper*> idle_;
  std::vector<std::unique_ptr<Helper>> all_;
};

}  // namespace

void fork_join(std::size_t n, FunctionRef<void(std::size_t)> fn) {
  static HelperSet helpers;
  if (n > 0) {
    helpers.fork_join(n, fn);
  }
}

}  // namespace omx::support
