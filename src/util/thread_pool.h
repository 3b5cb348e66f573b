#ifndef GRAPHBENCH_UTIL_THREAD_POOL_H_
#define GRAPHBENCH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace graphbench {

/// Fixed-size worker pool over one optionally bounded FIFO queue: the
/// Gremlin Server analog's gremlinPool (bounded, so floods of complex
/// requests make submissions fail like the real server, §4.4).
///
/// A worker that has just finished a task polls for the next one for
/// kPollRounds yields before it parks on the condition variable, so a
/// steady stream of requests is handed over without a futex wake-up.
class ThreadPool {
 public:
  /// Yield rounds a worker (or a client awaiting a reply, see
  /// GremlinServer::Submit) polls before it parks. A count, not a clock, so
  /// polling reads no clock. A yield costs 0.38-0.45 µs on a 4-vCPU VM, so
  /// 128 rounds are ~50 µs: longer than a park plus wake-up, which is the
  /// cost polling saves, and short enough that an idle pool parks at once.
  static constexpr int kPollRounds = 128;

  /// `max_queue` of 0 means unbounded.
  explicit ThreadPool(size_t num_threads, size_t max_queue = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; returns false if the queue is full or the pool is
  /// shutting down (the task is dropped). Wakes a parked worker only when
  /// the polling workers are too few to take every queued task.
  bool Submit(std::function<void()> task);

  /// Stops accepting work, runs the queue dry, joins workers.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  /// queue_.size(), stored under mu_ and polled without it.
  std::atomic<size_t> queued_{0};
  /// Workers polling for a task. A worker adds itself without mu_ when its
  /// task ends and removes itself under mu_ as it takes a task or parks, so
  /// Submit, which reads it under mu_, never counts a worker that will not
  /// look at the queue again.
  std::atomic<size_t> pollers_{0};
  /// Workers parked on work_cv_. Guarded by mu_.
  size_t sleepers_ = 0;
  bool stop_ = false;
  size_t max_queue_;
  std::vector<std::thread> threads_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_UTIL_THREAD_POOL_H_
