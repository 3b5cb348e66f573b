#include "util/thread_pool.h"

namespace graphbench {

ThreadPool::ThreadPool(size_t num_threads, size_t max_queue)
    : max_queue_(max_queue) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    if (max_queue_ != 0 && queue_.size() >= max_queue_) return false;
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
    // Each poller takes one task before it can park, so only the tasks
    // beyond their number need a parked worker.
    wake = sleepers_ > 0 &&
           queue_.size() > pollers_.load(std::memory_order_relaxed);
  }
  if (wake) work_cv_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  bool polling = false;  // counted in pollers_
  int polls = 0;         // yield rounds left before this worker parks
  for (;;) {
    while (polls > 0 && queued_.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
      --polls;
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Another poller took the task this one saw: poll on.
      if (queue_.empty() && polls > 0 && !stop_) continue;
      if (polling) pollers_.fetch_sub(1, std::memory_order_relaxed);
      polling = false;
      if (queue_.empty()) {
        if (stop_) return;
        ++sleepers_;
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        --sleepers_;
        if (queue_.empty()) return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    task();
    pollers_.fetch_add(1, std::memory_order_relaxed);
    polling = true;
    polls = kPollRounds;
  }
}

}  // namespace graphbench
