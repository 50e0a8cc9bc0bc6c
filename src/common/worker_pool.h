// A small blocking worker pool for the parallel recovery phases (journal
// replay and its region prefetch, the install transaction's journal
// writes, the pFSCK-style checker). The shadow's op-sequence replay is
// sequential and does not use it.
//
// Deliberately minimal: run(n, fn) executes fn(0..n-1) across the pool's
// threads and blocks the caller until every task finished. Recovery is a
// stop-the-world event -- nothing else runs concurrently with it -- so
// there is no need for work stealing, futures, or a persistent global
// pool; each phase constructs a pool scoped to itself. That is not free:
// spawning, running and joining an 8-thread pool took 0.26-0.30 ms on a
// 4-vCPU host, against a phase that waits on hundreds of device IOs.
//
// Determinism contract: a pool constructed with `workers <= 1` runs every
// task inline on the calling thread, in index order. All parallel
// recovery paths are required to produce byte-identical output for any
// worker count; the inline mode is the reference they are compared
// against (and the fallback when determinism cannot be proven).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace raefs {

class WorkerPool {
 public:
  /// Spawns `workers` threads when workers > 1; otherwise no threads are
  /// created and run() executes inline.
  explicit WorkerPool(uint32_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execute fn(0), fn(1), ..., fn(n_tasks - 1), distributing tasks to the
  /// pool's threads, and block until all have finished. If any task throws,
  /// the first exception (by completion order) is rethrown here after all
  /// tasks finished; the rest are dropped.
  void run(uint64_t n_tasks, const std::function<void(uint64_t)>& fn);

  uint32_t workers() const { return workers_; }

 private:
  void worker_loop();

  uint32_t workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  const std::function<void(uint64_t)>* fn_ = nullptr;  // current batch
  uint64_t next_task_ = 0;
  uint64_t n_tasks_ = 0;
  uint64_t active_ = 0;       // tasks currently executing
  uint64_t generation_ = 0;   // batch counter (wakes workers)
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace raefs
