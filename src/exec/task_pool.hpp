#pragma once
// TaskPool: the deterministic parallel execution layer (DESIGN.md §10).
//
// One fork-join batch at a time: the calling thread and workers()-1 pool
// threads claim fixed-size chunks of [0, n) from one shared cursor. The
// design constraint that shapes everything here is *determinism*: a
// computation run on the pool must produce bit-for-bit the result it
// produces serially, at any worker count. The pool guarantees its half of
// that contract:
//
//   * parallel_for(n, body) runs body(i) exactly once per i; the caller
//     blocks (and helps execute) until every index has finished;
//   * parallel_map writes result i to slot i, so the output vector's order
//     is the index order, never the completion order — a caller reducing
//     the result folds it on its own thread in ascending index order, so
//     the floating-point accumulation order is fixed;
//   * if bodies throw, the exception propagated to the caller is the one
//     raised by the *lowest* failing index (every chunk still runs), so
//     error behavior does not depend on scheduling either.
//
// The caller's half: bodies for distinct indices must not write shared
// state (write only to your own index's slot), and any RNG a task needs is
// derived by stream id (Rng::fork(stream_id)), never drawn from a shared
// generator.
//
// Scheduling notes:
//   * workers() is the number of execution lanes *including* the calling
//     thread; TaskPool(1) executes everything inline and spawns nothing.
//   * A nested parallel_for — a pool task calling back into any pool —
//     runs inline on the calling thread. Parallelism is spent at the
//     outermost level, which is where the grain is coarsest; nesting is
//     legal everywhere and never deadlocks.
//   * Two external threads calling into one pool are serialized: the
//     second waits until the first batch has finished.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace w11::exec {

class TaskPool {
 public:
  // workers <= 0 selects default_workers(). workers == 1 is the serial
  // pool: no threads, every call executes inline.
  explicit TaskPool(int workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Execution lanes, including the calling thread.
  [[nodiscard]] int workers() const { return n_lanes_; }

  // The process-wide shared pool, sized by default_workers(). Built on
  // first use; lives until exit.
  static TaskPool& global();

  // Worker-count default: the W11_THREADS environment variable if set (>=1),
  // else the W11_THREADS CMake cache value baked in as W11_DEFAULT_THREADS,
  // else hardware concurrency (clamped to [1, 16]).
  static int default_workers();

  // True while the current thread is executing a task of *any* TaskPool —
  // i.e. a parallel_for here would run inline.
  [[nodiscard]] static bool in_task();

  // body(i) for every i in [0, n). Blocks until all indices completed;
  // rethrows the lowest failing index's exception.
  template <class F>
  void parallel_for(std::size_t n, F&& body) {
    if (n_lanes_ == 1 || n < 2 || in_task()) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    execute(n, [&body](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  // out[i] = body(i); output in index order regardless of completion
  // order. T must be default-constructible.
  template <class T, class F>
  [[nodiscard]] std::vector<T> parallel_map(std::size_t n, F&& body) {
    std::vector<T> out(n);
    parallel_for(n, [&out, &body](std::size_t i) { out[i] = body(i); });
    return out;
  }

 private:
  struct Batch;

  // Publish one batch over [0, n), run chunks on the caller until the
  // cursor is spent, then wait out the workers still inside the batch.
  void execute(std::size_t n,
               const std::function<void(std::size_t, std::size_t)>& body);
  void worker_loop();

  int n_lanes_ = 1;

  std::mutex submit_mu_;  // held by the one external caller in execute()

  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers: new generation or stop_
  std::condition_variable idle_cv_;  // caller: joined_ reached 0
  Batch* batch_ = nullptr;           // guarded by mu_; the published batch
  std::uint64_t generation_ = 0;     // guarded by mu_; bumped per batch
  int joined_ = 0;                   // guarded by mu_; workers inside batch_
  bool stop_ = false;                // guarded by mu_

  std::vector<std::thread> threads_;  // after everything worker_loop reads
};

}  // namespace w11::exec
