#include "exec/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/check.hpp"

namespace w11::exec {

namespace {
// Set while a thread is executing a chunk of any pool (for pool threads:
// always); nested parallel calls observe it and run inline.
thread_local bool tl_in_task = false;
}  // namespace

// One parallel_for invocation. Lives on the caller's stack; the caller does
// not return before every worker that joined it has left (joined_ == 0 with
// the batch unpublished), so no thread touches it after it dies.
struct TaskPool::Batch {
  const std::function<void(std::size_t, std::size_t)>& body;
  const std::size_t n;
  const std::size_t grain;
  // Next unclaimed chunk's begin index. The caller pre-claims chunk 0 (so
  // it always takes part): the shared cursor starts at the second chunk.
  std::atomic<std::size_t> cursor{grain};

  // Deterministic error propagation: keep the exception of the lowest chunk
  // begin-index; every chunk runs regardless of earlier failures.
  std::mutex err_mu{};
  std::size_t err_index = SIZE_MAX;
  std::exception_ptr err{};

  void run_chunk(std::size_t begin) {
    try {
      body(begin, std::min(begin + grain, n));
    } catch (...) {
      std::lock_guard<std::mutex> lk(err_mu);
      if (begin < err_index) {
        err_index = begin;
        err = std::current_exception();
      }
    }
  }

  // Claim and run chunks until the cursor passes n.
  void drain() {
    for (std::size_t begin; (begin = cursor.fetch_add(grain)) < n;)
      run_chunk(begin);
  }
};

TaskPool::TaskPool(int workers) {
  n_lanes_ = workers >= 1 ? workers : default_workers();
  threads_.reserve(static_cast<std::size_t>(n_lanes_ - 1));
  for (int i = 1; i < n_lanes_; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

TaskPool& TaskPool::global() {
  static TaskPool pool(0);
  return pool;
}

int TaskPool::default_workers() {
  if (const char* env = std::getenv("W11_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return std::min(v, 64);
  }
#ifdef W11_DEFAULT_THREADS
  if (W11_DEFAULT_THREADS >= 1) return std::min(W11_DEFAULT_THREADS, 64);
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hc), 1, 16);
}

bool TaskPool::in_task() { return tl_in_task; }

void TaskPool::worker_loop() {
  tl_in_task = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_cv_.wait(lk, [&] {
      return stop_ || (batch_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    Batch& batch = *batch_;
    ++joined_;
    lk.unlock();
    batch.drain();
    lk.lock();
    // The unlock/lock pair publishes this worker's chunk writes to the
    // caller, which reads joined_ under mu_ before touching results.
    if (--joined_ == 0) idle_cv_.notify_all();
  }
}

void TaskPool::execute(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  W11_CHECK(!tl_in_task);  // nested calls take the inline path
  std::lock_guard<std::mutex> submit(submit_mu_);

  // About four chunks per lane: small enough that the shared cursor
  // balances uneven bodies, large enough that claims stay off the critical
  // path.
  const auto lanes = static_cast<std::size_t>(n_lanes_);
  const std::size_t grain = std::max<std::size_t>(1, n / (lanes * 4));
  Batch batch{body, n, grain};
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_ = &batch;
    ++generation_;
  }
  wake_cv_.notify_all();

  tl_in_task = true;
  batch.run_chunk(0);
  batch.drain();
  tl_in_task = false;

  // Every chunk is claimed; unpublish, then wait out the workers still
  // running theirs.
  {
    std::unique_lock<std::mutex> lk(mu_);
    batch_ = nullptr;
    idle_cv_.wait(lk, [this] { return joined_ == 0; });
  }
  if (batch.err) std::rethrow_exception(batch.err);
}

}  // namespace w11::exec
