#include "harness/sweep_runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "base/env.h"

namespace harness {

int SweepJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(base::EnvPositiveInt(
      "GEMINI_JOBS", hw > 0 ? hw : 1, std::numeric_limits<int>::max()));
}

SweepRunner::SweepRunner(SweepRunnerOptions options)
    : options_(std::move(options)) {}

int SweepRunner::EffectiveJobs(size_t count) const {
  int jobs = options_.jobs > 0 ? options_.jobs : SweepJobs();
  if (count > 0 && static_cast<size_t>(jobs) > count) {
    jobs = static_cast<int>(count);
  }
  return jobs < 1 ? 1 : jobs;
}

void SweepRunner::Run(size_t count, const std::function<void(size_t)>& cell) {
  if (count == 0) {
    return;
  }
  const int jobs = EffectiveJobs(count);
  const auto sweep_start = std::chrono::steady_clock::now();
  if (options_.progress) {
    std::fprintf(stderr, "[%s] %zu cells on %d job%s\n",
                 options_.label.c_str(), count, jobs, jobs == 1 ? "" : "s");
  }

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;  // guards first_error and stderr progress lines
  std::exception_ptr first_error;

  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      const auto start = std::chrono::steady_clock::now();
      bool failed = false;
      try {
        cell(i);
      } catch (...) {
        failed = true;
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      const size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.progress) {
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        std::string name =
            options_.cell_name ? options_.cell_name(i) : std::string();
        std::lock_guard<std::mutex> lock(mu);
        std::fprintf(stderr, "[%s %zu/%zu] %s%s(%.1fs)%s\n",
                     options_.label.c_str(), finished, count, name.c_str(),
                     name.empty() ? "" : " ", secs,
                     failed ? " FAILED" : "");
      }
    }
  };

  if (jobs == 1) {
    // Serial fallback: no threads, cells run inline on the caller.
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  if (options_.progress) {
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - sweep_start)
                            .count();
    std::fprintf(stderr, "[%s] done in %.1fs\n", options_.label.c_str(),
                 secs);
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace harness
