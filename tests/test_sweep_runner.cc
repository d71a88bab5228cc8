// Tests for the parallel sweep runner: bit-identical results at any job
// count, deterministic index-keyed ordering, the GEMINI_JOBS contract
// (including the jobs=1 inline fallback), and exception safety of the
// pool.
#include "harness/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench/bench_common.h"

namespace {

// Sets an environment variable for the duration of a test and restores the
// previous value on destruction (tests in this binary share the process
// environment).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

std::vector<workload::WorkloadSpec> TinySpecs() {
  std::vector<workload::WorkloadSpec> specs;
  for (const char* name : {"Canneal", "Shore"}) {
    workload::WorkloadSpec spec = workload::SpecByName(name);
    spec.working_set_pages = 8192;
    spec.ops = 30000;
    specs.push_back(spec);
  }
  return specs;
}

std::vector<harness::SystemKind> TinySystems() {
  return {harness::SystemKind::kHostBVmB, harness::SystemKind::kThp,
          harness::SystemKind::kGemini};
}

harness::BedOptions TinyBed() {
  harness::BedOptions bed;
  bed.host_frames = 131072;
  bed.vm_gfn_count = 49152;
  bed.seed = 23;
  return bed;
}

bench::SweepResult RunTinySweep() {
  return bench::RunSweep(TinySpecs(), TinySystems(), TinyBed(),
                         harness::RunCleanSlate, "test_sweep");
}

TEST(SweepJobs, ParsesPositiveInteger) {
  ScopedEnv env("GEMINI_JOBS", "6");
  EXPECT_EQ(harness::SweepJobs(), 6);
}

TEST(SweepJobs, RejectsNonPositiveAndGarbage) {
  for (const char* bad : {"0", "-3", "abc", "4x"}) {
    EXPECT_DEATH(
        {
          ::setenv("GEMINI_JOBS", bad, 1);
          harness::SweepJobs();
        },
        "GEMINI_JOBS")
        << bad;
  }
  // Unset or empty still means all cores.
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    ScopedEnv env("GEMINI_JOBS", unset);
    EXPECT_GE(harness::SweepJobs(), 1);
  }
}

TEST(SweepRunner, SingleJobRunsInlineOnCaller) {
  harness::SweepRunnerOptions options;
  options.jobs = 1;
  options.progress = false;
  harness::SweepRunner runner(options);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  runner.Run(seen.size(), [&](size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) {
    EXPECT_EQ(id, caller);
  }
}

TEST(SweepRunner, Jobs1EnvFallbackRunsInline) {
  ScopedEnv env("GEMINI_JOBS", "1");
  harness::SweepRunnerOptions options;  // jobs = 0 => SweepJobs() => 1
  options.progress = false;
  harness::SweepRunner runner(options);
  EXPECT_EQ(runner.EffectiveJobs(8), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  runner.Run(8, [&](size_t) {
    if (std::this_thread::get_id() != caller) {
      off_thread.fetch_add(1);
    }
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(SweepRunner, JobsCappedAtCellCount) {
  harness::SweepRunnerOptions options;
  options.jobs = 64;
  harness::SweepRunner runner(options);
  EXPECT_EQ(runner.EffectiveJobs(3), 3);
  EXPECT_EQ(runner.EffectiveJobs(100), 64);
}

TEST(SweepRunner, ParallelMapPreservesIndexOrder) {
  harness::SweepRunnerOptions options;
  options.jobs = 8;
  options.progress = false;
  const auto out = harness::ParallelMap(
      200, [](size_t i) { return i * i; }, options);
  ASSERT_EQ(out.size(), 200u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(SweepRunner, ExceptionInOneCellDoesNotDeadlockPool) {
  harness::SweepRunnerOptions options;
  options.jobs = 4;
  options.progress = false;
  harness::SweepRunner runner(options);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      runner.Run(16,
                 [&](size_t i) {
                   if (i == 5) {
                     throw std::runtime_error("cell 5 exploded");
                   }
                   completed.fetch_add(1);
                 }),
      std::runtime_error);
  // Every other cell still ran: the pool drained instead of deadlocking
  // or abandoning queued work.
  EXPECT_EQ(completed.load(), 15);
}

TEST(SweepRunner, FirstExceptionIsRethrownWithMessage) {
  harness::SweepRunnerOptions options;
  options.jobs = 1;  // deterministic completion order: cell 3 throws first
  options.progress = false;
  harness::SweepRunner runner(options);
  try {
    runner.Run(8, [&](size_t i) {
      if (i >= 3) {
        throw std::runtime_error("cell " + std::to_string(i));
      }
    });
    FAIL() << "expected runner.Run to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
}

TEST(RunSweep, RowOrderingIsWorkloadMajorAtAnyJobCount) {
  const auto specs = TinySpecs();
  const auto systems = TinySystems();
  for (const char* jobs : {"1", "4"}) {
    ScopedEnv env("GEMINI_JOBS", jobs);
    const auto sweep = RunTinySweep();
    ASSERT_EQ(sweep.cells.size(), specs.size() * systems.size());
    for (size_t i = 0; i < sweep.cells.size(); ++i) {
      EXPECT_EQ(sweep.cells[i].workload, specs[i / systems.size()].name);
      EXPECT_EQ(sweep.cells[i].system, systems[i % systems.size()]);
      EXPECT_EQ(sweep.cells[i].seed, TinyBed().seed);
    }
    ASSERT_EQ(sweep.workloads.size(), specs.size());
    for (size_t w = 0; w < specs.size(); ++w) {
      EXPECT_EQ(sweep.workloads[w], specs[w].name);
    }
  }
}

TEST(RunSweep, SerialAndParallelResultsAreBitIdentical) {
  bench::SweepResult serial;
  bench::SweepResult parallel;
  {
    ScopedEnv env("GEMINI_JOBS", "1");
    serial = RunTinySweep();
  }
  {
    ScopedEnv env("GEMINI_JOBS", "4");
    parallel = RunTinySweep();
  }
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    const workload::RunResult& a = serial.cells[i].result;
    const workload::RunResult& b = parallel.cells[i].result;
    EXPECT_EQ(a.ops, b.ops) << i;
    EXPECT_EQ(a.tlb_misses, b.tlb_misses) << i;
    EXPECT_EQ(a.tlb_hits, b.tlb_hits) << i;
    EXPECT_EQ(a.busy_cycles, b.busy_cycles) << i;
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput) << i;
    EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency) << i;
    EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency) << i;
    EXPECT_EQ(a.alignment.guest_huge, b.alignment.guest_huge) << i;
    EXPECT_EQ(a.alignment.host_huge, b.alignment.host_huge) << i;
    EXPECT_DOUBLE_EQ(a.alignment.well_aligned_rate,
                     b.alignment.well_aligned_rate)
        << i;
  }
}

}  // namespace
