// Tests for strict GEMINI_* knob parsing (base/env.h) and the harness knobs
// built on it: a malformed value aborts naming the variable instead of
// silently running the default (`abc`), a prefix (`2x` as 2) or a blank.
#include "base/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/experiment.h"
#include "trace/session.h"

namespace {

constexpr const char* kMalformed[] = {"abc", "2x", " ", "+3", "0x10"};

// Restores one variable's outer value when the test ends.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* outer = std::getenv(name);
    had_ = outer != nullptr;
    saved_ = had_ ? outer : "";
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  void Set(const char* value) { setenv(name_, value, 1); }
  void Unset() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

TEST(Env, PositiveIntParsesWholeNumbersAndDefaults) {
  ScopedEnv env("GEMINI_TEST_KNOB");
  env.Unset();
  EXPECT_EQ(base::EnvPositiveInt("GEMINI_TEST_KNOB", 7), 7u);
  env.Set("");  // empty means unset
  EXPECT_EQ(base::EnvPositiveInt("GEMINI_TEST_KNOB", 7), 7u);
  env.Set("42");
  EXPECT_EQ(base::EnvPositiveInt("GEMINI_TEST_KNOB", 7), 42u);
  env.Set("4294967295");
  EXPECT_EQ(base::EnvPositiveInt("GEMINI_TEST_KNOB", 7, 4294967295u),
            4294967295u);
}

TEST(Env, PositiveIntRejectsMalformedZeroAndOutOfRange) {
  for (const char* bad : kMalformed) {
    EXPECT_DEATH(
        {
          setenv("GEMINI_TEST_KNOB", bad, 1);
          base::EnvPositiveInt("GEMINI_TEST_KNOB", 7);
        },
        "GEMINI_TEST_KNOB")
        << bad;
  }
  EXPECT_DEATH(
      {
        setenv("GEMINI_TEST_KNOB", "0", 1);
        base::EnvPositiveInt("GEMINI_TEST_KNOB", 7);
      },
      "GEMINI_TEST_KNOB");
  EXPECT_DEATH(
      {
        setenv("GEMINI_TEST_KNOB", "4294967296", 1);
        base::EnvPositiveInt("GEMINI_TEST_KNOB", 7, 4294967295u);
      },
      "GEMINI_TEST_KNOB.*out of range");
}

TEST(Env, DoubleParsesFixedAndScientific) {
  ScopedEnv env("GEMINI_TEST_KNOB");
  env.Unset();
  EXPECT_EQ(base::EnvDouble("GEMINI_TEST_KNOB", 0.5), 0.5);
  env.Set("");
  EXPECT_EQ(base::EnvDouble("GEMINI_TEST_KNOB", 0.5), 0.5);
  env.Set("1.5");
  EXPECT_EQ(base::EnvDouble("GEMINI_TEST_KNOB", 0.5), 1.5);
  env.Set("2e0");
  EXPECT_EQ(base::EnvDouble("GEMINI_TEST_KNOB", 0.5), 2.0);
}

TEST(Env, DoubleRejectsMalformedAndNonFinite) {
  for (const char* bad : {"abc", "2x", " ", "1.5.", "inf", "nan"}) {
    EXPECT_DEATH(
        {
          setenv("GEMINI_TEST_KNOB", bad, 1);
          base::EnvDouble("GEMINI_TEST_KNOB", 0.5);
        },
        "GEMINI_TEST_KNOB")
        << bad;
  }
}

// Every harness knob aborts on each malformed value, naming itself.  Only
// parsing runs in the death-test child.
TEST(Env, HarnessKnobsAbortOnMalformedValues) {
  for (const char* bad : kMalformed) {
    EXPECT_DEATH(
        {
          setenv("GEMINI_REPART_INTERVAL", bad, 1);
          harness::RepartIntervalFromEnv();
        },
        "GEMINI_REPART_INTERVAL")
        << bad;
    EXPECT_DEATH(
        {
          setenv("GEMINI_REPART_MIN_WAYS", bad, 1);
          harness::RepartMinWaysFromEnv();
        },
        "GEMINI_REPART_MIN_WAYS")
        << bad;
    for (const char* knob :
         {"GEMINI_DAMON_MIN", "GEMINI_DAMON_MAX", "GEMINI_DAMON_AGG"}) {
      EXPECT_DEATH(
          {
            setenv(knob, bad, 1);
            harness::DamonConfigFromEnv();
          },
          knob)
          << bad;
    }
    EXPECT_DEATH(
        {
          setenv("GEMINI_OVERCOMMIT", bad, 1);
          harness::OvercommitFromEnv();
        },
        "GEMINI_OVERCOMMIT")
        << bad;
  }
}

TEST(Env, TraceIntervalAbortsOnMalformedValues) {
  for (const char* bad : {"abc", "2x", " ", "0"}) {
    EXPECT_DEATH(
        {
          setenv("GEMINI_TRACE", "/tmp", 1);
          setenv("GEMINI_TRACE_INTERVAL", bad, 1);
          trace::TraceConfigFromEnv("stem");
        },
        "GEMINI_TRACE_INTERVAL")
        << bad;
  }
}

TEST(Env, HarnessKnobsParseWellFormedValues) {
  ScopedEnv interval("GEMINI_REPART_INTERVAL");
  ScopedEnv min_ways("GEMINI_REPART_MIN_WAYS");
  ScopedEnv overcommit("GEMINI_OVERCOMMIT");
  ScopedEnv damon_min("GEMINI_DAMON_MIN");
  ScopedEnv damon_max("GEMINI_DAMON_MAX");
  ScopedEnv damon_agg("GEMINI_DAMON_AGG");
  interval.Unset();
  EXPECT_EQ(harness::RepartIntervalFromEnv(123), 123u);
  interval.Set("5000");
  EXPECT_EQ(harness::RepartIntervalFromEnv(123), 5000u);
  min_ways.Set("3");
  EXPECT_EQ(harness::RepartMinWaysFromEnv(), 3u);
  overcommit.Set("0");
  EXPECT_EQ(harness::OvercommitFromEnv(), 0.0);
  overcommit.Set("1.5");
  EXPECT_EQ(harness::OvercommitFromEnv(), 1.5);
  damon_min.Set("4");
  damon_max.Set("16");
  damon_agg.Set("2");
  const damon::MonitorConfig config = harness::DamonConfigFromEnv();
  EXPECT_EQ(config.min_regions, 4u);
  EXPECT_EQ(config.max_regions, 16u);
  EXPECT_EQ(config.aggregation_ticks, 2u);
}

}  // namespace
