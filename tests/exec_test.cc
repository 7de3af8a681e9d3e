// Tests for the parallel experiment engine: ParallelRunner (deterministic
// result/text ordering, the serial caller-thread path, exception
// propagation after every job has finished, timing capture) and JobOutput.

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_runner.h"
#include "gtest/gtest.h"

namespace lob {
namespace {

TEST(JobOutputTest, PrintfAppendsFormattedText) {
  JobOutput out;
  out.Printf("a=%d ", 1);
  out.Printf("b=%s\n", "two");
  EXPECT_EQ(out.text(), "a=1 b=two\n");
  out.SetModeledMs(12.5);
  EXPECT_DOUBLE_EQ(out.modeled_ms(), 12.5);
}

TEST(ParallelRunnerTest, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(ParallelRunner::DefaultWorkers(), 1u);
}

TEST(ParallelRunnerTest, ResultsAndTextsComeBackInSubmissionOrder) {
  for (unsigned workers : {0u, 1u, 4u}) {
    ParallelRunner runner(workers);
    const size_t n = 24;
    Mapped<size_t> mapped = runner.Map<size_t>(
        n, [](size_t i, JobOutput* out) {
          // Stagger finish times so out-of-order completion is likely.
          std::this_thread::sleep_for(
              std::chrono::microseconds((13 * (i % 7)) % 50));
          out->Printf("job %zu", i);
          out->SetModeledMs(static_cast<double>(i));
          return i * 10;
        });
    ASSERT_EQ(mapped.values.size(), n);
    ASSERT_EQ(mapped.texts.size(), n);
    ASSERT_EQ(mapped.stats.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(mapped.values[i], i * 10) << "workers=" << workers;
      EXPECT_EQ(mapped.texts[i], "job " + std::to_string(i));
      EXPECT_DOUBLE_EQ(mapped.stats[i].modeled_ms,
                       static_cast<double>(i));
      EXPECT_GE(mapped.stats[i].wall_ms, 0.0);
    }
  }
}

TEST(ParallelRunnerTest, SerialWorkersRunEveryJobOnTheCallerInIndexOrder) {
  // 0 and 1 workers are the one serial path: no thread is started, and
  // the jobs run on the calling thread in index order, exactly as the
  // serial loops the runner replaced.
  const std::thread::id caller = std::this_thread::get_id();
  for (unsigned workers : {0u, 1u}) {
    ParallelRunner runner(workers);
    std::vector<size_t> order;  // touched only by the thread running jobs
    Mapped<bool> on_caller = runner.Map<bool>(
        16, [&order, caller](size_t i, JobOutput*) {
          order.push_back(i);
          return std::this_thread::get_id() == caller;
        });
    ASSERT_EQ(order.size(), 16u) << "workers=" << workers;
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(order[i], i) << "workers=" << workers;
      EXPECT_TRUE(on_caller.values[i])
          << "workers=" << workers << " job " << i;
    }
  }
}

TEST(ParallelRunnerTest, LowestIndexExceptionRethrownAfterEveryJobFinished) {
  // Jobs 3 and 9 throw; every job after 3 is slow. Map must let all 16
  // finish (later jobs call `fn`, which dies with Map's caller) and only
  // then rethrow the lowest-index exception.
  ParallelRunner runner(4);
  std::atomic<int> finished{0};
  try {
    runner.Map<int>(16, [&finished](size_t i, JobOutput*) -> int {
      if (i > 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
      if (i == 3 || i == 9) {
        throw std::runtime_error("cell " + std::to_string(i));
      }
      return static_cast<int>(i);
    });
    ADD_FAILURE() << "Map returned although jobs 3 and 9 threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
  EXPECT_EQ(finished.load(), 16);
}

}  // namespace
}  // namespace lob
