// Tests for the two thread-safety properties the tree relies on without a
// lock: LOB_LOG_WARN lines stay untorn under concurrency (one fprintf per
// line), and a BufferPool reached from a second thread aborts (death
// test), so each StorageSystem stays confined to one thread.
//
// The death test puts this binary under the `death` ctest label: gtest
// death tests fork, which ThreadSanitizer does not support, so TSan runs
// use `ctest -LE death`.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "buffer/buffer_pool.h"
#include "common/logging.h"
#include "exec/parallel_runner.h"

namespace lob {
namespace {

// --------------------------------------------------------- warn-log sink

// Redirects fd 2 to a file for the block's lifetime so the test can read
// back what LOB_LOG_WARN wrote.
class StderrCapture {
 public:
  explicit StderrCapture(const std::string& path) {
    std::fflush(stderr);
    saved_fd_ = dup(2);
    int fd = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    dup2(fd, 2);
    close(fd);
  }
  ~StderrCapture() {
    std::fflush(stderr);
    dup2(saved_fd_, 2);
    close(saved_fd_);
  }

 private:
  int saved_fd_;
};

TEST(LogSinkTest, ConcurrentWarnLinesAreUntorn) {
  const std::string path = ::testing::TempDir() + "/lob_warn_capture.txt";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    StderrCapture capture(path);
    ParallelRunner runner(kThreads);
    runner.Map<int>(kThreads, [](size_t job, JobOutput*) {
      const int t = static_cast<int>(job);
      for (int i = 0; i < kPerThread; ++i) {
        LOB_LOG_WARN("thread %d message %d payload abcdefghijklmnop", t, i);
      }
      return t;
    });
  }
  // Every line must be a complete, untorn warn record; counts per thread
  // must add up. Interleaving order across threads is unconstrained.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int counts[kThreads] = {0};
  int total = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++total;
    int t = -1;
    int i = -1;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "[lob:warn] %*[^:]:%*d: thread %d message %d "
                          "payload abcdefghijklmnop",
                          &t, &i),
              2)
        << "torn or malformed line: " << line;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_GE(i, 0);
    EXPECT_LT(i, kPerThread);
    ++counts[t];
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], kPerThread) << "thread " << t << " lost lines";
  }
}

// ------------------------------------------- storage thread confinement

// A StorageSystem holds no lock: its BufferPool binds to the first thread
// that mutates it and aborts when a second thread does (see
// buffer/buffer_pool.h).

TEST(BufferPoolOwnerDeathTest, SecondThreadFixPageAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        StorageConfig cfg;
        SimDisk disk(cfg);
        BufferPool pool(&disk, cfg);
        const AreaId area = disk.CreateArea();
        // The first fix binds the pool to this thread.
        { auto g = pool.FixPage(area, 0, FixMode::kNew); }
        std::thread other([&] {
          auto g = pool.FixPage(area, 1, FixMode::kNew);
          (void)g;
        });
        other.join();
      },
      "BufferPool owner check: thread [0-9]+ called a pool owned by "
      "thread [0-9]+");
}

}  // namespace
}  // namespace lob
