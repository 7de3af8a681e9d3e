// Tests for the leaf-lock layer (common/lock_order.h), the latched
// warn-log sink and the storage layer's thread confinement: a thread that
// holds a lob::Mutex and locks another aborts, as does an unlock of a
// mutex it does not hold (death tests); CondVar keeps the thread's held
// mutex across waits; LOB_LOG_WARN lines stay untorn under concurrency;
// and a BufferPool reached from a second thread aborts (death test).
//
// The death tests put this binary under the `death` ctest label: gtest
// death tests fork, which ThreadSanitizer does not support, so TSan runs
// use `ctest -LE death`.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/lock_order.h"
#include "common/logging.h"
#include "exec/thread_pool.h"

namespace lob {
namespace {

// ---------------------------------------------------------- leaf locking

TEST(LockOrderTest, ReacquireAfterReleaseIsAllowed) {
  Mutex mu;
  { MutexLock lock(&mu); }
  { MutexLock lock(&mu); }  // released, so this is not nesting
}

// ------------------------------------------------------------ cond vars

TEST(CondVarTest, HandshakeKeepsMutexHeldAcrossWait) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
  }  // the unlock checks the mutex is still this thread's held one
  // Released: this thread holds nothing, so another leaf lock is fine.
  Mutex other;
  MutexLock lock(&other);
  producer.join();
}

// ----------------------------------------------------------- death tests

using LockOrderDeathTest = ::testing::Test;

TEST(LockOrderDeathTest, NestedAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer;
  Mutex inner;
  EXPECT_DEATH(
      {
        MutexLock a(&outer);
        MutexLock b(&inner);  // a second lob::Mutex: not a leaf
      },
      "lock nesting: this thread already holds a lob::Mutex; every "
      "lob::Mutex is a leaf lock \\(common/lock_order.h\\)");
}

TEST(LockOrderDeathTest, UnlockOfUnheldMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.Unlock(),
               "lock-order: unlock of a mutex this thread does not hold");
}

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
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    done.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      done.push_back(pool.Submit([t] {
        for (int i = 0; i < kPerThread; ++i) {
          LOB_LOG_WARN("thread %d message %d payload abcdefghijklmnop", t,
                       i);
        }
      }));
    }
    for (auto& f : done) f.get();
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

// -------------------------------------- ThreadPool shutdown contract

// The illegal sides of the shutdown contract must fail loudly instead of
// silently dropping work (tasks vanishing into a destructed queue was
// the original bug): a Submit from a non-worker thread after Shutdown
// aborts, and a Shutdown from inside a task body (which would self-join)
// aborts. The legal drain-submit side is covered in exec_test.cc.

TEST(ThreadPoolDeathTest, ForeignSubmitAfterShutdownAborts) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Shutdown();
        pool.Submit([] {});  // would never run
      },
      "Submit after Shutdown");
}

TEST(ThreadPoolDeathTest, ShutdownFromWorkerThreadAborts) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([&pool] { pool.Shutdown(); }).get();
      },
      "self-join");
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
