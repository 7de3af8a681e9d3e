// Failure injection: every layer must surface simulated disk errors as
// Status values - never crash, hang, or return success with wrong bytes.
// (Without a write-ahead log, consistency after a *partial* failed update
// is not promised - the paper's systems relied on shadowing plus a
// transaction layer for that - but error propagation must be airtight.)

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "disk_test_util.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

class FailureInjectionTest : public ::testing::TestWithParam<int> {
 protected:
  FailureInjectionTest() {
    switch (GetParam()) {
      case 0:
        mgr_ = CreateEsmManager(&sys_, 4);
        break;
      case 1:
        mgr_ = CreateStarburstManager(&sys_);
        break;
      default:
        mgr_ = CreateEosManager(&sys_, 4);
        break;
    }
    auto id = mgr_->Create();
    LOB_CHECK_OK(id.status());
    id_ = *id;
    LOB_CHECK_OK(mgr_->Append(id_, Pattern(1, 300000)));
    LOB_CHECK_OK(sys_.FlushAll());
  }

  StorageSystem sys_;
  std::unique_ptr<LargeObjectManager> mgr_;
  ObjectId id_ = 0;
};

TEST_P(FailureInjectionTest, ReadFailurePropagates) {
  sys_.disk()->ArmFault(StickyFaultAfter(0));
  std::string out(1000, '#');  // a reused string: the failure empties it
  Status s = mgr_->Read(id_, 100000, 50000, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), FaultSpec().message);
  EXPECT_TRUE(out.empty()) << out.size() << " bytes left in *out";
  // Clearing the fault restores full function.
  sys_.disk()->ClearFaults();
  ASSERT_TRUE(mgr_->Read(id_, 100000, 50000, &out).ok());
  EXPECT_EQ(out, Pattern(1, 300000).substr(100000, 50000));
}

TEST_P(FailureInjectionTest, EveryOperationSurfacesMidOpFailures) {
  // Trip the fault at several depths into each operation; all must return
  // a Status (no crash) and the system must keep working once cleared.
  for (uint64_t depth : {0u, 1u, 2u, 5u}) {
    for (int op = 0; op < 4; ++op) {
      sys_.disk()->ArmFault(StickyFaultAfter(depth));
      std::string buf = Pattern(7, 20000);
      Status s;
      switch (op) {
        case 0:
          s = mgr_->Append(id_, buf);
          break;
        case 1:
          s = mgr_->Insert(id_, 1234, buf);
          break;
        case 2:
          s = mgr_->Delete(id_, 1234, 1000);
          break;
        default: {
          std::string out;
          s = mgr_->Read(id_, 0, 50000, &out);
          break;
        }
      }
      sys_.disk()->ClearFaults();
      // Depending on caching the operation may complete without I/O; what
      // is forbidden is a crash or a hung state. If it failed, the error
      // must be the injected one.
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kInternal)
            << "op " << op << " depth " << depth << ": " << s.ToString();
      }
    }
  }
  // After all the chaos the object is still readable end to end.
  sys_.disk()->ClearFaults();
  auto size = mgr_->Size(id_);
  ASSERT_TRUE(size.ok());
  std::string out;
  EXPECT_TRUE(mgr_->Read(id_, 0, *size, &out).ok());
}

TEST_P(FailureInjectionTest, FailedAppendDoesNotLoseExistingBytes) {
  // Appends only touch the object's tail; a failed append must leave the
  // prefix intact.
  const std::string before = Pattern(1, 300000);
  sys_.disk()->ArmFault(StickyFaultAfter(1));
  (void)mgr_->Append(id_, Pattern(9, 100000));
  sys_.disk()->ClearFaults();
  std::string out;
  ASSERT_TRUE(mgr_->Read(id_, 0, before.size(), &out).ok());
  EXPECT_EQ(out, before);
}

std::string EngineName4(const ::testing::TestParamInfo<int>& param_info) {
  return param_info.param == 0   ? "Esm"
         : param_info.param == 1 ? "Starburst"
                                 : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, FailureInjectionTest,
                         ::testing::Values(0, 1, 2), EngineName4);

}  // namespace
}  // namespace lob
