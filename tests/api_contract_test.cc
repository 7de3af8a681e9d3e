// The LargeObjectManager contract at its edges, on each engine: a byte
// range whose end passes 2^64 is OutOfRange and changes nothing (the check
// must not compute `offset + n`, which wraps), and Read leaves exactly the
// `n` bytes in *out on success and nothing on failure, whatever the string
// held before.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "check/fsck.h"
#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"

namespace lob {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

class ApiContractTest : public ::testing::TestWithParam<Engine> {
 protected:
  ApiContractTest() : model_(Pattern(1, 300000)) {
    switch (GetParam()) {
      case Engine::kEsm:
        mgr_ = CreateEsmManager(&sys_, 4);
        break;
      case Engine::kStarburst:
        mgr_ = CreateStarburstManager(&sys_);
        break;
      case Engine::kEos:
        mgr_ = CreateEosManager(&sys_, 4);
        break;
    }
    auto id = mgr_->Create();
    LOB_CHECK_OK(id.status());
    id_ = *id;
    LOB_CHECK_OK(mgr_->Append(id_, model_));
    LOB_CHECK_OK(sys_.FlushAll());
  }

  /// The object still holds exactly the model's bytes, and fsck is clean.
  void ExpectUnchanged() {
    auto size = mgr_->Size(id_);
    ASSERT_TRUE(size.ok());
    ASSERT_EQ(*size, model_.size());
    std::string got;
    ASSERT_TRUE(mgr_->Read(id_, 0, model_.size(), &got).ok());
    ASSERT_TRUE(got == model_) << "content differs from the model";
    Status valid = mgr_->Validate(id_);
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    auto report = FsckObjects(&sys_, {{id_, mgr_.get()}});
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->ToString();
  }

  StorageSystem sys_;
  std::unique_ptr<LargeObjectManager> mgr_;
  ObjectId id_ = 0;
  const std::string model_;
};

TEST_P(ApiContractTest, RangeEndPastTwoTo64IsOutOfRangeAndChangesNothing) {
  const std::string data = Pattern(2, 100);
  std::string out;
  const struct {
    const char* what;
    std::function<Status()> op;
  } cases[] = {
      {"Delete 2^64-1 bytes at 1", [&] { return mgr_->Delete(id_, 1, kMax); }},
      {"Delete 100 bytes at 2^64-11",
       [&] { return mgr_->Delete(id_, kMax - 10, 100); }},
      {"Replace 100 bytes at 2^64-11",
       [&] { return mgr_->Replace(id_, kMax - 10, data); }},
      {"Read 100 bytes at 2^64-11",
       [&] { return mgr_->Read(id_, kMax - 10, 100, &out); }},
      {"Read 2 bytes at size-1",
       [&] { return mgr_->Read(id_, model_.size() - 1, 2, &out); }},
      {"Read 2^64-1 bytes at 1",
       [&] { return mgr_->Read(id_, 1, kMax, &out); }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(c.op().code(), StatusCode::kOutOfRange);
    ASSERT_NO_FATAL_FAILURE(ExpectUnchanged());
  }
  // The range that ends exactly at the object's end is still in range.
  ASSERT_TRUE(mgr_->Read(id_, model_.size() - 1, 1, &out).ok());
  EXPECT_EQ(out, model_.substr(model_.size() - 1));
}

TEST_P(ApiContractTest, ReadLeavesExactlyTheBytesInAReusedString) {
  // Longer than the result and full of stale bytes: cut to the result.
  std::string out(model_.size() + 5000, '#');
  ASSERT_TRUE(mgr_->Read(id_, 1000, 3000, &out).ok());
  EXPECT_EQ(out, model_.substr(1000, 3000));
  // Shorter than the result: grows to it, and no stale byte survives.
  out.assign(10, '#');
  ASSERT_TRUE(mgr_->Read(id_, 4000, 70000, &out).ok());
  EXPECT_EQ(out, model_.substr(4000, 70000));
  // The same length again, every byte stale.
  out.assign(70000, '#');
  ASSERT_TRUE(mgr_->Read(id_, 150001, 70000, &out).ok());
  EXPECT_EQ(out, model_.substr(150001, 70000));
  // The whole object into a string that held part of it.
  ASSERT_TRUE(mgr_->Read(id_, 0, model_.size(), &out).ok());
  EXPECT_EQ(out, model_);
  // Zero bytes empty the string.
  ASSERT_TRUE(mgr_->Read(id_, 7, 0, &out).ok());
  EXPECT_TRUE(out.empty());
  // So does a failed read (FailureInjectionTest checks an I/O failure).
  out.assign(1000, '#');
  EXPECT_EQ(mgr_->Read(id_, model_.size(), 1, &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(out.empty()) << out.size() << " bytes left in *out";
}

std::string EngineParamName(const ::testing::TestParamInfo<Engine>& info) {
  return EngineName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Engines, ApiContractTest,
                         ::testing::Values(Engine::kEsm, Engine::kStarburst,
                                           Engine::kEos),
                         EngineParamName);

}  // namespace
}  // namespace lob
