// Targeted error-path regressions: every structural operation of every
// engine, failed at *every* attributed I/O depth, must leave storage
// fsck-clean — no leaked extents, no broken invariants. These are the
// unit-level counterparts of the campaign matrix: one operation per run
// (instead of a whole trace), so a regression pinpoints the op.
//
// The operations are chosen to hit the allocation-heavy paths the
// seed code leaked on: Starburst doubling growth and tail rebuilds,
// ESM leaf splits, EOS segment shuffles/merges, and shadowed replaces.
//
// The interleaved tests drive four objects on one buffer pool, one
// trace op at a time in round-robin order, so every engine's pages of
// different objects share frames, evictions and the allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/fsck.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "iomodel/fault_model.h"
#include "workload/trace.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

using OpFn = std::function<Status(LargeObjectManager*, ObjectId)>;

struct NamedOp {
  const char* name;
  OpFn run;
};

std::vector<NamedOp> StructuralOps() {
  return {
      // Growth: segment doubling (Starburst), leaf splits (ESM/EOS).
      {"append", [](LargeObjectManager* m, ObjectId id) {
         return m->Append(id, Pattern(50, 40000));
       }},
      // Interior insert: tail rebuild / node splits / shuffles.
      {"insert", [](LargeObjectManager* m, ObjectId id) {
         return m->Insert(id, 9000, Pattern(51, 12000));
       }},
      // Delete: merges, shuffles, tail rebuilds.
      {"delete", [](LargeObjectManager* m, ObjectId id) {
         return m->Delete(id, 5000, 15000);
       }},
      // Replace: shadowing of whole segments.
      {"replace", [](LargeObjectManager* m, ObjectId id) {
         return m->Replace(id, 3000, Pattern(52, 10000));
       }},
      // Trim: frees growth slack (Starburst/EOS).
      {"trim", [](LargeObjectManager* m, ObjectId id) {
         return m->Trim(id);
       }},
      // Destroy: frees everything; a fault must not strand half of it.
      {"destroy", [](LargeObjectManager* m, ObjectId id) {
         return m->Destroy(id);
       }},
  };
}

/// Four seeded update-mix traces (paper 4.4 shape), one per object.
std::vector<Trace> InterleavedTraces() {
  std::vector<Trace> traces;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    MixSpec mix;
    mix.total_ops = 50;
    mix.mean_op_bytes = 8000;
    mix.seed = seed;
    traces.push_back(GenerateUpdateMixTrace(64 * 1024, 32 * 1024, mix));
  }
  return traces;
}

/// Applies trace k to object ids[k], one op at a time in round-robin
/// order over the objects. Stops at the first failed op.
Status ApplyRoundRobin(StorageSystem* sys, LargeObjectManager* mgr,
                       const std::vector<ObjectId>& ids,
                       const std::vector<Trace>& traces) {
  size_t longest = 0;
  for (const Trace& t : traces) longest = std::max(longest, t.ops.size());
  for (size_t i = 0; i < longest; ++i) {
    for (size_t k = 0; k < traces.size(); ++k) {
      if (i >= traces[k].ops.size()) continue;
      Trace one;
      one.ops.push_back(traces[k].ops[i]);
      LOB_RETURN_IF_ERROR(ApplyTrace(sys, mgr, ids[k], one).status());
    }
  }
  return Status::OK();
}

class FaultRecoveryTest : public ::testing::TestWithParam<int> {
 protected:
  /// Label prefix of the engine's OpScopes ("esm.insert", ...).
  const char* EngineName() const {
    static constexpr const char* kNames[] = {"esm", "starburst", "eos"};
    return kNames[GetParam()];
  }

  std::unique_ptr<LargeObjectManager> MakeManager(StorageSystem* sys) {
    switch (GetParam()) {
      case 0:
        return CreateEsmManager(sys, 4);
      case 1:
        return CreateStarburstManager(sys);
      default:
        return CreateEosManager(sys, 4);
    }
  }

  /// Builds the standard pre-state: ~44K in mixed appends (several
  /// segments in every engine).
  ObjectId Build(LargeObjectManager* mgr) {
    auto id = mgr->Create();
    LOB_CHECK_OK(id.status());
    LOB_CHECK_OK(mgr->Append(*id, Pattern(40, 12000)));
    LOB_CHECK_OK(mgr->Append(*id, Pattern(41, 32000)));
    return *id;
  }
};

TEST_P(FaultRecoveryTest, EveryOpIsFsckCleanAtEveryFaultDepth) {
  for (const NamedOp& op : StructuralOps()) {
    // Fault-free run: count the attributed I/O calls the op issues.
    uint64_t op_calls = 0;
    {
      StorageSystem sys;
      auto mgr = MakeManager(&sys);
      const ObjectId id = Build(mgr.get());
      const uint64_t before = sys.disk()->foreground_calls();
      ASSERT_TRUE(op.run(mgr.get(), id).ok()) << op.name;
      op_calls = sys.disk()->foreground_calls() - before;
    }
    // Some ops are free for some engines (e.g. Trim is a no-op on ESM);
    // nothing to inject into then.
    if (op_calls == 0) continue;

    // Fail the op at every depth; storage must stay consistent.
    for (uint64_t k = 0; k < op_calls; ++k) {
      StorageSystem sys;
      auto mgr = MakeManager(&sys);
      const ObjectId id = Build(mgr.get());

      // Countdowns are relative to arming: k foreground calls into the
      // op succeed, the (k+1)-th fails.
      FaultSpec fault;
      fault.kind = FaultKind::kOneShot;
      fault.after_calls = k;
      fault.message = "recovery fault";
      sys.disk()->ArmFault(fault);
      const Status s = op.run(mgr.get(), id);
      sys.disk()->ClearFaults();

      // A destroyed object no longer exists; everything else must still
      // pass its own fsck. Either way the allocator sweep must find no
      // strand.
      std::vector<std::pair<ObjectId, LargeObjectManager*>> objects;
      const bool destroyed = std::string(op.name) == "destroy" && s.ok();
      if (!destroyed) objects.emplace_back(id, mgr.get());
      auto report = FsckObjects(&sys, objects);
      ASSERT_TRUE(report.ok())
          << op.name << " k=" << k << ": " << report.status().ToString();
      EXPECT_FALSE(report->HasLeaks())
          << op.name << " k=" << k << " (op status: " << s.ToString()
          << ")\n"
          << report->ToString();
      EXPECT_FALSE(report->HasCorruption())
          << op.name << " k=" << k << " (op status: " << s.ToString()
          << ")\n"
          << report->ToString();
    }
  }
}

TEST_P(FaultRecoveryTest, FailedCreateLeaksNothing) {
  // Create allocates the root/descriptor page; failing any of its I/O
  // calls must release it.
  uint64_t create_calls = 0;
  {
    StorageSystem sys;
    auto mgr = MakeManager(&sys);
    const uint64_t before = sys.disk()->foreground_calls();
    ASSERT_TRUE(mgr->Create().ok());
    create_calls = sys.disk()->foreground_calls() - before;
  }
  for (uint64_t k = 0; k <= create_calls; ++k) {
    StorageSystem sys;
    auto mgr = MakeManager(&sys);
    FaultSpec fault;
    fault.after_calls = k;
    sys.disk()->ArmFault(fault);
    auto id = mgr->Create();
    sys.disk()->ClearFaults();

    std::vector<std::pair<ObjectId, LargeObjectManager*>> objects;
    if (id.ok()) objects.emplace_back(*id, mgr.get());
    auto report = FsckObjects(&sys, objects);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean())
        << "k=" << k << " (create: " << id.status().ToString() << ")\n"
        << report->ToString();
  }
}

TEST_P(FaultRecoveryTest, InterleavedObjectsStayFsckCleanAndExact) {
  StorageSystem sys;
  auto mgr = MakeManager(&sys);
  const std::vector<Trace> traces = InterleavedTraces();
  std::vector<ObjectId> ids;
  for (size_t k = 0; k < traces.size(); ++k) {
    auto id = mgr->Create();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  const Status s = ApplyRoundRobin(&sys, mgr.get(), ids, traces);
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<std::pair<ObjectId, LargeObjectManager*>> objects;
  for (size_t k = 0; k < ids.size(); ++k) {
    const Status v = VerifyTrace(mgr.get(), ids[k], traces[k]);
    EXPECT_TRUE(v.ok()) << "object " << k << ": " << v.ToString();
    objects.emplace_back(ids[k], mgr.get());
  }
  auto report = FsckObjects(&sys, objects);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_TRUE(sys.obs()->ConservationHolds(sys.stats()));
}

// A fault countdown ticks on issue order, and interleaving the objects
// does not change that order between runs: an armed fault fails the same
// call of the same op every time, and both runs pay the same I/O.
TEST_P(FaultRecoveryTest, SeededFaultFiresAtSameCallAcrossInterleavedObjects) {
  struct Run {
    Status status;
    uint64_t faults_fired = 0;
    uint64_t foreground_calls = 0;
    IoStats io;
  };
  const std::vector<Trace> traces = InterleavedTraces();
  auto once = [&] {
    StorageSystem sys;
    auto mgr = MakeManager(&sys);
    std::vector<ObjectId> ids;
    for (size_t k = 0; k < traces.size(); ++k) {
      auto id = mgr->Create();
      LOB_CHECK_OK(id.status());
      ids.push_back(*id);
    }
    FaultSpec fault;
    fault.kind = FaultKind::kOneShot;
    fault.after_calls = 5;
    // Inserts only, so the fault skips the build-phase appends and fires
    // inside the mix.
    fault.op_prefix = std::string(EngineName()) + ".insert";
    // Reads only: a failed read always propagates out of the insert,
    // while some directory *writes* are deliberately absorbed by the
    // allocator's deferred-sync recovery path.
    fault.match_writes = false;
    sys.disk()->ArmFault(fault);
    Run run;
    run.status = ApplyRoundRobin(&sys, mgr.get(), ids, traces);
    run.faults_fired = sys.disk()->faults_fired();
    run.foreground_calls = sys.disk()->foreground_calls();
    run.io = sys.stats();
    return run;
  };
  const Run a = once();
  const Run b = once();
  EXPECT_NE(a.status.message().find("(insert) failed: injected I/O failure"),
            std::string::npos)
      << "fault did not fail an insert of the mix: " << a.status.ToString();
  EXPECT_EQ(a.status.ToString(), b.status.ToString());
  EXPECT_EQ(a.faults_fired, 1u);
  EXPECT_EQ(b.faults_fired, 1u);
  EXPECT_EQ(a.foreground_calls, b.foreground_calls);
  EXPECT_EQ(a.io.read_calls, b.io.read_calls);
  EXPECT_EQ(a.io.write_calls, b.io.write_calls);
  EXPECT_EQ(a.io.pages_read, b.io.pages_read);
  EXPECT_EQ(a.io.pages_written, b.io.pages_written);
  EXPECT_EQ(a.io.ms, b.io.ms);
}

std::string EngineLabel(const ::testing::TestParamInfo<int>& info) {
  return info.param == 0 ? "Esm" : info.param == 1 ? "Starburst" : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultRecoveryTest,
                         ::testing::Values(0, 1, 2), EngineLabel);

}  // namespace
}  // namespace lob
