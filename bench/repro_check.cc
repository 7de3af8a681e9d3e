// repro_check: programmatic verification of the paper's claims.
//
// Runs every experiment at reduced scale and asserts the qualitative
// results the paper reports - orderings, flatness, convergence and a few
// quantitative anchors. Prints PASS/FAIL per claim with the measured
// evidence; the exit code is the number of failed claims, so this binary
// doubles as an end-to-end regression test of the whole reproduction
// (registered with ctest).
//
// Scale is configurable: --object-mb / --ops (defaults 4 MB / 1500 ops
// keep the run under a minute); the paper-scale figures live in the
// dedicated fig*/table* binaries.

#include <cmath>
#include <vector>

#include "bench/bench_common.h"
#include "starburst/starburst_manager.h"

using namespace lob;
using namespace lob::bench;

namespace {

int g_failures = 0;

void Claim(const char* id, const char* text, bool ok, const std::string& ev) {
  std::printf("[%s] %-8s %s\n         evidence: %s\n", ok ? "PASS" : "FAIL",
              id, text, ev.c_str());
  if (!ok) g_failures++;
}

std::string Fmt(const char* fmt, double a, double b, double c = 0,
                double d = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

double BuildSeconds(const EngineSpec& spec, uint64_t bytes, uint64_t append) {
  StorageSystem sys;
  auto mgr = spec.make(&sys);
  auto id = mgr->Create();
  LOB_CHECK_OK(id.status());
  auto r = BuildObject(&sys, mgr.get(), *id, bytes, append);
  LOB_CHECK_OK(r.status());
  return r->Seconds();
}

double ScanSeconds(const EngineSpec& spec, uint64_t bytes, uint64_t chunk) {
  StorageSystem sys;
  auto mgr = spec.make(&sys);
  auto id = mgr->Create();
  LOB_CHECK_OK(id.status());
  LOB_CHECK_OK(BuildObject(&sys, mgr.get(), *id, bytes, chunk).status());
  auto r = SequentialScan(&sys, mgr.get(), *id, chunk);
  LOB_CHECK_OK(r.status());
  return r->Seconds();
}

struct MixResult {
  double util;
  double read_ms;
  double insert_ms;
  double delete_ms;
  double first_read_ms;
};

MixResult Mix(const EngineSpec& spec, uint64_t bytes, uint64_t mean_op,
              uint32_t ops) {
  MixRun run = RunMixFor(spec, bytes, mean_op, ops, std::max(1u, ops / 5));
  MixResult out{};
  LOB_CHECK(!run.points.empty());
  const MixPoint& last = run.points.back();
  out.util = last.utilization;
  out.read_ms = last.avg_read_ms;
  out.insert_ms = last.avg_insert_ms;
  out.delete_ms = last.avg_delete_ms;
  out.first_read_ms = run.points.front().avg_read_ms;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  if (!FlagPresent(argc, argv, "object-mb")) {
    args.object_bytes = 4ull * 1024 * 1024;  // reduced default for CI
  }
  if (!FlagPresent(argc, argv, "ops")) args.ops = 1500;
  PrintBanner("repro_check: programmatic verification of the paper's claims",
              "all sections; reduced scale");
  std::printf("object: %.1f MB, mix ops: %u\n\n",
              static_cast<double>(args.object_bytes) / 1048576.0, args.ops);

  auto esm = [](uint32_t leaf) -> EngineSpec {
    return {"ESM leaf=" + std::to_string(leaf),
            [leaf](StorageSystem* s) { return CreateEsmManager(s, leaf); }};
  };
  auto eos = [](uint32_t t) -> EngineSpec {
    return {"EOS T=" + std::to_string(t),
            [t](StorageSystem* s) { return CreateEosManager(s, t); }};
  };
  const EngineSpec sb = StarburstSpec();
  const uint64_t MB = args.object_bytes;

  // ---- Figure 5: builds -------------------------------------------------
  {
    const double b3 = BuildSeconds(esm(1), MB, 3 * 1024);
    const double b4 = BuildSeconds(esm(1), MB, 4 * 1024);
    const double b5 = BuildSeconds(esm(1), MB, 5 * 1024);
    Claim("F5.a", "ESM leaf=1 build shows the 3K/4K/5K sawtooth",
          b4 < b3 && b4 < b5,
          Fmt("3K=%.1fs 4K=%.1fs 5K=%.1fs", b3, b4, b5));

    const double l1 = BuildSeconds(esm(1), MB, 16 * 1024);
    const double l4 = BuildSeconds(esm(4), MB, 16 * 1024);
    const double l16 = BuildSeconds(esm(16), MB, 16 * 1024);
    const double l64 = BuildSeconds(esm(64), MB, 16 * 1024);
    Claim("F5.b", "exact-match leaf (4 pages) wins for 16K appends",
          l4 < l1 && l4 < l16 && l4 < l64,
          Fmt("leaf1=%.1f leaf4=%.1f leaf16=%.1f leaf64=%.1f", l1, l4, l16,
              l64));

    const double s = BuildSeconds(sb, MB, 16 * 1024);
    const double e = BuildSeconds(eos(4), MB, 16 * 1024);
    Claim("F5.c", "Starburst and EOS build identically (within 2%)",
          std::fabs(s - e) <= 0.02 * s, Fmt("sb=%.2fs eos=%.2fs", s, e));
    Claim("F5.d", "Starburst/EOS build <= best ESM", s <= l4 * 1.02,
          Fmt("sb=%.2fs best_esm=%.2fs", s, l4));
  }

  // ---- Figure 6: scans --------------------------------------------------
  {
    const double f1 = ScanSeconds(esm(1), MB, 8 * 1024);
    const double f2 = ScanSeconds(esm(1), MB, 64 * 1024);
    const double f3 = ScanSeconds(esm(1), MB, 256 * 1024);
    Claim("F6.a", "ESM leaf=1 scan cost is flat in the scan size",
          std::fabs(f1 - f3) < 0.05 * f1 && std::fabs(f2 - f3) < 0.05 * f2,
          Fmt("8K=%.1f 64K=%.1f 256K=%.1f s", f1, f2, f3));
    const double sb512 = ScanSeconds(sb, MB, 512 * 1024);
    const double floor_s =
        static_cast<double>(MB) / 1024.0 / 1000.0;  // 1 KB/ms
    Claim("F6.b", "Starburst large scans near the transfer bound (<15% over)",
          sb512 < 1.15 * floor_s, Fmt("scan=%.2fs bound=%.2fs", sb512,
                                      floor_s));
    Claim("F6.c", "segment layouts beat block-at-a-time scans",
          sb512 < f3 / 3, Fmt("sb=%.2fs esm1=%.2fs", sb512, f3));
  }

  // ---- Figures 7/8: utilization ----------------------------------------
  {
    const MixResult e1 = Mix(esm(1), MB, 100000, args.ops);
    const MixResult e64 = Mix(esm(64), MB, 100000, args.ops);
    // (At the paper's full scale the gap is ~19 pp; the reduced run has
    // fewer ops for the 64-page case to degrade, so require >5 pp.)
    Claim("F7.a", "100K ops: ESM 1-page leaves pack far better than 64-page",
          e1.util > e64.util + 0.05,
          Fmt("leaf1=%.1f%% leaf64=%.1f%%", e1.util * 100, e64.util * 100));

    const MixResult t1 = Mix(eos(1), MB, 10000, args.ops);
    const MixResult t4 = Mix(eos(4), MB, 10000, args.ops);
    const MixResult t16 = Mix(eos(16), MB, 10000, args.ops);
    const MixResult t64 = Mix(eos(64), MB, 10000, args.ops);
    Claim("F8.a", "EOS utilization rises with the threshold",
          t1.util < t4.util && t4.util < t16.util && t16.util < t64.util,
          Fmt("T1=%.1f T4=%.1f T16=%.1f T64=%.1f %%", t1.util * 100,
              t4.util * 100, t16.util * 100, t64.util * 100));
    Claim("F8.b", "EOS T=64 utilization ~100% (>=98%)", t64.util >= 0.98,
          Fmt("T64=%.1f%%", t64.util * 100, 0));
    const MixResult esm1_small = Mix(esm(1), MB, 10000, args.ops);
    Claim("F8.c", "EOS T=1 utilization comparable to ESM 1-page (+/-10pp)",
          std::fabs(t1.util - esm1_small.util) < 0.10,
          Fmt("eosT1=%.1f%% esm1=%.1f%%", t1.util * 100,
              esm1_small.util * 100));

    // ---- Figures 9/10: reads -------------------------------------------
    Claim("F9.a", "10K reads: ESM leaf=1 costs ~2x leaf=4 or more",
          esm1_small.read_ms > 1.5 * Mix(esm(4), MB, 10000, args.ops).read_ms,
          Fmt("leaf1=%.0fms", esm1_small.read_ms, 0));
    Claim("F10.a", "EOS read cost initially independent of T (first mark)",
          std::fabs(t1.first_read_ms - t64.first_read_ms) <
              0.25 * t64.first_read_ms,
          Fmt("T1=%.0f T64=%.0f ms", t1.first_read_ms, t64.first_read_ms));
    Claim("F10.b", "EOS read cost falls as T grows (final mark)",
          t1.read_ms > t16.read_ms && t16.read_ms >= t64.read_ms * 0.9,
          Fmt("T1=%.0f T4=%.0f T16=%.0f T64=%.0f ms", t1.read_ms, t4.read_ms,
              t16.read_ms, t64.read_ms));

    // ---- Figures 11/12: inserts ----------------------------------------
    Claim("F12.a", "EOS insert: T=1 and T=4 comparable, T=64 clearly worse",
          t64.insert_ms > 1.5 * t4.insert_ms &&
              std::fabs(t1.insert_ms - t4.insert_ms) <
                  0.6 * std::max(t1.insert_ms, t4.insert_ms),
          Fmt("T1=%.0f T4=%.0f T64=%.0f ms", t1.insert_ms, t4.insert_ms,
              t64.insert_ms));
    Claim("R1", "delete cost tracks insert cost ordering (EOS)",
          (t64.delete_ms > t4.delete_ms) == (t64.insert_ms > t4.insert_ms),
          Fmt("del T4=%.0f T64=%.0f ms", t4.delete_ms, t64.delete_ms));
  }

  // ---- Tables 2/3: Starburst -------------------------------------------
  {
    StorageSystem sys;
    auto mgr = CreateStarburstManager(&sys);
    auto id = mgr->Create();
    LOB_CHECK_OK(id.status());
    LOB_CHECK_OK(
        BuildObject(&sys, mgr.get(), *id, MB, 100 * 1024).status());
    Rng rng(1);
    std::string buf;
    double read100 = 0;
    for (int i = 0; i < 200; ++i) {
      const uint64_t off = rng.Uniform(0, MB - 101);
      const IoStats before = sys.stats();
      LOB_CHECK_OK(mgr->Read(*id, off, 100, &buf));
      read100 += IoStats::Delta(before, sys.stats()).ms;
    }
    read100 /= 200;
    Claim("T2.a", "Starburst 100B read ~37 ms (+/-10%)",
          std::fabs(read100 - 37.0) < 3.7, Fmt("read=%.1fms", read100, 0));

    double ins_small = 0, ins_large = 0, del_small = 0;
    for (int i = 0; i < 5; ++i) {
      const uint64_t off = rng.Uniform(0, MB - 1);
      IoStats before = sys.stats();
      LOB_CHECK_OK(mgr->Insert(*id, off, std::string(100, 'x')));
      ins_small += IoStats::Delta(before, sys.stats()).ms;
      before = sys.stats();
      LOB_CHECK_OK(mgr->Delete(*id, off, 100));
      del_small += IoStats::Delta(before, sys.stats()).ms;
      before = sys.stats();
      LOB_CHECK_OK(mgr->Insert(*id, off, std::string(100000, 'x')));
      ins_large += IoStats::Delta(before, sys.stats()).ms;
      LOB_CHECK_OK(mgr->Delete(*id, off, 100000));
    }
    Claim("T3.a", "Starburst insert cost flat in operation size (+/-25%)",
          std::fabs(ins_small - ins_large) <
              0.25 * std::max(ins_small, ins_large),
          Fmt("100B=%.0f 100K=%.0f ms", ins_small / 5, ins_large / 5));
    Claim("T3.b", "Starburst delete costs equal inserts (+/-15%)",
          std::fabs(del_small - ins_small) < 0.15 * ins_small,
          Fmt("ins=%.0f del=%.0f ms", ins_small / 5, del_small / 5));
  }
  {
    const MixResult t4 = Mix(eos(4), MB, 10000, std::min(args.ops, 300u));
    MixRun sbrun = RunMixFor(sb, MB, 10000, 60, 30);
    Claim("S1", "Starburst updates cost orders of magnitude over EOS",
          sbrun.points.back().avg_insert_ms > 5 * t4.insert_ms,
          Fmt("sb=%.0f eos=%.0f ms", sbrun.points.back().avg_insert_ms,
              t4.insert_ms));
  }

  // ---- 3.3 / [Care86] ablations -----------------------------------------
  {
    auto replace_cost = [&](uint32_t leaf, bool shadowing) {
      StorageConfig cfg;
      cfg.shadowing = shadowing;
      StorageSystem sys(cfg);
      auto mgr = CreateEsmManager(&sys, leaf);
      auto id = mgr->Create();
      LOB_CHECK_OK(id.status());
      LOB_CHECK_OK(BuildObject(&sys, mgr.get(), *id, 2 * 1024 * 1024,
                               128 * 1024)
                       .status());
      Rng rng(leaf);
      std::string patch(100, 'x');
      double total = 0;
      for (int i = 0; i < 30; ++i) {
        const IoStats before = sys.stats();
        LOB_CHECK_OK(mgr->Replace(
            *id, rng.Uniform(0, 2 * 1024 * 1024 - 101), patch));
        total += IoStats::Delta(before, sys.stats()).ms;
      }
      return total / 30;
    };
    const double on2 = replace_cost(2, true);
    const double on64 = replace_cost(64, true);
    const double off64 = replace_cost(64, false);
    Claim("A1", "whole-segment shadowing: 64-block >> 2-block update",
          on64 > 3 * on2, Fmt("2pg=%.0f 64pg=%.0f ms", on2, on64));
    Claim("A2", "without shadowing large-segment updates become cheap",
          off64 < on64 / 3, Fmt("on=%.0f off=%.0f ms", on64, off64));
  }

  std::printf("\n%d claim(s) failed\n", g_failures);
  return g_failures;
}
