#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

  python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks lobbench's own rules:
the percentile guard, the oracle, that exact metrics repeat for a seed and
do not change under the traced build, that the span file is well formed,
that BENCHMARK.json and run.py agree, and that run.py refuses to run
without the library's sources. Takes about a minute once built.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

# Short rounds that still leave 1000+ latency samples of each class.
SHORT_OPS = {"doc_edit": 2600, "media_stream": 5500, "catalog_churn": 2600}


def lobbench(exe, *args):
    return subprocess.run([str(exe), *map(str, args)], capture_output=True,
                          text=True, timeout=300, check=False)


def short_run(exe, workload, seed, *extra):
    proc = lobbench(exe, "--workload", workload, "--seed", seed, "--seconds", 0,
                  "--ops", SHORT_OPS[workload], *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{exe.name} {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build()
        cls.plain = cls.build / "lobbench"
        cls.traced = cls.build / "lobbench_traced"
        cls.scratch = cls.build / "test"
        cls.scratch.mkdir(exist_ok=True)

    def test_unit_rules(self):
        # GuardedPercentile on 999 vs 1000 samples, and the oracle against
        # a plain string model.
        proc = lobbench(self.plain, "--self-test")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("self-test ok", proc.stdout)

    def test_percentile_guard_fails_the_run(self):
        proc = lobbench(self.plain, "--workload", "doc_edit", "--seed", 1,
                      "--seconds", 0, "--ops", 500)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertIn("too few samples for a p99", proc.stderr)

    def test_exact_metrics_repeat_and_survive_tracing(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = short_run(self.plain, workload, 7)
                again = short_run(self.plain, workload, 7)
                traced = short_run(self.traced, workload, 7)
                other = short_run(self.plain, workload, 8)
                self.assertEqual(first["exact"], again["exact"])
                self.assertEqual(first["exact"], traced["exact"])
                self.assertNotEqual(first["exact"], other["exact"])
                self.assertEqual(first["failed"], 0)

    def test_spans_nest_within_their_parents(self):
        path = self.scratch / "doc_edit.tsv"
        result = short_run(self.traced, "doc_edit", 3, "--spans", path)
        self.assertEqual(result["layers"]["core.calls_per_op"], 0)
        lines = path.read_text().splitlines()
        self.assertEqual(lines[0].split("\t"),
                         ["span", "parent", "op", "site", "start_ns", "end_ns"])
        spans = [line.split("\t") for line in lines[1:]]
        self.assertGreater(len(spans), 1000)
        sites = set()
        for index, parent, op, site, start, end in spans:
            sites.add(site)
            self.assertLessEqual(int(start), int(end))
            if parent == "-1":
                self.assertEqual(site, "op")
                continue
            p = spans[int(parent)]
            self.assertLess(int(p[0]), int(index))
            self.assertEqual(p[2], op)
            self.assertLessEqual(int(p[4]), int(start))
            self.assertLessEqual(int(end), int(p[5]))
        for site in ["BufferPool::FixPage", "PositionalTree::FindLeaf",
                     "DatabaseArea::Allocate", "SimDisk::ReadRun",
                     "ObsRegistry::RecordOpEnd", "EsmManager", "EosManager"]:
            self.assertIn(site, sites)

    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_refuses_without_library_sources(self):
        bare = self.scratch / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "doc_edit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
