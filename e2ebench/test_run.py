"""Tests of run.py: the metric lists agree with BENCHMARK.json, every name is
well formed, the output parses, a reduced-size smoke of every workload
passes its correctness checks, and a tree without the program's sources is
refused without a result.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_py(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "e2ebench", "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=root)


class MetricListTest(unittest.TestCase):
    def test_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertIn("setup_s", run.END_TO_END)

    def test_names_are_well_formed(self):
        for name in [*run.END_TO_END, *run.PER_LAYER, *run.INFORMATIONAL,
                     *run.WORKLOADS]:
            self.assertRegex(name, run.NAME_RE)
            self.assertLessEqual(len(name), 64)


class SmokeTest(unittest.TestCase):
    def check_output(self, out, names):
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name])
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_every_workload_reduced(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    out = run_py(run.ROOT, "--workload", workload,
                                 "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--scale", "0.02")
                    result = self.check_output(out, names)
                    if trace:
                        m = result["metrics"]
                        net = m["net.bytes_per_op"]["value"]
                        if workload == "served_r":
                            self.assertGreater(net, 0)
                        else:
                            self.assertEqual(net, 0)

    def test_refused_without_program_sources(self):
        parent = os.path.join(run.ROOT, ".bench_build")
        os.makedirs(parent, exist_ok=True)
        root = tempfile.mkdtemp(dir=parent)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
            shutil.copytree(run.HERE, os.path.join(root, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_py(root, "--workload", "ingest_w", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(root)


if __name__ == "__main__":
    unittest.main()
