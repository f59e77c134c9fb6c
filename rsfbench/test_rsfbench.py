"""Fast tests of rsfbench at tiny sizes.

    python3 -m unittest discover -s rsfbench -p 'test_*.py'

Builds the benchmark like run.py does, then runs each workload with
--size tiny (4x4 racks, 300 us horizons) for the shortest measurement.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


class RsfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        if cls.binary is None:
            raise RuntimeError("rsfbench did not build")
        cls.spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, workload, seed, trace):
        trace_out = bench.build_dir() / f"test-trace-{workload}.json"
        r = subprocess.run([str(self.binary), "--workload", workload, "--seed", str(seed),
                            "--seconds", "0.001", "--trace", str(trace), "--size", "tiny",
                            "--trace-out", str(trace_out)],
                           capture_output=True, text=True, timeout=120)
        self.assertEqual(r.returncode, 0, r.stderr)
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], r.stdout)
        digest = next(l for l in lines if l.startswith("digest ")).split()[1]
        return result, digest, trace_out

    @staticmethod
    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    def test_same_seed_gives_same_digest_and_counts(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                a, digest_a, _ = self.run_bench(workload, 3, 1)
                b, digest_b, _ = self.run_bench(workload, 3, 1)
                self.assertEqual(digest_a, digest_b)
                self.assertEqual(self.counts(a), self.counts(b))

    def test_different_seeds_give_different_digests(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                _, digest_a, _ = self.run_bench(workload, 3, 0)
                _, digest_b, _ = self.run_bench(workload, 4, 0)
                self.assertNotEqual(digest_a, digest_b)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in bench.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _, _ = self.run_bench(workload, 1, trace)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(bench.WORKLOADS))

    def test_traced_run_writes_chrome_trace(self):
        _, _, trace_out = self.run_bench("fleet_skew", 1, 1)
        trace = json.loads(trace_out.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        self.assertTrue({"setup", "inject", "step", "finish", "fabric.hop"} <= names)
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in trace["traceEvents"]))
        self.assertEqual(trace["metadata"]["workload"], "fleet_skew")

    def test_unknown_workload_is_refused(self):
        r = subprocess.run([str(self.binary), "--workload", "nope", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
