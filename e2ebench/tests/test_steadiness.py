#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at toy size.

    python3 -m unittest discover -s e2ebench/tests     (from the checkout root)

For each workload it runs the untraced and the traced benchmark twice with
the same seed (--size tiny) and asserts that
  * every run verified its answers and no operation failed (fail_ratio = 0),
  * every end-to-end metric the workload reports and every per-layer metric
    of BENCHMARK.json is present with its unit,
  * ivm.full_recomputes = 0,
  * the deterministic counters of the traced replay (eval work, optimizer
    rule counts, cache hits and misses, IVM work, compactions) repeat
    exactly across the two runs of the seed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 7
SECONDS = "1"

E2E_METRICS = {
    "warm_eval": ("submit",),
    "cold_compile": ("submit",),
    "standing_ingest": ("submit", "load", "poll"),
}
RATE_NAMES = {"submit": "submit_qps", "load": "load_per_s", "poll": "poll_per_s"}

DETERMINISTIC = (
    "eval.rounds", "eval.rule_firings", "eval.tuples_inserted",
    "eval.duplicate_ratio", "eval.index_probes", "eval.rows_matched",
    "eval.pool_skipped_rounds", "core.rules_before", "core.rules_after",
    "service.cache_hit_ratio", "service.cache_lookups",
    "service.cache_evictions", "service.answer_rows_p50",
    "daemon.reply_bytes_p50", "storage.words_scanned", "storage.fallbacks",
    "storage.peak_tuples", "ivm.delta_rounds", "ivm.tuples_rederived",
    "ivm.facts_absorbed", "ivm.full_recomputes", "durability.compactions",
    "durability.fact_bytes",
)


def run(workload, trace):
    with tempfile.TemporaryDirectory() as tmp:
        result_file = os.path.join(tmp, "result.json")
        cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
               "--size", "tiny", "--result-file", result_file]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                                 f"{proc.stderr[-4000:]}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(result_file) as f:
            full = json.load(f)
    return line, full


class SteadinessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, workload):
        for _ in range(2):
            line, full = run(workload, 0)
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            metrics = full["metrics"]
            expected = {"setup_s": "s", "fail_ratio": "ratio",
                        "daemon_cpu_ms_per_op": "ms",
                        "daemon_rss_peak_mb": "MB"}
            for op in E2E_METRICS[workload]:
                expected[RATE_NAMES[op]] = "1/s"
                expected[op + "_p50_ms"] = "ms"
                # A p99 needs at least ten samples beyond it; only SUBMITs
                # are run until they have 1,000.
                if int(full["notes"][op + "_samples"]) >= 1000:
                    expected[op + "_p99_ms"] = "ms"
            self.assertIn("submit_p99_ms", expected)
            for name, unit in expected.items():
                self.assertIn(name, metrics, f"{workload}: {name}")
                self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertEqual(metrics["fail_ratio"]["value"], 0)
            for m in self.spec["end_to_end"]:
                self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])

        counters = []
        for _ in range(2):
            line, full = run(workload, 1)
            self.assertTrue(line["correct"])
            metrics = line["metrics"]
            for m in self.spec["per_layer"]:
                self.assertIn(m["name"], metrics, f"{workload}: {m['name']}")
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertEqual(metrics["ivm.full_recomputes"]["value"], 0)
            counters.append({k: metrics[k]["value"] for k in DETERMINISTIC})
        self.assertEqual(counters[0], counters[1])
        return counters[0]

    def test_warm_eval(self):
        c = self.check_workload("warm_eval")
        self.assertEqual(c["service.cache_hit_ratio"], 1.0)
        self.assertGreater(c["eval.rule_firings"], 0)

    def test_cold_compile(self):
        c = self.check_workload("cold_compile")
        self.assertEqual(c["service.cache_hit_ratio"], 0.0)
        self.assertGreater(c["core.rules_before"], 0)

    def test_standing_ingest(self):
        c = self.check_workload("standing_ingest")
        self.assertGreater(c["ivm.facts_absorbed"], 0)
        self.assertGreater(c["durability.compactions"], 0)


if __name__ == "__main__":
    unittest.main()
