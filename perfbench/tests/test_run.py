"""Tests of the benchmark runner: the BENCHMARK.json contract, the result
line, the reference check, the traced run's artifacts and the span tree.

    python3 -m unittest discover -s perfbench/tests -v

The runs use the small-scale smoke variant of each workload.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench" / "tests"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=600):
    """Runs run.py; returns (exit code, result line as dict or None, stdout)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout


class ContractTest(unittest.TestCase):
    def test_benchmark_json_has_the_contract_shape(self):
        doc = contract()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in doc["workloads"]}, set(run.WORKLOADS))
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertTrue((BENCH / "specs" / f"{w['name']}.spec").is_file())
        e2e = {m["name"]: m for m in doc["end_to_end"]}
        self.assertEqual(set(e2e), {"setup_s", "sessions_per_s", "run_s", "peak_rss_mib"})
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_metric_names_and_units_use_only_the_allowed_characters(self):
        doc = contract()
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        names += [w["name"] for w in doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))


class SmokeRunTest(unittest.TestCase):
    def test_each_workload_prints_every_end_to_end_metric(self):
        e2e = [m["name"] for m in contract()["end_to_end"]]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = bench("--workload", workload, "--smoke",
                                        "--seconds", "1", "--trace", "0")
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), e2e)
                for name, metric in result["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertGreater(metric["value"], 0)

    def test_traced_cold_run_reports_every_layer_and_bypasses_warm_layers(self):
        per_layer = [m["name"] for m in contract()["per_layer"]]
        code, result, _ = bench("--workload", "cold_stream", "--smoke",
                                "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 2)  # one untraced, one traced
        values = {n: m["value"] for n, m in result["metrics"].items()}
        self.assertEqual(list(values), per_layer)
        for name in per_layer:
            if name.startswith("client.") or name in (
                    "resolver.shared_cache_hit_ratio", "report.bytes"):
                self.assertEqual(values[name], 0, name)
            elif name.startswith("report."):
                # Nothing is declared, so each writer step is skipped: its
                # time is that of the skipped branch.
                self.assertLess(values[name], 1e-4, name)
        self.assertEqual(values["mismatch_ratio"], 0)
        for name in ("netsim.one_way_ns", "dns.wire_size_ns", "obs.series_merge_s",
                     "host.calib_ns", "netsim.events"):
            self.assertGreater(values[name], 0, name)

        runs = ROOT / ".bench_build" / "perfbench" / "runs" / "cold_stream.smoke-s42"
        events = json.loads((runs / "trace.json").read_text())["traceEvents"]
        spans = [(e["name"], e["ts"], e["ts"] + e["dur"], e["args"]["parent"])
                 for e in events]
        self.assertEqual(spans[0][3], -1)
        for name, start, end, parent in spans[1:]:
            _, p_start, p_end, _ = spans[parent]
            self.assertGreaterEqual(start + 1e-3, p_start, name)
            self.assertLessEqual(end, p_end + 1e-3, name)
        table = [line.split("\t") for line in
                 (runs / "layers.tsv").read_text().splitlines()[1:]]
        self_ms = sum(float(row[1]) for row in table[:-1])
        self.assertEqual(table[-1][0], "total")
        self.assertAlmostEqual(self_ms, float(table[-1][1]), delta=1e-3 * len(table))
        self.assertAlmostEqual(float(table[-1][1]), (spans[0][2] - spans[0][1]) / 1e3,
                               delta=1e-3)

    def test_traced_warm_run_resumes_pooled_connections(self):
        code, result, _ = bench("--workload", "warm_faults", "--smoke",
                                "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        values = {n: m["value"] for n, m in result["metrics"].items()}
        self.assertGreater(values["client.pool_resumptions"], 0)
        self.assertGreater(values["client.pool_reuse_ratio"], 0)
        self.assertGreater(values["resolver.shared_cache_hit_ratio"], 0)
        self.assertGreater(values["transport.retries"], 0)

    def test_repetitions_of_an_unpinned_seed_agree(self):
        code, result, _ = bench("--workload", "cold_stream", "--smoke",
                                "--seed", "7", "--seconds", "3", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)


class ReferenceTest(unittest.TestCase):
    def test_a_corrupted_reference_fails_every_repetition(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        table = json.loads((BENCH / "reference.json").read_text())
        table["cold_stream.smoke"]["42"]["events"] += 1
        corrupted = SCRATCH / "corrupted_reference.json"
        corrupted.write_text(json.dumps(table))
        printed = io.StringIO()
        with mock.patch.object(run, "REFERENCE", corrupted), \
                contextlib.redirect_stdout(printed):
            code = run.main(["--workload", "cold_stream", "--smoke",
                             "--seconds", "1", "--trace", "1"])
        stdout = printed.getvalue()
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["mismatch_ratio"]["value"], 1)
        self.assertIn("mismatch_ratio 1 ratio", stdout)

    def test_without_the_simulator_sources_the_run_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", "cold_stream", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare, timeout=180)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        shutil.rmtree(bare, ignore_errors=True)


class TraceUnitTest(unittest.TestCase):
    def test_span_recorder_unit_tests_pass(self):
        cmake = run.BUILD_DIR / "cmake"
        self.assertTrue(run.build())
        subprocess.run(["cmake", "--build", str(cmake), "--target", "perfbench_trace_test"],
                       check=True, capture_output=True)
        proc = subprocess.run([str(cmake / "perfbench_trace_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
