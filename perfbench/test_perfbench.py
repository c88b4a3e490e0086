#!/usr/bin/env python3
"""Tests of the benchmark itself, on toy-size inputs that finish in seconds.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the format its runner expects, that
layers.json documents every per-layer metric, that every workload's toy mode
prints a well-formed, correct result with exactly the declared metrics (and a
Chrome trace when traced), and that the runner fails cleanly when the
library sources are absent.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, check=False)


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual((ROOT / "BENCHMARK.json").stat().st_size, 64 * 1024)
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(1 <= len(SPEC["command"]) <= 32)
        for path in SPEC["paths"]:
            self.assertTrue((ROOT / path).is_dir(), path)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))

    def test_layers_document_every_metric(self):
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(per_layer, set(LAYERS["per_layer"]))
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(workloads, set(LAYERS["workloads"]))
        for name, entry in LAYERS["per_layer"].items():
            self.assertTrue(set(entry["workloads"]) <= workloads, name)


class ToyRunTest(unittest.TestCase):
    def check(self, workload, trace):
        done = run_bench("--workload", workload, "--seed", "3", "--seconds",
                         "2", "--trace", str(trace), "--toy")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        env = json.loads(lines[0])["env"]
        for key in ("cores", "pool_threads", "compiler", "build_type",
                    "git_commit", "seed", "service_mix_rate_rps"):
            self.assertIn(key, env)
        self.assertEqual(env["build_type"], "Release")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for m in declared:
                self.assertNotEqual(result["metrics"][m["name"]]["value"], 0,
                                    m["name"])
        else:
            trace_file = ROOT / ".bench_build" / "traces" / f"{workload}-seed3.json"
            events = json.loads(trace_file.read_text())["traceEvents"]
            self.assertTrue(events)
        return result

    def test_pn100k_serial(self):
        self.check("pn100k_serial", 0)
        traced = self.check("pn100k_serial", 1)["metrics"]
        self.assertGreater(traced["partition.fm_s"]["value"], 0)
        self.assertGreater(traced["partition.phase.refine_s"]["value"], 0)

    def test_pn100k_parallel(self):
        self.check("pn100k_parallel", 0)
        traced = self.check("pn100k_parallel", 1)["metrics"]
        self.assertGreater(traced["partition.lp_s"]["value"], 0)

    def test_service_mix(self):
        self.check("service_mix", 0)
        traced = self.check("service_mix", 1)["metrics"]
        self.assertGreater(traced["engine.path_share.exact_hit"]["value"], 0)
        self.assertGreater(traced["engine.submit_ms_p50"]["value"], 0)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", SPEC["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=tmp, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
