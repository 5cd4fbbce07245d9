"""Tests of the benchmark itself (not of lexbs).

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import querygen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class SameSeedSameRequests(unittest.TestCase):
    def first(self, seed, n=600):
        stream = querygen.stream(seed)
        return [next(stream) for _ in range(n)]

    def test_same_seed_same_requests(self):
        a, b = self.first(11), self.first(11)
        self.assertEqual(a, b)
        self.assertEqual(
            querygen.argv_digest(r.argv for r in a),
            querygen.argv_digest(r.argv for r in b),
        )

    def test_other_seed_other_requests(self):
        self.assertNotEqual(
            [r.argv for r in self.first(11)], [r.argv for r in self.first(12)]
        )

    def test_block_mix(self):
        kinds = [r.kind for r in querygen.block(5, 3)]
        self.assertEqual(len(kinds), querygen.BLOCK)
        self.assertEqual(kinds.count("light"), querygen.LIGHT)
        self.assertEqual(kinds.count("deep"), querygen.DEEP)
        self.assertEqual(kinds.count("extreme"), querygen.EXTREME)
        for r in querygen.block(5, 3):
            top = max(sum(e) for e in r.gens)
            if r.kind == "deep":
                self.assertTrue(querygen.DEEP_DEGREES[0] <= top < querygen.DEEP_DEGREES[1])
            elif r.kind == "extreme":
                self.assertGreaterEqual(top, querygen.EXTREME_DEGREES[0])
            else:
                self.assertLessEqual(max(sum(e) for e in r.gens), querygen.LIGHT_MAX_DEG)


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def fake_child(self, args, seed, deadline):
        if "queries" in args:
            count = run.QUERY_COUNT
            return {
                "attempted": count, "failed": 1, "incorrect": 0,
                "failures": [{"index": 3, "argv": ["betti", "z^500"], "problem": "raised"}],
                "busy_s": 1.0, "wall_s": 1.2, "parent_cpu_s": 1.1,
                "worker_cpu_s": 0.0, "argv_digest": "x",
                **self.items(count, 0.01),
                "layers": self.layers, "maxrss_kb": 300_000,
            }
        workload = "sweep" if "--jobs" in args else "campaign"
        rows = gate.expected_rows(workload)
        ideals = int(rows.splitlines()[0].split("\t")[1])
        return {
            "code": 0, "stdout": rows, "wall_s": 5.0,
            **self.items(ideals + 2, 0.005),
            "parent_cpu_s": 4.9, "worker_cpu_s": 0.0, "layers": self.layers,
            "maxrss_kb": 50_000,
        }

    @staticmethod
    def items(count, seconds):
        """count items of `seconds` each, on a host at the reference speed."""
        return {
            "starts_s": [i * seconds for i in range(count)],
            "times_s": [seconds] * count,
            "probe_at": [0.0, count * seconds],
            "probe_took": [run.probe.REF_S] * 2,
        }

    layers = {
        "self_times": {"ideal.contains": (3, 0.5, 0.4)},
        "caches": {f"{m}.{f}": (5, 2) for m, f in tracing.CACHES},
        "spans": 3,
    }

    def setUp(self):
        self.saved = run._child, run.import_time, run.OUT
        run._child = self.fake_child
        run.import_time = lambda seed, deadline: 0.05
        self.tmp = tempfile.TemporaryDirectory()
        run.OUT = Path(self.tmp.name)

    def tearDown(self):
        run._child, run.import_time, run.OUT = self.saved
        self.tmp.cleanup()

    def printed_names(self, workload, trace):
        args = type("Args", (), dict(workload=workload, seed=1, seconds=0.0, trace=trace))
        deadline = run.Deadline(10)
        step = run.traced if trace else run.end_to_end
        metrics, attempted, failed, failures, incorrect, record = step(
            workload, 1, 0.0, deadline
        )
        units = run.per_layer_units() if trace else run.END_TO_END
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report(
                args, metrics, units, attempted, failed, failures, incorrect, record
            )
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return {k: v["unit"] for k, v in result["metrics"].items()}

    def test_every_printed_metric_is_declared(self):
        spec = benchmark_json()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        for workload in run.WORKLOADS:
            self.assertEqual(self.printed_names(workload, 0), e2e)
            self.assertEqual(self.printed_names(workload, 1), layers)

    def test_items_scaled_by_nearby_probes(self):
        ref = run.probe.REF_S
        # the host runs at half speed for the first second, full after
        at = [0.1 * k for k in range(20)]
        took = [2 * ref if t < 1.0 else ref for t in at]
        one = {"starts_s": [0.25, 1.55], "times_s": [0.010, 0.004],
               "probe_at": at, "probe_took": took}
        for got, want in zip(run.scaled(one), [0.005, 0.004]):
            self.assertAlmostEqual(got, want)
        # a probe that ran inside an item is taken out of its time
        inside = dict(one, times_s=[0.010 + 2 * ref, 0.004], probe_at=sorted(at + [0.255]),
                      probe_took=took[:3] + [2 * ref] + took[3:])
        for got, want in zip(run.scaled(inside), [0.005, 0.004]):
            self.assertAlmostEqual(got, want)
        other = dict(one, times_s=[0.006, 0.003], probe_took=[ref] * 20)
        third = dict(one, times_s=[0.012, 0.005], probe_took=[ref] * 20)
        for got, want in zip(run.item_times([one, other, third]), [0.006, 0.004]):
            self.assertAlmostEqual(got, want)

    def test_query_passes_and_failures(self):
        metrics, attempted, failed, failures, incorrect, record = run.end_to_end(
            "queries", 1, 0.0, run.Deadline(10)
        )
        self.assertEqual(record["passes"], run.MIN_PASSES)
        self.assertEqual((attempted, failed), (run.MIN_PASSES * run.QUERY_COUNT, run.MIN_PASSES))
        self.assertEqual(len(failures), 1)
        self.assertEqual(failures[0]["argv"], ["betti", "z^500"])
        self.assertAlmostEqual(metrics["latency_p50_ms"], 10.0)

    def test_command_and_paths(self):
        spec = benchmark_json()
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # main [0, 10] -> a [1, 5] -> b [2, 3]
        #              -> b [6, 9]
        s = tracing.Spans()
        main = s.add("main", -1, 0.0, 10.0)
        a = s.add("a", main, 1.0, 5.0)
        s.add("b", a, 2.0, 3.0)
        s.add("b", main, 6.0, 9.0)
        t = tracing.self_times(s)
        self.assertEqual(t["main"], (1, 10.0, 3.0))
        self.assertEqual(t["a"], (1, 4.0, 3.0))
        self.assertEqual(t["b"], (2, 4.0, 4.0))

    def test_dump_and_load(self):
        s = tracing.Spans()
        s.add("x", -1, 0.5, 1.5)
        s.add("y", 0, 0.75, 1.0)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin")
            s.dump(path)
            back = tracing.Spans.load(path)
        self.assertEqual(tracing.self_times(back), tracing.self_times(s))


class OutputGate(unittest.TestCase):
    def test_known_good_rows_pass(self):
        for workload in ("campaign", "sweep"):
            rows = gate.expected_rows(workload)
            self.assertEqual(gate.campaign_mismatches(rows, rows), [])

    def test_corrupted_row_is_rejected(self):
        rows = gate.expected_rows("campaign")
        bad = rows.replace("thm1\t813\t0\t63\t0", "thm1\t812\t1\t63\t0")
        self.assertNotEqual(bad, rows)
        self.assertEqual(len(gate.campaign_mismatches(bad, rows)), 1)
        self.assertTrue(gate.campaign_mismatches(rows + "witness\tthm1\t(x)\t?\n", rows))
        self.assertTrue(gate.campaign_mismatches("", rows))

    def test_query_invariants(self):
        from lexbs.cli import main

        light = [r for r in querygen.block(3, 0) if r.kind == "light"][:60]
        for req in light:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(req.argv))
            text = out.getvalue()
            self.assertIsNone(gate.query_problem(req, code, text), req.argv)
            if req.command in ("betti", "decompose", "explain"):
                # one Betti number or coefficient changed must be caught
                broken = text.replace(" 1 ", " 2 ", 1).replace("1\t", "2\t", 1)
                if broken != text:
                    self.assertIsNotNone(gate.query_problem(req, code, broken), req.argv)

    def test_chain_order(self):
        self.assertTrue(gate.is_chain([(2, 3, 4), (2, 3, 5), (2, 4), (3,)]))
        self.assertFalse(gate.is_chain([(2, 4), (2, 3, 5)]))
        self.assertFalse(gate.is_chain([(2, 4), (2, 4)]))


class TracedChild(unittest.TestCase):
    def test_traced_queries_write_spans(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin")
            out = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), "--seed", "2",
                 "--count", "20", "--trace", path, "queries"],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            spans = tracing.Spans.load(path)
        self.assertEqual(result["attempted"], 20)
        self.assertEqual(len(spans), result["layers"]["spans"])
        self.assertEqual(result["layers"]["self_times"]["cli.main"][0], 20)


if __name__ == "__main__":
    unittest.main()
