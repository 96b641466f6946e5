"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that metric names are well formed and match BENCHMARK.json, that a
wrong reference shows up as failed operations, that the seed changes the
extremal inputs but not the class counts of cli and scan, and that a traced
run accounts for its whole wall time and leaves the package unwrapped.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import starfree.enumeration  # noqa: E402
import starfree.graphs  # noqa: E402

import harness  # noqa: E402
import make_reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, GraphClass  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
REFERENCE = make_reference.build(TINY)


def run(workload, trace=0):
    return harness.measure(workload, 0.0, trace)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_declared(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        end_to_end = [name for name, _ in harness.END_TO_END]
        per_layer = [name for name, _ in tracer.METRICS]
        for name in end_to_end + per_layer:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]), sorted(end_to_end))
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(per_layer))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))

    def test_every_metric_is_reported(self):
        metrics, out, _ = run(workloads.Extremal(1, TINY))
        self.assertEqual(list(metrics), [name for name, _ in harness.END_TO_END])
        self.assertEqual(out.failed, 0, out.problems)
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))


class WrongReference(unittest.TestCase):
    def test_correct_reference_passes(self):
        for cls in (workloads.Cli, workloads.Scan):
            _, out, _ = run(cls(1, TINY, REFERENCE))
            self.assertEqual(out.failed, 0, out.problems)

    def test_wrong_reference_raises_error_rate(self):
        wrong = copy.deepcopy(REFERENCE)
        for entry in wrong.values():
            entry["count_free"] += 1
        for cls in (workloads.Cli, workloads.Scan):
            _, out, report = run(cls(1, TINY, wrong))
            self.assertGreater(out.failed, 0)
            self.assertGreater(report["error_rate"], 0)


class Seeds(unittest.TestCase):
    def test_seed_changes_extremal_inputs(self):
        self.assertNotEqual(workloads.extremal_plan(1, TINY), workloads.extremal_plan(2, TINY))
        self.assertEqual(workloads.extremal_plan(3, TINY), workloads.extremal_plan(3, TINY))

    def test_seed_keeps_class_counts(self):
        def class_counts(workload):
            workload.setup()
            out = workloads.Outcome()
            results = workload.unit(out)
            if isinstance(workload, workloads.Cli):
                return [json.loads(text).get("count_enumerated", json.loads(text).get("checked"))
                        for _, _, _, text in results]
            return [(c, n, rec.count_enumerated) for c, n, _, rec, _, _ in results["scans"]]

        for cls in (workloads.Cli, workloads.Scan):
            counts = {seed: class_counts(cls(seed, TINY, REFERENCE)) for seed in (1, 2, 3)}
            self.assertEqual(counts[1], counts[2])
            self.assertEqual(counts[1], counts[3])
        self.assertEqual(counts[1][0], (GraphClass.ALL, TINY.scan_n_all,
                                        workloads.OEIS[GraphClass.ALL][TINY.scan_n_all]))


class Tracing(unittest.TestCase):
    def test_traced_run_accounts_for_its_wall_time(self):
        originals = (starfree.enumeration.canonical_form, starfree.graphs.canonical_form,
                     starfree.enumeration.EnumerationCache.level)
        metrics, out, report = run(workloads.Cli(1, TINY, REFERENCE), trace=1)
        self.assertEqual(out.failed, 0, out.problems)  # includes the accounting check
        self.assertEqual(list(metrics), [name for name, _ in tracer.METRICS])
        values = {name: m["value"] for name, m in metrics.items()}
        self.assertGreater(values["graphs.canonical_form.calls"], 0)
        self.assertGreater(values["cli.main.self_s"], 0)
        layers = sum(report["layer_self_s"].values())
        self.assertAlmostEqual(layers, values["trace.wall_s"], delta=1e-6 * layers)
        self.assertEqual(originals, (starfree.enumeration.canonical_form,
                                     starfree.graphs.canonical_form,
                                     starfree.enumeration.EnumerationCache.level))


if __name__ == "__main__":
    unittest.main()
