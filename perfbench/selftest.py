#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks the self-time arithmetic and the paired comparison rule on
synthetic inputs, the tracer's wrapping and guard, and runs one round of a
tiny shape of every workload, untraced and traced, checking that every
metric ``BENCHMARK.json`` names comes out with its unit.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import compare  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

import dpp_limits as dl  # noqa: E402
import numpy as np  # noqa: E402


def span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        tree = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 5.0, 6.0, 0), span("d", 2.0, 3.0, 1)]
        self.assertEqual(spans.self_times(tree), [6.0, 2.0, 1.0, 1.0])

    def test_self_times_sum_to_root_duration(self):
        tree = [span("a", 0.0, 7.5), span("b", 0.5, 2.0, 0), span("c", 2.0, 7.0, 0), span("d", 3.0, 6.0, 2)]
        self.assertAlmostEqual(sum(spans.self_times(tree)), 7.5)

    def test_overlapping_and_overhanging_children_count_once(self):
        self.assertEqual(spans.covered_length([(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)], 0.0, 10.0), 5.0)
        self.assertEqual(spans.covered_length([(-2.0, 1.0)], 0.0, 10.0), 1.0)
        self.assertEqual(spans.covered_length([], 0.0, 10.0), 0.0)

    def test_childless_span_is_all_self(self):
        self.assertEqual(spans.self_times([span("a", 2.0, 3.5)]), [1.5])


class PairsRule(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_consistent_gain_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(stats.judge(self.parent, change, "lower", 0.1)["verdict"], "improved")

    def test_higher_is_better_direction(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.judge(self.parent, change, "higher", 0.1)["verdict"], "improved")
        self.assertEqual(stats.judge(self.parent, change, "lower", 0.1)["verdict"], "worse")

    def test_eight_wins_of_ten_is_not_improved(self):
        change = [v - 0.5 for v in self.parent]
        change[0] = change[1] = 20.0
        verdict = stats.judge(self.parent, change, "lower", 0.5)["verdict"]
        self.assertNotEqual(verdict, "improved")

    def test_gap_within_parent_spread_is_not_improved(self):
        change = [v - 0.01 for v in self.parent]
        j = stats.judge(self.parent, change, "lower", 0.1)
        self.assertEqual(j["wins"], 10)
        self.assertEqual(j["verdict"], "unchanged")

    def test_slowdown_beyond_bound_is_worse(self):
        change = [v * 1.15 for v in self.parent]
        self.assertEqual(stats.judge(self.parent, change, "lower", 0.1)["verdict"], "worse")
        self.assertEqual(stats.judge(self.parent, change, "lower", 0.2)["verdict"], "unchanged")

    def test_fewer_than_ten_pairs_is_unresolved(self):
        change = [v * 0.5 for v in self.parent[:9]]
        self.assertEqual(stats.judge(self.parent[:9], change, "lower", 0.1)["verdict"], "unresolved")

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 10.0, 9.5, 10.5, 12.5]
        change = list(reversed(noisy))
        self.assertEqual(stats.judge(noisy, change, "lower", 0.1)["verdict"], "unresolved")

    def test_ratio_has_its_base(self):
        j = stats.judge(self.parent, [v * 0.8 for v in self.parent], "lower", 0.1)
        self.assertAlmostEqual(j["ratio"], j["change"][1] / j["parent"][1])


class CompareOrder(unittest.TestCase):
    """``compare.py`` resolves nothing from pairs that did not alternate."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def records(self, starts, values):
        return {"w": [
            {"started_unix": s, "failed": 0,
             "metrics": {m["name"]: {"value": v} for m in self.spec["end_to_end"]}}
            for s, v in zip(starts, values)
        ]}

    def verdicts(self, parent, change):
        lines = compare.compare_lines(self.spec, parent, change)[1:]
        return [re.search(r" \d+/\d+ +(.*)$", line).group(1) for line in lines]

    def test_identical_values_in_sequence_are_never_worse(self):
        values = [float(v) for v in range(10, 20)]
        for parent_first in (True, False):
            starts = [float(i) for i in range(10)]
            later = [s + 100.0 for s in starts]
            p_starts, c_starts = (starts, later) if parent_first else (later, starts)
            verdicts = self.verdicts(self.records(p_starts, values), self.records(c_starts, values))
            self.assertEqual(len(verdicts), len(self.spec["end_to_end"]))
            self.assertTrue(all(v == "unresolved (pairs not alternated)" for v in verdicts), verdicts)

    def test_host_slowdown_between_sequential_sets_is_not_worse(self):
        starts = [float(i) for i in range(10)]
        parent = self.records(starts, [10.0] * 10)
        change = self.records([s + 100.0 for s in starts], [20.0] * 10)
        self.assertNotIn("worse", " ".join(self.verdicts(parent, change)))

    def test_alternated_pairs_are_judged(self):
        p_starts = [2.0 * i + (i % 2) for i in range(10)]
        c_starts = [2.0 * i + 1 - (i % 2) for i in range(10)]
        parent = self.records(p_starts, [10.0 + 0.01 * i for i in range(10)])
        change = self.records(c_starts, [10.0 + 0.01 * i for i in range(10)])
        self.assertTrue(all(v == "unchanged" for v in self.verdicts(parent, change)))


class ReferenceUnits(unittest.TestCase):
    def test_section_unit_is_the_mean_of_the_references_around_it(self):
        gauge = hostspeed.Gauge(iter([0.2, 0.4, 0.1]).__next__)
        self.assertEqual(gauge.mark(), 0.2)
        self.assertAlmostEqual(gauge.mark(), 0.3)
        self.assertAlmostEqual(gauge.mark(), 0.25)
        self.assertEqual(gauge.times, [0.2, 0.4, 0.1])

    def test_reference_takes_time(self):
        self.assertGreater(hostspeed.reference(), 0.0)


class Percentiles(unittest.TestCase):
    def test_tail_level_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.tail_level(200), 95.0)
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(19), None)
        self.assertEqual(stats.percentile(list(range(1, 201)), 95.0), 190)


class Tracing(unittest.TestCase):
    def test_wrappers_record_spans_and_are_removed(self):
        tracer = spans.Tracer()
        original = dl.sample_uniform_cube
        with tracer.installed():
            self.assertIsNot(dl.sample_uniform_cube, original)
            dpp = dl.validate_kernel(dl.ope_kernel(dl.sample_uniform_cube(30, 2, dl.SeededRng(1)), 4))
            dl.sample_dpp(dpp, dl.SeededRng(2))
        self.assertIs(dl.sample_uniform_cube, original)
        layers = tracer.layer_metrics()
        for name in ("point_cloud.sample", "kernel_builders.ope", "kernel_builders.orthonormalize",
                     "dpp_engine.validate", "linalg.eigh", "dpp_engine.sample"):
            self.assertEqual(layers[f"{name}.calls"], 1, name)
        self.assertEqual(layers["dpp_engine.sample.points"], 4)
        eigh = next(s for s in tracer.spans if s.name == "linalg.eigh")
        self.assertEqual(tracer.spans[eigh.parent].name, "dpp_engine.validate")

    def test_prefix_waste_counts_rebuilt_columns_on_one_cloud(self):
        tracer = spans.Tracer()
        tracer.request = spans.RUNNER_REQUEST
        cloud = dl.sample_uniform_cube(40, 2, dl.SeededRng(3))
        with tracer.installed():
            for m in (2, 4, 8):
                dl.ope_kernel(cloud, m)
            dl.ope_kernel(dl.sample_uniform_cube(40, 2, dl.SeededRng(4)), 8)
        self.assertAlmostEqual(tracer.layer_metrics()["kernel_builders.ope.prefix_waste"], 6 / 22)

    def test_span_cost_is_positive(self):
        self.assertGreater(spans.span_cost(calls=2000, reps=3), 0.0)

    def test_missing_name_fails_loudly(self):
        saved = dict(spans.TARGETS)
        spans.TARGETS["dpp_engine.sample"] = ("dpp_limits.dpp_engine", ("sample_dpp", "sample_renamed"))
        try:
            with self.assertRaises(spans.TraceGuardError):
                with spans.Tracer().installed():
                    pass
        finally:
            spans.TARGETS.clear()
            spans.TARGETS.update(saved)
        self.assertFalse(hasattr(dl.sample_dpp, "__wrapped__"))


class SpectrumCheck(unittest.TestCase):
    def test_wrong_spectrum_fails(self):
        s = workloads.setup("checks-usvt", 7, run.OUT / "work" / "selftest", shapes=workloads.SMOKE)
        dpp = dl.validate_kernel(workloads.build_kernel(s, 0))
        self.assertTrue(workloads.check_spectrum(s, dpp)[0])
        lam = 8.0 * np.array((0.9, 0.6, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0))
        other = dl.validate_kernel(dl.random_valid_kernel(8, dl.SeededRng(1), eigenvalues=lam))
        self.assertFalse(workloads.check_spectrum(s, other)[0])

    def test_projection_of_wrong_rank_fails(self):
        s = workloads.setup("sphere-coreset", 7, run.OUT / "work" / "selftest", shapes=workloads.SMOKE)
        dpp = dl.validate_kernel(workloads.build_kernel(s, 0))
        self.assertTrue(workloads.check_spectrum(s, dpp)[0])
        wrong = dataclasses.replace(s, wl=dataclasses.replace(s.wl, probe_m=s.wl.probe_m - 1))
        self.assertFalse(workloads.check_spectrum(wrong, dpp)[0])


class Smoke(unittest.TestCase):
    """One round of each workload's tiny shape, untraced and traced."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_smoke(self, name: str, trace: bool) -> dict:
        workdir = run.OUT / "work" / f"smoke-{name}"
        s = workloads.setup(name, 7, workdir, shapes=workloads.SMOKE)
        r = run.Run(workloads, s, trace=trace)
        r.round(0)
        return run.report(self.spec, r, [0.1], trace)

    def test_every_metric_appears_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = self.run_smoke(name, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in wanted},
                    )
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
