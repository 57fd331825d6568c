"""Fast self-tests of the benchmark's own machinery, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.datasets.sql_catalog import figure1_databases  # noqa: E402
from repro.relational.expressions import col  # noqa: E402
from repro.relational.query import Scan, count_query  # noqa: E402
from repro.service.engine import ExplainService  # noqa: E402



class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_above_it(self):
        self.assertIsNone(measure.percentile(range(19), 0.5))
        self.assertEqual(measure.percentile(range(20), 0.5), 9)

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(measure.percentile(range(99), 0.9))
        self.assertEqual(measure.percentile(range(100), 0.9), 89)

    def test_empty_input_reports_nothing(self):
        self.assertIsNone(measure.percentile([], 0.5))


class ExplainRate(unittest.TestCase):
    def test_rate_is_that_of_the_median_unit(self):
        ops = [
            {"unit": unit, "class": "cold", "ok": True, "seconds": seconds}
            for unit, seconds in ((0, 0.5), (0, 0.5), (1, 0.4), (1, 0.6), (2, 5.0), (2, 5.0))
        ]
        self.assertEqual(run.explain_rate(ops), 2.0)

    def test_ingests_and_failures_take_time_but_are_not_counted(self):
        ops = [
            {"unit": 0, "class": "ingest", "ok": True, "seconds": 1.0},
            {"unit": 0, "class": "hit", "ok": True, "seconds": 1.0},
            {"unit": 0, "class": "miss", "ok": False, "seconds": 2.0},
        ]
        self.assertEqual(run.explain_rate(ops), 0.25)


class Classification(unittest.TestCase):
    def test_classes_come_from_response_flags(self):
        self.assertEqual(
            measure.classify({"cached_report": True, "cached_problem": True}), "hit")
        self.assertEqual(
            measure.classify({"cached_report": False, "cached_problem": True}), "resolve")
        self.assertEqual(
            measure.classify({"cached_report": False, "cached_problem": False}), "miss")


class SeededInputs(unittest.TestCase):
    def test_runs_pool_is_a_function_of_the_seed(self):
        first = [i["id"] for i in workloads.runs_pool(3)]
        self.assertEqual(first, [i["id"] for i in workloads.runs_pool(3)])
        self.assertNotEqual(first, [i["id"] for i in workloads.runs_pool(4)])
        self.assertEqual(len(first), len(set(first)))

    def test_mix_client_is_a_function_of_the_seed(self):
        a = workloads.MixClient(9, 1)
        b = workloads.MixClient(9, 1)
        other = workloads.MixClient(10, 1)

        def fingerprints(client):
            return [db.fingerprint() for db in client.mirrors.values()]

        self.assertEqual(fingerprints(a), fingerprints(b))
        self.assertEqual(a.ops, b.ops)
        self.assertNotEqual(a.ops, other.ops)
        # The academic pair is generated per seed; the IMDb universe is fixed.
        self.assertEqual(fingerprints(a)[:2], fingerprints(other)[:2])
        self.assertFalse(set(fingerprints(a)[2:]) & set(fingerprints(other)[2:]))

    def test_mix_rounds_follow_the_interactive_loop(self):
        client = workloads.MixClient(2, 1)
        rounds = 9  # one IMDb question per template Q1-Q9
        variants = 1 + len(workloads.PERTURBATIONS)
        explains_per_round = 1 + variants + variants * (variants - 1) // 2
        self.assertEqual(len(client.ops), rounds * (1 + explains_per_round))
        ingests = [op for op in client.ops if op["kind"] == "ingest"]
        self.assertEqual([op["touching"] for op in ingests], [True, False] * 4 + [True])
        seen = set()
        for op in client.ops:
            if op["kind"] == "explain":
                base, perturbation = op["key"]
                if perturbation is not None:
                    self.assertIn((base, None), seen)
                seen.add(op["key"])
        distinct_imdb = {key for key in seen if key[0][0] != "academic"}
        self.assertEqual(len(distinct_imdb), rounds * variants)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        span_dicts = [
            {"id": 1, "name": "root", "start": 0.0, "end": 10.0, "parent": None,
             "request": "r", "counts": {}},
            {"id": 2, "name": "a", "start": 2.0, "end": 5.0, "parent": 1,
             "request": "r", "counts": {"n": 2}},
            {"id": 3, "name": "a", "start": 4.0, "end": 8.0, "parent": 1,
             "request": "r", "counts": {"n": 3}},
        ]
        seconds, counts = spans.layer_metrics(span_dicts)
        self.assertAlmostEqual(seconds["root"], 4.0)
        self.assertAlmostEqual(seconds["a"], 7.0)
        self.assertEqual(counts["a.n"], 5)

    def test_wrappers_record_spans_and_are_restored(self):
        originals = {}
        for name, module_name, path, _ in spans.LAYERS:
            owner, attribute = spans._resolve(module_name, path)
            originals[(name, id(owner))] = (owner, attribute, owner.__dict__[attribute])
        self.assertEqual(spans.installed(), [])

        db1, db2, matches = figure1_databases()
        service = ExplainService()
        service.register_database(db1, "D1")
        service.register_database(db2, "D2")
        request = service.request(
            count_query("Q1", Scan("D1"), attribute="Program"), "D1",
            count_query("Q2", Scan("D2"), predicate=(col("Univ") == "A"), attribute="Major"),
            "D2", attribute_matches=matches,
        )
        recorder = spans.Recorder()
        installation = spans.install(recorder)
        try:
            self.assertIn("service.explain", spans.installed())
            with recorder.root("op", "r1"):
                service.explain(request)
            service.explain(request)  # outside a root: not recorded
        finally:
            installation.restore()

        self.assertEqual(spans.installed(), [])
        for owner, attribute, raw in originals.values():
            self.assertIs(owner.__dict__[attribute], raw)
        names = {span.name for span in recorder.spans}
        self.assertTrue({"op", "service.explain", "stage1", "stage2", "milp.build"} <= names)
        self.assertEqual({span.request for span in recorder.spans}, {"r1"})


if __name__ == "__main__":
    unittest.main()
