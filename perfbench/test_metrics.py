"""Tests of the benchmark harness itself (no Spark needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import copy
import json
import random
import re
import unittest
from pathlib import Path

import metrics
import run

ROOT = Path(__file__).resolve().parent.parent
# BENCHMARK.json's rules for metric names and units
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(id, name, start, end, parent="", phase="run"):
    return {"id": id, "parent": parent, "name": name, "phase": phase, "start": start, "end": end}


class SpanArithmetic(unittest.TestCase):

    def test_self_time_subtracts_children(self):
        spans = [span("a", "learn.detect_s", 0, 100),
                 span("b", "kb.snapshot_s", 10, 30, parent="a"),
                 span("c", "kb.snapshot_s", 50, 60, parent="a")]
        kids = metrics.children_of(spans)
        self.assertEqual(metrics.self_time_ms(spans[0], kids), 70)
        self.assertEqual(metrics.self_time_ms(spans[1], kids), 20)

    def test_overlapping_children_counted_once(self):
        spans = [span("a", "x.a_s", 0, 100),
                 span("b", "x.b_s", 10, 40, parent="a"),
                 span("c", "x.c_s", 30, 50, parent="a")]
        self.assertEqual(metrics.self_time_ms(spans[0], metrics.children_of(spans)), 60)

    def test_self_times_sum_to_top_level(self):
        rnd = random.Random(3)
        spans, t = [], 0.0
        for i in range(20):
            d = rnd.uniform(1, 50)
            spans.append(span(f"p{i}", "matching.types_s", t, t + d))
            spans.append(span(f"k{i}", "kb.snapshot_s", t + d * 0.2, t + d * 0.6, parent=f"p{i}"))
            t += d + rnd.uniform(0, 2)
        kids = metrics.children_of(spans)
        total_self = sum(metrics.self_time_ms(s, kids) for s in spans)
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] == "")
        self.assertAlmostEqual(total_self, top, places=6)

    def test_driver_time_excludes_own_jobs(self):
        spans = [span("a", "clustering.pairs_s.it1", 0, 100),
                 span("b", "clustering.profiles_s.it1", 60, 80, parent="a")]
        kids = metrics.children_of(spans)
        # jobs at 10-20 and 15-30 (overlap), and one inside the child
        jobs = [(10, 20), (15, 30), (65, 70)]
        self.assertEqual(metrics.driver_time_ms(spans[0], kids, jobs), 100 - 20 - 20)

    def test_span_and_spark_metrics_by_layer(self):
        rep = {
            "spans": [span("s1", "clustering.pairs_s.it1", 0, 1000),
                      span("s2", "clustering.pairs_s.it1", 2000, 2500),
                      span("s3", "world.generate_s", -500, -100, phase="setup")],
            "groups": {"s1": {"jobs": 2, "tasks": 10, "task_ms": 1500, "shuffle_bytes": 2e6,
                              "failed_tasks": 0, "large_task_warnings": 1,
                              "job_intervals": [[100, 600]]}},
        }
        sm = metrics.span_metrics(rep)
        self.assertAlmostEqual(sm["clustering.pairs_s.it1"], 1.5)
        self.assertAlmostEqual(sm["world.generate_s"], 0.4)
        pm = metrics.spark_metrics(rep)
        self.assertEqual(pm["clustering.jobs"], 2)
        self.assertAlmostEqual(pm["clustering.task_s"], 1.5)
        self.assertAlmostEqual(pm["clustering.shuffle_mb"], 2.0)
        self.assertEqual(pm["clustering.large_task_warnings"], 1)
        self.assertAlmostEqual(pm["clustering.driver_s"], 0.5 + 0.5)
        self.assertAlmostEqual(pm["world.driver_s"], 0.4)

    def test_trace_metrics(self):
        traced = {"run_s": 10.0, "spans": [span("a", "x.a_s", 0, 6000), span("b", "x.b_s", 6000, 9990),
                                           span("c", "x.c_s", 100, 200, parent="a")]}
        t = metrics.trace_metrics(traced, [9.0, 9.5, 12.0])
        self.assertAlmostEqual(t["trace.overhead_s"], 0.5)
        self.assertAlmostEqual(t["trace.top_level_s"], 9.99)
        self.assertAlmostEqual(t["trace.unaccounted_s"], 0.01)
        self.assertTrue(metrics.self_times_account(t))
        t["trace.unaccounted_s"] = 2.0
        self.assertFalse(metrics.self_times_account(t))


class MetricNames(unittest.TestCase):

    def test_catalogue_names_and_units_are_valid_and_unique(self):
        names = list(metrics.END_TO_END) + [n for n, _, _ in metrics.per_layer_catalogue()]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME_RE)
        units = [u for u, _ in metrics.END_TO_END.values()] + \
                [u for _, u, _ in metrics.per_layer_catalogue()]
        for u in units:
            self.assertRegex(u, UNIT_RE)
        self.assertLessEqual(len(metrics.per_layer_catalogue()), 128)

    def test_span_names_carry_their_layer(self):
        for n in metrics.SPAN_METRICS + list(metrics.COUNT_METRICS):
            self.assertIn(metrics.layer_of(n), metrics.LAYERS, n)

    def test_invalid_names_rejected(self):
        for bad in ["", ".run_s", "run s", "a" * 65, "x/y"]:
            self.assertNotRegex(bad, NAME_RE)

    def test_benchmark_json_matches_catalogue(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(bench["command"][:2], ["python3", "perfbench/run.py"])
        for w in bench["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(max(m["bound"] for m in bench["end_to_end"]),
                         next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"))
        layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        self.assertEqual(layer, metrics.per_layer_catalogue())


def sample_outputs():
    return {
        "correspondences": [[1001, "height", 0.8], [2003, "team", 0.6]],
        "table_class": [[1, "GridironFootballPlayer"], [2, "GridironFootballPlayer"]],
        "profile_rows": [100001, 100002, 200001],
        "clusters": [[100001, 100001], [100002, 100001], [200001, 200001]],
        "entities": [
            {"key": 100001, "cls": "G", "labels": ["Ann Bo", "A. Bo"], "rows": [100001, 100002],
             "tokens": ["ann", "bo"], "implicit": [["team|x", 0.5]],
             "facts": [["height", "190"], ["team", "x"]]},
            {"key": 200001, "cls": "G", "labels": ["Cy"], "rows": [200001], "tokens": ["cy"],
             "implicit": [], "facts": []},
        ],
        "detections": [[100001, "existing", "kb:Ann_Bo", 0.7], [200001, "new"]],
    }


class Digest(unittest.TestCase):

    def test_digest_ignores_collection_order(self):
        a = sample_outputs()
        b = copy.deepcopy(a)
        rnd = random.Random(1)
        for k in ("correspondences", "table_class", "profile_rows", "clusters", "entities", "detections"):
            rnd.shuffle(b[k])
        for e in b["entities"]:
            for k in ("labels", "rows", "tokens", "facts"):
                rnd.shuffle(e[k])
        self.assertEqual(metrics.digest(a), metrics.digest(b))

    def test_digest_is_stable_across_calls_and_json_round_trips(self):
        a = sample_outputs()
        again = json.loads(json.dumps(a))
        self.assertEqual(metrics.digest(a), metrics.digest(again))
        self.assertEqual(metrics.digest(a), metrics.digest(sample_outputs()))

    def test_digest_sees_changed_outputs(self):
        base = metrics.digest(sample_outputs())
        changed = sample_outputs()
        changed["entities"][0]["facts"][0][1] = "191"
        self.assertNotEqual(base, metrics.digest(changed))
        moved = sample_outputs()
        moved["clusters"][1][1] = 100002
        self.assertNotEqual(base, metrics.digest(moved))
        rescored = sample_outputs()
        rescored["detections"][0][3] = 0.7000000001
        self.assertNotEqual(base, metrics.digest(rescored))


class OutputChecks(unittest.TestCase):

    def test_good_outputs_pass(self):
        self.assertEqual(metrics.check_outputs(sample_outputs(), {"attr_f1": 0.9}, True), [])

    def test_broken_outputs_fail(self):
        o = sample_outputs()
        o["clusters"].pop()
        self.assertTrue(metrics.check_outputs(o, {}, True))
        o = sample_outputs()
        o["detections"].append([100001, "new"])
        self.assertTrue(metrics.check_outputs(o, {}, True))
        o = sample_outputs()
        o["entities"][1]["key"] = 100001
        self.assertTrue(metrics.check_outputs(o, {}, True))
        o = sample_outputs()
        o["entities"][1]["rows"] = [200001, 100002]
        self.assertTrue(metrics.check_outputs(o, {}, True))
        self.assertTrue(metrics.check_outputs(sample_outputs(), {"facts_f1": 1.2}, True))

    def test_matching_only_outputs(self):
        o = {k: v for k, v in sample_outputs().items() if k in ("correspondences", "table_class")}
        self.assertEqual(metrics.check_outputs(o, {"attr_f1": 0.5}, False), [])
        self.assertTrue(metrics.check_outputs(o, {}, True))


if __name__ == "__main__":
    unittest.main()
