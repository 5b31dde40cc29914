"""Metric catalogue and the arithmetic behind the benchmark's numbers.

Everything here is pure Python over the per-repetition JSON the JVM harness
writes, so it can be unit-tested without Spark: span self times, per-layer
aggregation, output checks and the output digest.
"""
import hashlib
import json
import statistics

LAYERS = ["world", "kb", "matching", "learn", "clustering", "fusion", "newdetect"]

# name -> (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "driver_heap_mb": ("MB", "lower"),
    "table_class_acc": ("ratio", "higher"),
    "attr_f1": ("ratio", "higher"),
}

# Full-run quality metrics, reported with the layer whose output they judge.
# Across seeds they spread by 20-30 % (a few dozen gold clusters per class),
# wider than any bound an end-to-end metric may have.
QUALITY_METRICS = {
    "new_instances_f1": "newdetect.new_instances_f1",
    "facts_f1": "fusion.facts_f1",
}

# Span names are metric names: "<layer>.<stage>_s[.learn|.it1|.it2]".
SPAN_METRICS = [
    "world.generate_s", "world.inputs_s",
    "kb.build_s", "kb.snapshot_s",
    "matching.types_s", "matching.label_cols_s", "matching.table_class_s",
    "matching.attr_features_s.it1", "matching.attr_features_s.it2",
    "matching.correspondences_s.learn", "matching.correspondences_s.it1",
    "matching.correspondences_s.it2",
    "learn.attr_model_s.it1", "learn.attr_model_s.it2",
    "learn.cluster_agg_s", "learn.detect_s",
    "clustering.profiles_s.learn", "clustering.profiles_s.it1", "clustering.profiles_s.it2",
    "clustering.pairs_s.learn", "clustering.pairs_s.it1", "clustering.pairs_s.it2",
    "clustering.cluster_s.it1", "clustering.cluster_s.it2",
    "fusion.entities_s.it1", "fusion.entities_s.it2",
    "newdetect.detect_s.it1", "newdetect.detect_s.it2",
]

# name -> (unit, better); computed by the JVM after the traced run, or
# (the two F1s) taken from the quality metrics.
COUNT_METRICS = {
    "kb.instances": ("count", "lower"),
    "matching.row_cands": ("count", "lower"),
    "matching.tables_matched": ("count", "higher"),
    "matching.cand_row_share": ("ratio", "higher"),
    "learn.train_pairs": ("count", "lower"),
    "learn.train_candidates": ("count", "lower"),
    "clustering.profile_rows": ("count", "lower"),
    "clustering.candidate_pairs": ("count", "lower"),
    "clustering.components": ("count", "higher"),
    "clustering.largest_component": ("count", "lower"),
    "clustering.clusters": ("count", "lower"),
    "clustering.positive_pair_share": ("ratio", "higher"),
    "clustering.f1": ("ratio", "higher"),
    "fusion.entities": ("count", "lower"),
    "fusion.facts": ("count", "higher"),
    "fusion.facts_f1": ("ratio", "higher"),
    "newdetect.new": ("count", "lower"),
    "newdetect.existing": ("count", "higher"),
    "newdetect.undecided": ("count", "lower"),
    "newdetect.decided_share": ("ratio", "higher"),
    "newdetect.new_instances_f1": ("ratio", "higher"),
}

# Spark counters reported for every layer, from the benchmark's listener.
SPARK_COUNTERS = {
    "jobs": ("count", "lower"),
    "tasks": ("count", "lower"),
    "task_s": ("s", "lower"),
    "shuffle_mb": ("MB", "lower"),
    "failed_tasks": ("count", "lower"),
    "driver_s": ("s", "lower"),
    "large_task_warnings": ("count", "lower"),
}

TRACE_METRICS = {
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.top_level_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}


def per_layer_catalogue():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(n, "s", "lower") for n in SPAN_METRICS]
    out += [(n, u, b) for n, (u, b) in COUNT_METRICS.items()]
    out += [(f"{layer}.{c}", u, b) for layer in LAYERS for c, (u, b) in SPARK_COUNTERS.items()]
    out += [(n, u, b) for n, (u, b) in TRACE_METRICS.items()]
    return out


# ---- spans -------------------------------------------------------------------

def clip(intervals, lo, hi):
    return [(max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)]


def subtract(lo, hi, holes):
    """The parts of [lo, hi) not covered by any hole, as intervals."""
    out, cur = [], lo
    for s, e in sorted(clip(holes, lo, hi)):
        if s > cur:
            out.append((cur, s))
        cur = max(cur, e)
    if cur < hi:
        out.append((cur, hi))
    return out


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def self_intervals(span, kids):
    """The span's own time: its interval minus the time its children cover."""
    holes = [(c["start"], c["end"]) for c in kids.get(span["id"], [])]
    return subtract(span["start"], span["end"], holes)


def self_time_ms(span, kids):
    return sum(e - s for s, e in self_intervals(span, kids))


def driver_time_ms(span, kids, job_intervals):
    """Self time during which none of the span's own Spark jobs ran."""
    total = 0.0
    for lo, hi in self_intervals(span, kids):
        total += sum(e - s for s, e in subtract(lo, hi, job_intervals))
    return total


def layer_of(name):
    return name.split(".", 1)[0]


# ---- per-repetition aggregation ----------------------------------------------

def span_metrics(rep):
    """Self seconds per span name, summed over the spans of that name."""
    spans = rep["spans"]
    kids = children_of(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + self_time_ms(s, kids) / 1e3
    return out


def spark_metrics(rep):
    """Spark counters summed per layer over the layer's spans."""
    spans = rep["spans"]
    kids = children_of(spans)
    groups = rep["groups"]
    out = {f"{layer}.{c}": 0.0 for layer in LAYERS for c in SPARK_COUNTERS}
    for s in spans:
        layer = layer_of(s["name"])
        g = groups.get(s["id"], {})
        jobs = [tuple(iv) for iv in g.get("job_intervals", [])]
        out[f"{layer}.jobs"] += g.get("jobs", 0)
        out[f"{layer}.tasks"] += g.get("tasks", 0)
        out[f"{layer}.task_s"] += g.get("task_ms", 0) / 1e3
        out[f"{layer}.shuffle_mb"] += g.get("shuffle_bytes", 0) / 1e6
        out[f"{layer}.failed_tasks"] += g.get("failed_tasks", 0)
        out[f"{layer}.large_task_warnings"] += g.get("large_task_warnings", 0)
        out[f"{layer}.driver_s"] += driver_time_ms(s, kids, jobs) / 1e3
    return out


def trace_metrics(traced, untraced_run_s):
    """Tracing overhead against the untraced median, and how much of the
    traced run the top-level spans and the self times account for.
    """
    spans = [s for s in traced["spans"] if s["phase"] == "run"]
    kids = children_of(spans)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] == "") / 1e3
    self_sum = sum(self_time_ms(s, kids) for s in spans) / 1e3
    run_s = traced["run_s"]
    return {
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - statistics.median(untraced_run_s),
        "trace.top_level_s": top,
        "trace.unaccounted_s": run_s - self_sum,
    }


def self_times_account(trace, tolerance_share=0.01):
    """True when the span self times cover the traced run up to the tracing
    overhead (or 1 % of the run, whichever is larger).
    """
    slack = max(abs(trace["trace.overhead_s"]), tolerance_share * trace["trace.run_s"])
    return abs(trace["trace.unaccounted_s"]) <= slack


def setup_s(rep):
    """Session start plus the median set-up of the repetition."""
    totals = [sum(s.values()) for s in rep["setups"]]
    return rep["session_s"] + statistics.median(totals)


# ---- outputs -------------------------------------------------------------------

def canonical(outputs):
    """Order-free form of the outputs: every collection sorted."""
    out = dict(outputs)
    for key in ("correspondences", "table_class", "clusters", "detections", "profile_rows"):
        if key in out:
            out[key] = sorted(out[key])
    if "entities" in out:
        ents = []
        for e in out["entities"]:
            e = dict(e)
            for k in ("labels", "rows", "tokens", "implicit", "facts"):
                e[k] = sorted(e[k])
            ents.append(e)
        out["entities"] = sorted(ents, key=lambda e: e["key"])
    return out


def digest(outputs):
    blob = json.dumps(canonical(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_outputs(outputs, quality, full_run):
    """Problems with one repetition's outputs; empty when all checks pass."""
    problems = []
    for k, v in quality.items():
        if not (0.0 <= v <= 1.0):
            problems.append(f"{k}={v} outside [0, 1]")
    if not outputs.get("table_class"):
        problems.append("no table was matched to a class")
    if not outputs.get("correspondences"):
        problems.append("no attribute correspondence")
    if not full_run:
        return problems
    missing = [k for k in ("profile_rows", "clusters", "entities", "detections") if k not in outputs]
    if missing:
        return problems + [f"missing outputs {missing}"]
    rows = outputs["profile_rows"]
    clustered = [r for r, _ in outputs["clusters"]]
    if len(set(rows)) != len(rows):
        problems.append("duplicate profile rows")
    if len(set(clustered)) != len(clustered) or set(clustered) != set(rows):
        problems.append("clusters do not partition the profile rows")
    keys = [e["key"] for e in outputs["entities"]]
    if len(set(keys)) != len(keys):
        problems.append("entity keys are not unique")
    entity_rows = [r for e in outputs["entities"] for r in e["rows"]]
    if sorted(entity_rows) != sorted(rows):
        problems.append("entity rows do not partition the profile rows")
    det = [d[0] for d in outputs["detections"]]
    if len(set(det)) != len(det) or set(det) != set(keys):
        problems.append("not exactly one detection per entity")
    return problems

