"""Arithmetic on latencies and span trees: percentiles, self time, and the
per-layer metrics derived from a traced run."""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import LAYERS

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("gfan.self_s", "s", "lower"),
    ("gfan.cones", "count", "lower"),
    ("polyring.buchberger.calls", "count", "lower"),
    ("polyring.buchberger.self_s", "s", "lower"),
    ("polyring.normal_form.calls", "count", "lower"),
    ("polyring.normal_form.self_s", "s", "lower"),
    ("polyring.spairs", "count", "lower"),
    ("polyring.nf_nonzero_ratio", "ratio", "higher"),
    ("deform.self_s", "s", "lower"),
    ("deform.versal_presentation.self_s", "s", "lower"),
    ("deform.relation_terms", "count", "lower"),
    ("deform.base_ideal", "count", "lower"),
    ("polyring.substitute.calls", "count", "lower"),
    ("polyring.substitute.self_s", "s", "lower"),
    ("polyring.self_s", "s", "lower"),
    ("mckay.self_s", "s", "lower"),
    ("mckay.g_clusters.calls_per_op", "count/op", "lower"),
    ("mckay.g_clusters.self_s", "s", "lower"),
    ("mckay.clusters", "count", "lower"),
    ("mckay.g_basis.self_s", "s", "lower"),
    ("toric.self_s", "s", "lower"),
    ("toric.hilbert_basis_dual.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.verify_checks.self_s", "s", "lower"),
    ("cfrac.self_s", "s", "lower"),
    ("cfrac.hj_expand.calls_per_op", "count/op", "lower"),
    ("invariant_ring.self_s", "s", "lower"),
    ("invariant_ring.relations", "count", "lower"),
    ("reconstruct.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so a span's children run one after another
    inside it and their durations add up to the time they cover.
    """
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class SpanSummary:
    """Per-function and per-layer totals of one traced run."""

    def __init__(self, rows):
        rows = list(rows)
        parent = [r[1] for r in rows]
        start = [r[4] for r in rows]
        end = [r[5] for r in rows]
        if any(r[0] != i for i, r in enumerate(rows)):
            raise ValueError("span rows must be indexed 0..n-1 in order")
        selfs = self_times(parent, start, end)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.values = defaultdict(list)
        self.layer_self_ns = defaultdict(int)
        for row, own in zip(rows, selfs):
            name, value = row[3], row[6]
            self.calls[name] += 1
            self.self_ns[name] += own
            self.layer_self_ns[name.split(".", 1)[0]] += own
            if value is not None:
                self.values[name].append(value)

    def value_sum(self, name: str, part: int | None = None) -> int:
        values = self.values.get(name, [])
        if part is None:
            return sum(values)
        return sum(v[part] for v in values)


def layer_metrics(summary: SpanSummary, requests: int, untraced_ns: int, traced_ns: int):
    """Every per-layer metric of PER_LAYER, as plain numbers."""
    s = 1e-9

    def self_s(name):
        return summary.self_ns.get(name, 0) * s

    nf_calls = summary.calls.get("polyring.normal_form", 0)
    out = {f"{layer}.self_s": summary.layer_self_ns.get(layer, 0) * s for layer in LAYERS}
    out.update(
        {
            "gfan.cones": summary.value_sum("gfan.groebner_fan"),
            "polyring.buchberger.calls": summary.calls.get("polyring.buchberger", 0),
            "polyring.buchberger.self_s": self_s("polyring.buchberger"),
            "polyring.normal_form.calls": nf_calls,
            "polyring.normal_form.self_s": self_s("polyring.normal_form"),
            "polyring.spairs": summary.calls.get("polyring.s_polynomial", 0),
            # 0 when normal_form never runs on the workload
            "polyring.nf_nonzero_ratio": (
                summary.value_sum("polyring.normal_form") / nf_calls if nf_calls else 0.0
            ),
            "deform.versal_presentation.self_s": self_s("deform.versal_presentation"),
            "deform.relation_terms": summary.value_sum("deform.versal_presentation", 0),
            "deform.base_ideal": summary.value_sum("deform.versal_presentation", 1),
            "polyring.substitute.calls": summary.calls.get("polyring.substitute", 0),
            "polyring.substitute.self_s": self_s("polyring.substitute"),
            "mckay.g_clusters.calls_per_op": summary.calls.get("mckay.g_clusters", 0) / requests,
            "mckay.g_clusters.self_s": self_s("mckay.g_clusters"),
            "mckay.clusters": summary.value_sum("mckay.g_clusters"),
            "mckay.g_basis.self_s": self_s("mckay.g_basis"),
            "toric.hilbert_basis_dual.self_s": self_s("toric.hilbert_basis_dual"),
            "cli.verify_checks.self_s": self_s("cli.verify_checks"),
            "cfrac.hj_expand.calls_per_op": summary.calls.get("cfrac.hj_expand", 0) / requests,
            "invariant_ring.relations": summary.value_sum("invariant_ring.defining_equations"),
            "trace.overhead_ratio": traced_ns / untraced_ns,
        }
    )
    return {name: out[name] for name, _, _ in PER_LAYER}
