"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
from math import gcd

import pytest

import workloads
from analysis import PER_LAYER, SpanSummary, layer_metrics, percentile, self_times
from tracer import Tracer, read_spans


def test_percentile_nearest_rank():
    values = [7, 1, 3, 10, 2, 9, 4, 6, 8, 5]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile(values, 0) == 1
    assert percentile([4.5], 90) == 4.5
    with pytest.raises(ValueError):
        percentile([], 50)


# root [0, 100) holds a [10, 40) and b [50, 70); a holds c [15, 25)
TREE = [
    (0, -1, 0, "cli.main", 0, 100, None),
    (1, 0, 0, "gfan.groebner_fan", 10, 40, (None, [1, 2, 3])),
    (2, 1, 0, "polyring.normal_form", 15, 25, 1),
    (3, 0, 0, "polyring.normal_form", 50, 70, 0),
]


def test_self_time_subtracts_children_only():
    parent = [r[1] for r in TREE]
    start = [r[4] for r in TREE]
    end = [r[5] for r in TREE]
    assert self_times(parent, start, end) == [50, 20, 10, 20]


def test_span_summary_totals_per_function_and_layer():
    summary = SpanSummary(TREE)
    assert summary.calls["polyring.normal_form"] == 2
    assert summary.self_ns["polyring.normal_form"] == 30
    assert dict(summary.layer_self_ns) == {"cli": 50, "gfan": 20, "polyring": 30}
    # the layer self times partition the root span
    assert sum(summary.layer_self_ns.values()) == 100


def test_layer_metrics_from_calls_and_return_values():
    rows = [
        (0, -1, 0, "cli.main", 0, 1000, None),
        (1, 0, 0, "gfan.groebner_fan", 0, 500, 4),
        (2, 1, 0, "polyring.normal_form", 0, 100, 1),
        (3, 1, 0, "polyring.normal_form", 100, 200, 0),
        (4, 1, 0, "polyring.normal_form", 200, 300, 1),
        (5, -1, 1, "cli.main", 1000, 1500, None),
        (6, 5, 1, "mckay.g_clusters", 1000, 1100, 3),
        (7, 5, 1, "cfrac.hj_expand", 1100, 1110, None),
    ]
    m = layer_metrics(SpanSummary(rows), requests=2, untraced_ns=1000, traced_ns=1500)
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert m["gfan.cones"] == 4
    assert m["polyring.normal_form.calls"] == 3
    assert m["polyring.nf_nonzero_ratio"] == pytest.approx(2 / 3)
    assert m["polyring.self_s"] == pytest.approx(300e-9)
    assert m["gfan.self_s"] == pytest.approx(200e-9)
    assert m["cli.self_s"] == pytest.approx(890e-9)
    assert m["mckay.clusters"] == 3
    assert m["mckay.g_clusters.calls_per_op"] == 0.5
    assert m["cfrac.hj_expand.calls_per_op"] == 0.5
    assert m["polyring.buchberger.calls"] == 0
    assert m["trace.overhead_ratio"] == 1.5


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_argv_lists(name):
    assert workloads.passes(name, 7, 3) == workloads.passes(name, 7, 3)
    assert workloads.passes(name, 7, 3) != workloads.passes(name, 8, 3)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generated_pairs_are_valid_and_recorded(name):
    universe = {tuple(argv) for argv in workloads.universe(name)}
    for seed in range(5):
        for requests in workloads.passes(name, seed, 4):
            assert requests
            # each pair once: no request repeats work done earlier in its pass
            assert len({tuple(argv) for argv in requests}) == len(requests)
            for argv in requests:
                n, q = int(argv[1]), int(argv[2])
                assert 0 < q < n and gcd(n, q) == 1
                assert tuple(argv) in universe


def _outputs(cli, argvs):
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append((code, buf.getvalue()))
    return out


SAMPLE = [
    ["verify", "11", "7"],
    ["gfan", "11", "4", "--format", "json"],
    ["deform", "11", "4", "--format", "json"],
    ["deform", "9", "8", "--format", "json"],
    ["invariants", "13", "5", "--format", "json"],
    ["hilb", "11", "7", "--format", "text"],
    ["mckay", "11", "7", "--format", "dot"],
    ["reconstruct", "11", "7", "--format", "json"],
    ["reconstruct", "5", "1", "--format", "json"],
    ["artin", "11", "4", "--format", "json"],
]


def test_every_generated_argv_has_a_digest_but_the_known_defect():
    from run import DIGESTS, reconstruct_r1

    digests = json.loads(DIGESTS.read_text())
    expected = set()
    for name in workloads.NAMES:
        expected |= {" ".join(a) for a in workloads.universe(name) if not reconstruct_r1(a)}
    assert set(digests) == expected


def test_traced_run_leaves_stdout_identical_and_restores_bindings(tmp_path):
    from cqsing import cli, deform, gfan, invariant_ring, polyring

    before = (gfan.buchberger, polyring.buchberger, deform.dual_expand,
              invariant_ring.ij_series, polyring.Polynomial.substitute,
              polyring.Polynomial.__mul__, polyring.Polynomial.__radd__)
    plain = _outputs(cli, SAMPLE)
    tracer = Tracer()
    traced = []
    for argv in SAMPLE:  # switched on and off per request, as run.py does
        tracer.install()
        try:
            assert gfan.buchberger is polyring.buchberger is not before[0]
            assert deform.dual_expand is not before[2]
            assert invariant_ring.ij_series is not before[3]
            traced += _outputs(cli, [argv])
        finally:
            tracer.restore()
    after = (gfan.buchberger, polyring.buchberger, deform.dual_expand,
             invariant_ring.ij_series, polyring.Polynomial.substitute)
    assert traced == plain
    assert all(a is b for a, b in zip(before, after))
    names = {row[3] for row in tracer.spans()}
    assert {"cli.main", "gfan.groebner_fan", "polyring.buchberger",
            "polyring.substitute", "deform.versal_presentation"} <= names
    assert "polyring.__mul__" in names
    # per-monomial helpers stay untraced
    assert "polyring.exp_mul" not in names
    path = tmp_path / "spans.tsv"
    tracer.write(path)
    assert list(read_spans(path)) == list(tracer.spans())


def test_local_continued_fraction_length_matches_cqsing():
    from cqsing import hj_expand

    for n in range(3, 61):
        for q in range(1, n):
            if gcd(n, q) == 1:
                assert workloads._hj_length(n, q) == len(hj_expand(n, q))


def test_failure_rules():
    from run import failure, known_defect, output_failure, sha256

    ok = '{"checks": {"a": true}, "input": {"n": 5, "q": 2}}\n'
    argv = ["toric", "5", "2"]
    assert output_failure(0, ok) is None
    assert output_failure(4, "") is None  # unsupported is an allowed outcome
    assert failure(argv, 2, "", {}) == "exit 2"
    assert failure(argv, 3, "", {}) == "exit 3"
    assert failure(argv, 0, "not json", {}) == "output is not JSON"
    assert "checks false: a" in failure(argv, 0, ok.replace("true", "false"), {})
    assert failure(argv, 0, ok, {"toric 5 2": sha256(ok)}) is None
    assert "digest" in failure(argv, 0, ok, {"toric 5 2": sha256(ok + " ")})
    assert failure(argv, 0, ok, {}) == "no recorded digest"
    assert failure(argv, 4, "", {}) == "no recorded digest"
    # reconstruct n 1 has no digest; the contract's exit 4 passes, exit 2 fails
    assert failure(["reconstruct", "5", "1"], 4, "", {}) is None
    assert failure(["reconstruct", "5", "1"], 2, "", {}) == "exit 2"
    assert failure(["reconstruct", "5", "1"], 0, ok, {}) == "no recorded digest"
    assert known_defect(["reconstruct", "5", "1"], 2)
    assert not known_defect(["reconstruct", "5", "2"], 2)
    assert not known_defect(["reconstruct", "5", "1"], 3)


def test_latencies_scaled_by_the_calibrations_around_them():
    from run import CALIBRATION_NS, calibrate, scaled_latencies

    # a request that ran while the kernel took twice its reference time
    # counts half its wall-clock latency
    c = CALIBRATION_NS
    assert scaled_latencies([10, 30], [2 * c, 2 * c, c]) == [5, pytest.approx(20)]
    with pytest.raises(ValueError):
        scaled_latencies([10, 30], [c, c])
    assert calibrate() > 0
