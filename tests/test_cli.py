import contextlib
import enum
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cqsing
from cqsing import cli, deform
from cqsing.cfrac import Singularity
from cqsing.cli import main
from cqsing.invariant_ring import defining_equations
from cqsing.mckay import g_clusters
from cqsing.polyring import poly_text

from conftest import coprime_pairs


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResolve:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["resolve", "11", "7", "--format", "text"])
        assert code == 0
        assert "[2, 3, 2, 2]" in out
        assert "[3, 4]" in out
        assert "e = 4, r = 4" in out

    def test_invalid_pair_exits_2(self, capsys):
        code, out, err = run(capsys, ["resolve", "6", "4"])
        assert code == 2
        assert "coprime" in err

    def test_q_out_of_range_exits_2(self, capsys):
        assert run(capsys, ["resolve", "5", "5"])[0] == 2


class TestJson:
    @pytest.mark.parametrize(
        "command",
        ["resolve", "invariants", "toric", "mckay", "hilb", "gfan", "deform",
         "artin", "reconstruct", "verify"],
    )
    def test_round_trip_fixed_point(self, capsys, command):
        code, out, _ = run(capsys, [command, "11", "7", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["input"] == {"n": 11, "q": 7}
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out

    def test_hilb_payload(self, capsys):
        _, out, _ = run(capsys, ["hilb", "11", "7", "--format", "json"])
        payload = json.loads(out)
        assert [c["ideal_text"] for c in payload["clusters"]] == [
            "<x, y^11>",
            "<x^2, x*y^3, y^8>",
            "<x^3, x*y^3, y^5>",
            "<x^7, x^4*y, y^2>",
            "<x^11, y>",
        ]

    def test_gfan_payload(self, capsys):
        _, out, _ = run(capsys, ["gfan", "11", "7", "--format", "json"])
        payload = json.loads(out)
        assert payload["fan"]["rays"] == [
            [11, 0], [8, 1], [5, 2], [2, 3], [1, 7], [0, 11],
        ]
        assert payload["checks"]["matches_toric"] is True
        assert payload["checks"]["matches_reference"] is True

    def test_reconstruct_signed_paths(self, capsys):
        _, out, _ = run(capsys, ["reconstruct", "11", "7", "--format", "json"])
        payload = json.loads(out)
        relations = payload["reconstruction"]["relations"]
        assert len(relations) == 7
        assert {
            "vertex": 1,
            "sum": [[1, ["c10", "a01"]], [-1, ["a12", "c21"]]],
            "text": "c10*a01 - a12*c21",
        } in relations
        deformed = payload["reconstruction"]["deformed_relations"]
        assert {rel["parameter"] for rel in deformed} == {
            "t1_0", "t1_1", "t1_2", "t2_0", "t2_1", "t2_2", "t2_3",
        }
        assert payload["checks"]["matches_reference"] is True

    def test_reference_flags(self, capsys):
        for command in ["resolve", "invariants", "toric", "mckay", "hilb", "deform", "artin"]:
            _, out, _ = run(capsys, [command, "11", "7", "--format", "json"])
            assert json.loads(out)["checks"]["matches_reference"] is True
        # inputs without stored references carry no flag
        _, out, _ = run(capsys, ["resolve", "7", "3", "--format", "json"])
        assert "matches_reference" not in json.loads(out)["checks"]


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


class TestJsonRenderer:
    """cli._json_text against json.dumps(sort_keys=True, indent=2)."""

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            [[]],
            [{}],
            [[], [[]], {"a": {}, "b": [{}]}],
            {"x": {"y": {"z": []}}},
            [True, 1],
            [1, True],
            [[1, 2], [True, 3]],
            [[1, 2], [3, 4], [5, False]],
            [[None, 1], [2, 3]],
            [True, False, None],
            [-1, 0, 2**64 + 1, -(2**70)],
            [[-3, 2**65], [7, -(2**64) - 5]],
            "caf\u00e9 \u2603 \U0001f600",
            ["\"quoted\"", "back\\slash", "tab\tnew\nline\x00\x1f\x7f"],
            {"\u00e9": 1, "a\"b": [2], "\\": {}},
            (1, 2, 3),
            [(1, 2), (3, 4)],
            ([1, 2], (3, 4)),
            [[1, 2], [3]],
            [[1], [2, 3], []],
            [[0, 1, "x"], [0, 7, "y"], [10, 0, "x"]],
            [["a", 1], ["b", 2]],
            [Level.LOW, Tag("t")],
            [[Level.LOW, 2], [3, 4]],
            {Tag("k"): Level.LOW},
            [[[1, 2]], [[3, 4]]],
            {"b": [[1, 2]], "a": None, "c": {"d": [True]}},
            1,
            -5,
            "plain",
            None,
            True,
        ],
    )
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [1.5, [0.0], {"a": [[1, 2.5]]}, {1: 2}, {"a": 1, None: 2}, {(1, 2): 3},
         [object()], {"a": {1, 2}}],
    )
    def test_rejects_what_it_does_not_render(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_record_in_a_payload_rejected(self):
        # a NamedTuple record is a tuple, but json.dumps would print it as
        # an array silently; its plain tuple still renders
        cluster = g_clusters(Singularity(11, 7))[1]
        for value in ({"cluster": cluster}, [cluster], [[1, 2], cluster], cluster):
            with pytest.raises(TypeError, match="GCluster is not JSON serializable"):
                cli._json_text(value)
        for value in ({"cluster": tuple(cluster)}, [tuple(cluster), (5, 6, 7, 8)]):
            assert cli._json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "argv",
        [["mckay", "30", "1"], ["hilb", "30", "11"], ["deform", "11", "2"],
         ["invariants", "20", "3"], ["batch", "--max-n", "5"]],
    )
    def test_reports_match_json_dumps(self, capsys, argv):
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert out == dumps(json.loads(out)) + "\n"

    def test_property_against_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        scalars = (
            st.none() | st.booleans() | st.integers() | st.integers(-3, 3)
            | st.text(max_size=8)
        )
        rows = st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=4)
        values = st.recursive(
            scalars | rows,
            lambda inner: st.lists(inner, max_size=4)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=20,
        )

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(values)
        def check(value):
            assert cli._json_text(value) == dumps(value)

        check()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["resolve", "11", "7", "--format", "json"],
            ["invariants", "13", "5", "--format", "text"],
            ["toric", "12", "5", "--format", "json"],
            ["mckay", "11", "7", "--format", "dot"],
            ["hilb", "7", "3", "--format", "text"],
            ["gfan", "5", "3", "--format", "json"],
            ["deform", "11", "4", "--format", "text"],
            ["reconstruct", "11", "7", "--format", "dot"],
            ["batch", "--max-n", "6", "--format", "json"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1


class TestRepeatedMain:
    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def fresh_interpreter(argv):
        src = Path(cqsing.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "cqsing", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_calls_in_one_process_match_fresh_ones(self, capsys):
        # main reuses one parser per process; a rejected request must leave
        # nothing behind that changes the next one
        argvs = [
            ["resolve", "11", "7"],
            ["resolve", "6", "4"],
            ["deform", "11", "4", "--format", "json"],
            ["gfan", "11", "x"],
            ["invariants", "13", "5", "--format", "text"],
        ]
        got = [self.in_process(capsys, argv) for argv in argvs]
        assert [code for code, _, _ in got] == [0, 2, 0, 2, 0]
        for argv, result in zip(argvs, got):
            assert result == self.fresh_interpreter(argv), argv


class TestRenderOnce:
    def test_gfan_renders_each_basis_element_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return poly_text(*args, **kwargs)

        monkeypatch.setattr(cli, "poly_text", counted)
        code, out, _ = run(capsys, ["gfan", "11", "7", "--format", "json"])
        assert code == 0
        cones = json.loads(out)["cones"]
        assert len(calls) == sum(len(c["basis"]) for c in cones) == 13


class TestDot:
    def test_mckay_counts(self, capsys):
        _, out, _ = run(capsys, ["mckay", "11", "7", "--format", "dot"])
        assert out.count(" -> ") == 22
        assert out.count(";") == 11 + 22

    def test_mckay_2_1(self, capsys):
        _, out, _ = run(capsys, ["mckay", "2", "1", "--format", "dot"])
        assert out.count(" -> ") == 4

    def test_reconstruction(self, capsys):
        _, out, _ = run(capsys, ["reconstruct", "11", "7", "--format", "dot"])
        assert out.count(" -> ") == 11
        assert 'label="k2_1"' in out

    def test_dot_not_available_for_resolve(self, capsys):
        code, _, err = run(capsys, ["resolve", "11", "7", "--format", "dot"])
        assert code == 2


class TestExitCodes:
    def test_artin_degenerate_is_4(self, capsys):
        assert run(capsys, ["artin", "4", "3"])[0] == 4

    def test_reconstruct_unsupported_is_4(self, capsys):
        code, out, err = run(capsys, ["reconstruct", "30", "11"])
        assert code == 4
        assert "relations unavailable" in out or "relations unavailable" in err

    def test_verify_ok(self, capsys):
        assert run(capsys, ["verify", "11", "7"])[0] == 0

    @pytest.mark.parametrize("n, q", [(11, 4), (8, 3), (30, 11)])
    def test_reconstruct_unsupported_dot_is_partial(self, capsys, n, q):
        # the quiver exists without its relations: its DOT is written, and
        # the exit code says the report is partial, as for json and text
        code, out, err = run(capsys, ["reconstruct", str(n), str(q), "--format", "dot"])
        assert code == 4
        assert out.startswith("digraph reconstruction {")
        assert err == "error: relations unavailable for this shape\n"

    def test_reconstruct_single_curve_is_4(self, capsys):
        code, out, err = run(capsys, ["reconstruct", "5", "1"])
        assert code == 4
        assert out == ""
        assert "r = 1" in err

    def test_exponent_ceiling_is_2(self, capsys):
        # the orbit ideal of (32768, 1) has the generator x^32768, one past
        # polyring's exponent ceiling
        code, out, err = run(capsys, ["gfan", "32768", "1"])
        assert code == 2
        assert out == ""
        assert err == "error: polyring exponents must lie in 0..32767\n"

    @pytest.mark.parametrize(
        "argv, check",
        [
            (["hilb", "201", "37"], "regular_representation"),
            (["gfan", "101", "100"], "matches_toric"),
        ],
        ids=["hilb-201-37", "gfan-101-100"],
    )
    def test_hilb_cluster_cliff_is_fast(self, capsys, argv, check):
        # a search over cluster diagrams takes minutes on (201, 37), and
        # Buchberger's algorithm per Groebner cone about 25 s on (101, 100)
        start = time.perf_counter()
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert json.loads(out)["checks"][check] is True


class TestSizes:
    """Whole runs in a fresh interpreter, each capped at 1 GB of address
    space and 60 s of CPU, so that a regression fails instead of taking
    the host's memory."""

    @staticmethod
    def measured(argv, tmp_path):
        """(exit code, stdout, stderr, wall seconds, peak RSS in MB)."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

        src = Path(cqsing.__file__).resolve().parent.parent
        with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "cqsing", *argv],
                stdout=out,
                stderr=err,
                env={**os.environ, "PYTHONPATH": str(src)},
                preexec_fn=cap,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            rss = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
            return proc.returncode, out.read(), err.read(), seconds, rss

    def test_verify_long_chain_memory(self, tmp_path):
        # 4000 clusters and cones: each cluster is its two series corners,
        # so no check expands its 4000-odd columns
        code, out, _, _, rss = self.measured(
            ["verify", "4000", "3999", "--format", "json"], tmp_path
        )
        assert code == 0
        assert all(json.loads(out)["checks"].values())
        assert rss < 120

    def test_t_witness_of_a_huge_pair_fast(self, tmp_path):
        # consecutive Fibonacci numbers: both chains are short, and the
        # witness is one gcd, not a search over sqrt(n) ~ 10^9 values
        argv = ["resolve", "1100087778366101931", "679891637638612258", "--format", "json"]
        code, out, _, seconds, _ = self.measured(argv, tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["t_singularity"] is None
        assert (payload["e"], payload["r"]) == (45, 44)
        assert seconds < 5

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["verify", "32768", "32767"], "polyring exponents"),
            (["gfan", "32768", "32767"], "polyring exponents"),
            (["gfan", "1000000007", "1000000006"], "polyring exponents"),
            (["verify", "1000", "1"], "versal ceiling"),
            (["deform", "1000", "1"], "versal ceiling"),
            (["deform", "65533", "65531"], "versal ceiling of 2048"),
            (["verify", "16001", "15999"], "versal ceiling of 2048"),
        ],
        ids=[
            "verify-32768-32767",
            "gfan-32768-32767",
            "gfan-1000000007-1000000006",
            "verify-1000-1",
            "deform-1000-1",
            "deform-65533-65531",
            "verify-16001-15999",
        ],
    )
    def test_over_a_ceiling_exits_2_fast(self, tmp_path, argv, reason):
        code, out, err, seconds, _ = self.measured(argv, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err
        assert seconds < 5


class TestSpecializationCheck:
    """The deform check compares each specialized relation with the binomial
    relation of its own pair."""

    @staticmethod
    def checked(relations):
        s = Singularity(11, 4)
        pres = deform.versal_presentation(s)
        pres = pres._replace(relations=relations(pres.relations))
        return deform.specializes(s, pres, defining_equations(s))

    def test_accepts_the_family(self):
        assert self.checked(tuple)

    def test_relations_swapped_between_pairs(self):
        assert not self.checked(lambda rels: (rels[1], rels[0]) + rels[2:])

    def test_relation_missing(self):
        assert not self.checked(lambda rels: rels[:-1])

    def test_extra_parameter_free_term(self):
        # z1 survives s = t = 0, so the first relation is no longer binomial
        assert not self.checked(lambda rels: (rels[0] + rels[0].table.var("z1"),) + rels[1:])


class TestBatch:
    def test_max_n_over_the_versal_ceiling_exits_2(self, capsys):
        code, out, err = run(capsys, ["batch", "--max-n", "128"])
        assert code == 2
        assert out == ""
        assert err == "error: batch --max-n is limited to 127 by the versal ceiling\n"

    def test_small_sweep_clean(self, capsys):
        code, out, _ = run(capsys, ["batch", "--max-n", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["pairs"] == len(coprime_pairs(8))


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["resolve", "11", "7", "--format", "json", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["fraction"] == [2, 3, 2, 2]

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["resolve", "5", "2", "--output", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not target.exists()


# Every pair command in every format on a fixed set of pairs, plus batch.
# Each argv's (exit code, sha256 of stdout, stderr) is held in
# cli_gate.json; rerun this module as a script to record it anew.
GATE = Path(__file__).with_name("cli_gate.json")
GATE_COMMANDS = ["resolve", "invariants", "toric", "mckay", "hilb", "gfan",
                 "deform", "artin", "reconstruct", "verify"]
GATE_PAIRS = [(11, 7), (11, 4), (12, 5), (8, 3), (30, 11), (5, 1), (5, 4),
              (4, 3), (7, 6), (13, 1), (2, 1), (20, 9), (6, 4), (5, 5)]


def gate_argvs():
    for command in GATE_COMMANDS:
        for fmt in ["json", "text", "dot"]:
            for n, q in GATE_PAIRS:
                yield [command, str(n), str(q), "--format", fmt]
    for max_n in ["0", "6", "8"]:
        for fmt in ["json", "text"]:
            yield ["batch", "--max-n", max_n, "--format", fmt]


def gate_entry(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # an uncaught error ends the real CLI with exit 1
            code = 1
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]


def test_output_gate():
    want = json.loads(GATE.read_text())
    got = {" ".join(argv): gate_entry(argv) for argv in gate_argvs()}
    assert len(got) == 426
    assert sorted(k for k in got if got[k] != want.get(k)) == []


if __name__ == "__main__":
    record = {" ".join(argv): gate_entry(argv) for argv in gate_argvs()}
    GATE.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
