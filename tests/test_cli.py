import enum
import glob
import json
import os
import shutil
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

import cqsing
from cqsing import cli, deform, gfan, invariant_ring, polyring, reconstruct
from cqsing.cfrac import Singularity, curve_count
from cqsing.cli import main
from cqsing.errors import ConsistencyError
from cqsing.invariant_ring import defining_equations
from cqsing.mckay import Runs, Staircase, g_basis, g_clusters

from conftest import coprime_pairs, staircase_boxes
from gate_replay import gate_entry, replay


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

    def test_reference_flags(self, capsys):
        # a report's checks are the ones it computes: no JSON argv of the
        # gate, the anchor pairs (11, 7) and (11, 4) included, prints a flag
        # read off stored values
        argvs = [
            argv for argv in chain(gate_argvs(), GATE_FORMS)
            if "json" in " ".join(argv) and "dot" not in argv
        ]
        assert len(argvs) == 148
        printed = 0
        for argv in argvs:
            code, out, _ = run(capsys, argv)
            if code == 0 and argv[0] in cli.COMMANDS:
                assert "matches_reference" not in json.loads(out)["checks"], argv
                printed += 1
        assert printed == 111


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
            # explicit ids, so that these two keep the names they are known by
            pytest.param([[[1, 2]], [[3, 4]]], id="value27"),
            pytest.param({"b": [[1, 2]], "a": None, "c": {"d": [True]}}, id="value28"),
            1,
            -5,
            "plain",
            None,
            True,
            # columns: records that share keys and equal- or varying-length arrays
            pytest.param(
                [{"a": 1, "b": "x"}, {"b": "y", "a": 2}, {"a": 3, "b": "z"}],
                id="same-key-records",
            ),
            pytest.param([{"a": 1}, {"b": 2}, {"a": 3}], id="mixed-key-records"),
            pytest.param([{"a": 1}, {"a": 1, "b": [2]}, {"b": None}], id="growing-key-records"),
            pytest.param(
                [{"50%": 1, "%d": "%s", "%s%%": [3]}, {"50%": 4, "%d": "%", "%s%%": []}],
                id="percent-keys-in-records",
            ),
            pytest.param({"%": "%d", "a%%b": {"%s": [1, "%"]}}, id="percent-keys-in-one-dict"),
            pytest.param([{}, {}, {"a": 1}, {}], id="empty-dicts-among-records"),
            pytest.param([{}, {}], id="empty-records"),
            pytest.param(
                [{"v": [1, 2]}, {"v": 3}, {"v": None}, {"v": "s"}, {"v": {"w": []}}],
                id="record-values-mix-lists-and-scalars",
            ),
            pytest.param(
                [{"v": [1, 2], "w": True}, {"v": [3], "w": False}, {"v": [], "w": None}],
                id="record-values-lists-and-scalars-by-key",
            ),
            pytest.param([[1, 2, 3], [4, 5, 6], [7, 8, 9]], id="equal-length-int-arrays"),
            pytest.param([[-(2**70), 0], [2**64, -1]], id="equal-length-big-ints"),
            pytest.param([[[1, 2], [3, 4]], [[5, 6]], []], id="equal-length-nested-int-arrays"),
            pytest.param([[1], [2, 3], [], [4, 5, 6], [7]], id="varying-length-int-arrays"),
            pytest.param(
                [[2**70], [1, -2], [[3]]],
                id="varying-length-int-arrays-and-a-nested-one",
            ),
            pytest.param(
                [{"h": [1]}, {"h": [2, 3]}, {"h": []}],
                id="varying-length-int-arrays-in-records",
            ),
            pytest.param([[True, 1], [False, 0]], id="bools-in-equal-length-arrays"),
            pytest.param(
                [(1, "a"), (2, "b"), (3, None)],
                id="equal-length-tuples-of-mixed-scalars",
            ),
            pytest.param(
                [["%d", "%s"], ["\x00", "a%"], ["", "\u2603"]],
                id="percent-and-nul-in-string-arrays",
            ),
            pytest.param([[{"a": 1}, {"a": 2}], [{"a": 3}], []], id="arrays-of-records"),
            pytest.param(
                [[{"a": [1, 2]}, {"a": [3]}], [{"b": "%d"}]],
                id="arrays-of-records-with-arrays",
            ),
            pytest.param([[[{"x": 1}]], [[{"x": 2}, {"x": 3}]]], id="records-three-levels-down"),
            pytest.param([[1, [2]], [3, [4, 5]]], id="arrays-mixing-ints-and-arrays"),
            # columns that mix kinds, rendered value by value
            pytest.param(
                [[1, ["a"]], [-1, ["b", "c"]], ["x", {"k": 1}], [None, {"j": []}]],
                id="pairs-mixing-scalars-arrays-and-two-key-sets",
            ),
            pytest.param(
                [1, "s", None, [2, "t"], (3,), {"k": 1}, {"j": []}, {"k": [4]}, True, []],
                id="one-column-of-every-kind",
            ),
            pytest.param(
                {"v": [[1, [2, 3]], [-1, []], [1, ["a", "b"]], [-1, ("c",)]]},
                id="signed-paths-like-reconstruct-sums",
            ),
        ],
    )
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [1.5, [0.0], {"a": [[1, 2.5]]}, {1: 2}, {"a": 1, None: 2}, {(1, 2): 3},
         [object()], {"a": {1, 2}}, [[1, 2], [3, 4.5]], [[1], [2, 3.5]],
         [{"a": 1}, {"a": 1.5}], [{"a": 1, 2: 3}, {"a": 1, 2: 4}], [[1], [2, {3}]],
         # subclasses of the types it renders, which json.dumps prints
         pytest.param(Level.LOW, id="int-enum"),
         pytest.param(Tag("t"), id="str-subclass"),
         pytest.param([Level.LOW, Tag("t")], id="int-enum-and-str-subclass"),
         pytest.param([[Level.LOW, 2], [3, 4]], id="int-enum-in-equal-length-arrays"),
         pytest.param({Tag("k"): Level.LOW}, id="int-enum-under-a-str-subclass-key"),
         pytest.param([[Level.LOW, 2], [3]], id="int-enum-in-int-arrays"),
         pytest.param({"a": Tag("t")}, id="str-subclass-in-a-dict"),
         pytest.param([Tag("t")], id="str-subclass-in-an-array"),
         # a subclass inside a column that mixes kinds
         pytest.param([[1, [Level.LOW]], [2, ["a"]]], id="int-enum-in-a-split-column"),
         pytest.param([{"a": 1}, {"b": Tag("t")}], id="str-subclass-in-a-split-column"),
         pytest.param([{list: 1, tuple: 2}, [1]], id="dict-keyed-by-the-array-types")],
    )
    def test_rejects_what_it_does_not_render(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_record_in_a_payload_rejected(self):
        # a NamedTuple record is a tuple, but json.dumps would print it as
        # an array silently; its plain tuple still renders
        cluster = g_clusters(Singularity(11, 7))[1]
        for value in ({"cluster": cluster}, [cluster], [[1, 2], cluster], cluster,
                      [{"c": cluster}, {"c": cluster}], [[cluster, cluster]],
                      [[1, 2], cluster, (3, 4)], [[(1, 2), cluster]]):
            with pytest.raises(TypeError, match="GCluster is not JSON serializable"):
                cli._json_text(value)
        for value in ({"cluster": tuple(cluster)}, [tuple(cluster), (5, 6, 7, 8)]):
            assert cli._json_text(value) == dumps(value)

    def test_closed_forms_match_their_expansions(self):
        # the G-basis staircase renders as its list of boxes and each
        # cluster's runs as its tuple of heights, alone and as a column, on
        # every coprime pair with n <= 60 and at three indents
        pairs = coprime_pairs(60)
        assert {(2, 1), (59, 1), (59, 58)} <= set(pairs)
        last_run_empty = first_corner_on_the_axis = 0
        for n, q in pairs:
            s = Singularity(n, q)
            basis, clusters = g_basis(s), g_clusters(s)
            boxes = staircase_boxes(basis)
            runs = [c.height_runs for c in clusters]
            heights = [c.heights for c in clusters]
            last_run_empty += sum(c.i_next == 0 for c in clusters)
            first_corner_on_the_axis += sum(c.j == 0 for c in clusters)
            assert cli._json_text(basis) == cli._json_text(boxes) == dumps(boxes), (n, q)
            for indent in ("\n", "\n  ", "\n      "):
                assert cli._text(basis, indent) == cli._text(boxes, indent), (n, q)
                assert cli._texts([basis, basis], indent) == cli._texts([boxes, boxes], indent)
                assert cli._texts(runs, indent) == cli._texts(heights, indent), (n, q)
                for r, h in zip(runs, heights):
                    assert cli._text(r, indent) == cli._text(h, indent), (n, q)
        assert last_run_empty == first_corner_on_the_axis == len(pairs)

    @pytest.mark.parametrize(
        "value, expanded",
        [
            (Runs(()), ()),
            (Runs(((4, 0), (2, 3))), (2, 2, 2)),
            (Runs(((4, 2), (2, 0))), (4, 4)),
            (Runs(((0, 1), (-7, 2), (2**70, 1))), (0, -7, -7, 2**70)),
            (Staircase(()), []),
            (Staircase((0,)), []),
            (Staircase((2, 0, 1)), [(0, 0), (0, 1), (2, 0)]),
        ],
        ids=["no-runs", "empty-first-run", "empty-last-run", "signed-and-big",
             "no-columns", "one-empty-column", "an-empty-column-between"],
    )
    def test_closed_form_edges(self, value, expanded):
        if type(value) is Staircase:
            assert staircase_boxes(value) == expanded and sum(value.heights) == len(expanded)
        assert cli._json_text(value) == dumps(expanded)
        assert cli._json_text({"v": [value, value]}) == dumps({"v": [expanded, expanded]})
        assert cli._json_text([value, [1]]) == dumps([expanded, [1]])

    def test_closed_forms_matched_by_exact_type(self):
        class Sub(Runs):
            pass

        cluster = g_clusters(Singularity(11, 7))[1]
        for value in (Sub(((1, 2),)), [Sub(((1, 2),))], [cluster.height_runs, cluster],
                      {"h": [cluster, g_basis(Singularity(5, 2))]}):
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._json_text(value)

    @pytest.mark.parametrize(
        "argv",
        [["mckay", "30", "1"], ["hilb", "30", "11"], ["deform", "11", "2"],
         ["invariants", "20", "3"], ["batch", "--max-n", "5"],
         ["invariants", "28", "1"], ["hilb", "60", "59"], ["reconstruct", "60", "59"],
         ["mckay", "60", "1"], ["deform", "21", "2"]],
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
        # equal-width rows: each position draws from its own kinds, so that
        # a position holds one kind or mixes them
        cell = st.sampled_from([
            st.integers(), st.booleans(), st.none(), st.text(max_size=4),
            st.lists(st.integers(-3, 3), max_size=3),
        ])
        rows = st.lists(st.lists(cell, min_size=1, max_size=3), max_size=4).flatmap(
            lambda positions: st.lists(
                st.tuples(*[st.one_of(*kinds) for kinds in positions]).map(list),
                max_size=5,
            )
        ) | st.integers(0, 4).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(), min_size=width, max_size=width), max_size=5
            )
        )
        keys = st.lists(st.text(alphabet="ab%s\"\x00\u00e9", max_size=3), unique=True, max_size=4)

        # st.dictionaries almost never draws two dicts with one key set:
        # draw such columns of records on purpose
        def records(inner):
            return keys.flatmap(
                lambda names: st.lists(
                    st.fixed_dictionaries({k: inner for k in names}), max_size=5
                )
            )

        values = st.recursive(
            scalars | rows,
            lambda inner: st.lists(inner, max_size=4)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4)
            | records(inner),
            max_leaves=30,
        )

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
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


# Argvs that exit 2 with one error line: outside the CLI's grammar, and
# a pair or --max-n out of range.
MALFORMED = [
    [],
    ["frobnicate", "11", "7"],
    ["resolve", "11"],
    ["resolve", "11", "7", "9"],
    ["gfan", "11", "x"],
    ["resolve", "1" * 5000, "7"],  # over int()'s digit limit
    ["resolve", "11", "7", "--format", "xml"],
    ["batch", "--format", "dot"],
    ["batch", "11", "7"],
    ["resolve", "11", "7", "--output"],
    ["resolve", "11", "7", "--verbose"],
    ["resolve", "11", "7", "--form", "json"],  # abbreviations are not taken
    ["resolve", "-11", "7"],
    ["batch", "--max-n", "-3"],
]

# Other spellings of gate argvs, each with the canonical one it must match.
SPELLINGS = {
    "resolve 11 7 --format=json": "resolve 11 7 --format json",
    "toric --format json 11 7": "toric 11 7 --format json",
    "mckay 11 7 --format json --format dot": "mckay 11 7 --format dot",
    "gfan +11 4 --format json": "gfan 11 4 --format json",
    "hilb 1_1 7 --format text": "hilb 11 7 --format text",
    "batch --format=json --max-n=6": "batch --max-n 6 --format json",
}


class TestParser:
    @pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv)[:40])
    def test_malformed_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_spellings_match_the_canonical_argv(self, capsys, spelling):
        assert run(capsys, spelling.split()) == run(capsys, SPELLINGS[spelling].split())

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["resolve", "-h"], ["batch", "--max-n", "x", "--help"]]
    )
    def test_help_prints_the_usage(self, capsys, argv):
        assert run(capsys, argv) == (0, cli.USAGE, "")


class TestRepeatedMain:
    @staticmethod
    def in_process(capsys, argv):
        code = main(argv)
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
        # a rejected request, by the parser or by a layer, must leave
        # nothing behind in the process that changes the next one
        argvs = [
            ["resolve", "11", "7"],
            ["resolve", "6", "4"],
            ["deform", "11", "4", "--format", "json"],
            ["gfan", "11", "x"],
            ["invariants", "13", "5", "--format", "text"],
            ["-h"],
        ]
        argvs += [*MALFORMED, ["resolve", "11", "7"]]
        got = [self.in_process(capsys, argv) for argv in argvs]
        assert [code for code, _, _ in got] == [0, 2, 0, 2, 0, 0] + [2] * len(MALFORMED) + [0]
        for argv, result in zip(argvs, got):
            assert result == self.fresh_interpreter(argv), argv


class TestRenderOnce:
    def test_gfan_renders_each_basis_element_once(self, capsys, monkeypatch):
        # each row (m, m') is written once, as x^m - x^m' with its lead
        # first, and the generic renderer is never reached
        calls = []
        monomial_text = invariant_ring.monomial_text

        def counted(*args, **kwargs):
            calls.append(args)
            return monomial_text(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("gfan reached poly_text")

        monkeypatch.setattr(invariant_ring, "monomial_text", counted)
        monkeypatch.setattr(cli, "poly_text", refuse)
        monkeypatch.setattr(polyring, "poly_text", refuse)
        code, out, _ = run(capsys, ["gfan", "11", "7", "--format", "json"])
        assert code == 0
        cones = json.loads(out)["cones"]
        assert len(calls) == 2 * sum(len(c["basis"]) for c in cones) == 26
        _, rows = gfan.groebner_fan(Singularity(11, 7))
        assert calls == [v for c in rows for row in c.basis for v in row]

    def test_zero_basis_element_exits_3(self, capsys, monkeypatch):
        # a zero element has no lead: an internal inconsistency, not bad
        # input
        certify = gfan.certify_basis

        def with_zero(basis, s, w):
            return certify(basis + (((1, 0), (1, 0)),), s, w)

        monkeypatch.setattr(gfan, "certify_basis", with_zero)
        code, out, err = run(capsys, ["gfan", "11", "7"])
        assert code == 3
        assert out == ""
        assert "zero" in err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda rows: rows[1:], "standard monomials"),
            (lambda rows: (rows[0][::-1],) + rows[1:], "is not inside the cone"),
            # x - 1 in place of x - y^8, the last row of the first cone
            (lambda rows: rows[:-1] + ((rows[-1][0], (0, 0)),), "does not vanish"),
        ],
        ids=["dropped", "swapped", "other-residue"],
    )
    def test_corrupted_row_exits_3(self, capsys, monkeypatch, corrupt, message):
        certify = gfan.certify_basis
        monkeypatch.setattr(
            gfan, "certify_basis", lambda basis, s, w: certify(corrupt(basis), s, w)
        )
        code, out, err = run(capsys, ["gfan", "11", "7"])
        assert code == 3
        assert out == ""
        assert message in err

    def test_verify_builds_no_basis_text(self, capsys, monkeypatch):
        # verify certifies every cone and prints none of them
        def refuse(*args, **kwargs):
            raise AssertionError("verify wrote a monomial")

        monkeypatch.setattr(invariant_ring, "monomial_text", refuse)
        monkeypatch.setattr(cli, "poly_text", refuse)
        for pair in (("11", "7"), ("20", "1"), ("20", "19"), ("29", "8")):
            code, out, _ = run(capsys, ["verify", *pair, "--format", "json"])
            assert code == 0
            assert json.loads(out)["checks"]["groebner_fan_matches_toric"] is True


class TestTextOnRequest:
    """The text lines are built for --format text only."""

    @staticmethod
    def spied(name, builder):
        calls = []

        def spy(*args):
            report = builder(*args)

            def text():
                calls.append(name)
                return report.text()

            return report._replace(text=text)

        return spy, calls

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_json_and_dot_build_no_text(self, capsys, monkeypatch, command):
        spy, calls = self.spied(command, cli.COMMANDS[command])
        monkeypatch.setitem(cli.COMMANDS, command, spy)
        assert run(capsys, [command, "11", "7", "--format", "json"])[0] == 0
        quiver = command in ("mckay", "reconstruct")
        assert run(capsys, [command, "11", "7", "--format", "dot"])[0] == (0 if quiver else 2)
        assert calls == []
        assert run(capsys, [command, "11", "7", "--format", "text"])[0] == 0
        assert calls == [command]

    def test_batch_json_builds_no_text(self, capsys, monkeypatch):
        spy, calls = self.spied("batch", cli.run_batch)
        monkeypatch.setattr(cli, "run_batch", spy)
        assert run(capsys, ["batch", "--max-n", "5", "--format", "json"])[0] == 0
        assert calls == []
        assert run(capsys, ["batch", "--max-n", "5", "--format", "text"])[0] == 0
        assert calls == ["batch"]


class TestReconstructEntries:
    def test_texts_match_relation_text(self):
        # every supported shape with n <= 40: each plain and deformed entry
        # reads as its Relation's own text, and its "sum" holds the labels
        shapes = [
            s
            for s in (Singularity(n, q) for n, q in coprime_pairs(40))
            if curve_count(s) >= 2 and reconstruct.reconstruction_quiver(s).relations
        ]
        assert shapes
        for s in shapes:
            data = cli.run_reconstruct(s).payload["reconstruction"]
            relations = (
                (data["relations"], reconstruct.reconstruction_quiver(s).relations),
                (data["deformed_relations"], reconstruct.deformed_relations(s).relations),
            )
            for entries, rels in relations:
                assert len(entries) == len(rels)
                for entry, rel in zip(entries, rels):
                    assert entry["text"] == rel.text()
                    assert entry["sum"] == [
                        [1, [a.label for a in rel.positive]],
                        [-1, [a.label for a in rel.negative]],
                    ]

    def test_each_path_labelled_once(self, monkeypatch):
        s = Singularity(11, 7)
        paths = [
            rel.positive + rel.negative
            for rel in reconstruct.reconstruction_quiver(s).relations
            + reconstruct.deformed_relations(s).relations
        ]
        calls = []
        label = reconstruct.Arrow.label

        def counted(arrow):
            calls.append(arrow)
            return label.fget(arrow)

        monkeypatch.setattr(reconstruct.Arrow, "label", property(counted))
        cli.run_reconstruct(s)
        assert len(calls) == sum(map(len, paths))


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


# A process forked from the test runner starts with the runner's resident
# pages, and exec keeps that peak in its max RSS, so a run forked from here
# would read at least the runner's size.  Each run is forked from this small
# launcher instead; it caps the run and writes its exit code and max RSS.
LAUNCHER = """\
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "cqsing", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as report:
    report.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


class TestSizes:
    """Whole runs in a fresh interpreter, each capped at 1 GB of address
    space and 60 s of CPU, so that a regression fails instead of taking
    the host's memory."""

    @staticmethod
    def measured(argv, tmp_path):
        """(exit code, stdout, stderr, wall seconds, peak RSS in MB)."""
        src = Path(cqsing.__file__).resolve().parent.parent
        report = tmp_path / "report"
        with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", LAUNCHER, str(report), *argv],
                stdout=out,
                stderr=err,
                env={**os.environ, "PYTHONPATH": str(src)},
                check=True,
            )
            seconds = time.perf_counter() - start
            code, maxrss = map(int, report.read_text().split())
            out.seek(0)
            err.seek(0)
            rss = maxrss / 1024  # ru_maxrss is in KiB on Linux
            return code, out.read(), err.read(), seconds, rss

    def test_verify_long_chain_memory(self, tmp_path):
        # 4000 clusters and cones: each cluster is its two series corners,
        # so no check expands its 4000-odd columns
        code, out, _, _, rss = self.measured(
            ["verify", "4000", "3999", "--format", "json"], tmp_path
        )
        assert code == 0
        assert all(json.loads(out)["checks"].values())
        assert rss < 120

    def test_verify_hypersurface_at_the_exponent_ceiling(self, tmp_path):
        # e = 3: the n - 1 parameters are counted, not built as a family
        code, out, _, _, _ = self.measured(
            ["verify", "32767", "32766", "--format", "json"], tmp_path
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["deform_parameter_count"] is True
        assert all(checks.values())

    @pytest.mark.parametrize(
        "argv",
        [["verify", "127", "1"], ["verify", "4095", "4093"]],
        ids=["e-at-the-ceiling", "parameters-at-the-ceiling"],
    )
    def test_verify_at_the_versal_ceilings(self, tmp_path, argv):
        # s = t = 0 is checked on the factor images, so no family is built
        code, out, _, seconds, rss = self.measured(argv + ["--format", "json"], tmp_path)
        assert code == 0
        assert all(json.loads(out)["checks"].values())
        assert seconds < 2 and rss < 50

    def test_deform_hypersurface_at_the_exponent_ceiling(self, tmp_path):
        # the equation is written from its closed form, with no table
        code, out, _, seconds, rss = self.measured(
            ["deform", "32767", "32766", "--format", "json"], tmp_path
        )
        assert code == 0
        family = json.loads(out)["deformation"]
        assert family["dim_t1"] == len(family["parameters"]) == 32766
        assert family["equation"].startswith("-z2^32767 - z2^32765*c32765 - ")
        assert family["equation"].endswith(" - z2^2*c2 + z1*z3 - z2*c1 - c0")
        assert seconds < 5 and rss < 100

    def test_hilb_long_chain_memory(self, tmp_path):
        # 2000 clusters with 2,001,000 column heights in all, about 22.6 MB
        # of JSON: each cluster holds its heights as two runs, rendered as
        # one repeated string per run, with no int or string per height
        # (85 MB peak on CPython 3.11, x86-64 Linux)
        code, out, _, seconds, rss = self.measured(
            ["hilb", "2000", "1999", "--format", "json"], tmp_path
        )
        assert code == 0
        assert len(json.loads(out)["clusters"]) == 2000
        assert seconds < 1 and rss < 106

    def test_mckay_basis_memory(self, tmp_path):
        # 500,500 basis monomials, about 16.9 MB of JSON: the payload holds
        # the staircase's 1000 column heights, and each column is rendered
        # from one shared list of row tails, with no tuple or string per box
        # (49 MB peak on CPython 3.11, x86-64 Linux)
        code, out, _, seconds, rss = self.measured(
            ["mckay", "1000", "1", "--format", "json"], tmp_path
        )
        assert code == 0
        assert len(json.loads(out)["g_basis"]) == 500500
        assert seconds < 1 and rss < 62

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

    def test_toric_and_verify_on_a_fibonacci_pair(self, tmp_path):
        # (F_46, F_44): the chain is [3] * 22 and e = 25, so the fan and the
        # Hilbert basis are read off the two series in O(r + e), with no
        # staircase of n + 1 points; verify then stops at gfan's exponent ceiling
        n, q = "1836311903", "701408733"
        code, out, _, seconds, _ = self.measured(["toric", n, q, "--format", "json"], tmp_path)
        assert code == 0 and seconds < 0.5
        payload = json.loads(out)
        assert payload["self_intersections"] == [3] * 22
        assert len(payload["fan"]["rays"]) == 24 and len(payload["hilbert_basis"]) == 25
        assert all(payload["checks"].values())
        code, out, err, _, _ = self.measured(["verify", n, q, "--format", "json"], tmp_path)
        assert code == 2 and out == ""
        assert err == "error: polyring exponents must lie in 0..32767\n"

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
            (["deform", "1000000007", "1"], "versal ceiling"),
            (["verify", "1000000007", "1"], "versal ceiling"),
            (["verify", "1000000007", "1000000006"], "polyring exponents"),
            (["deform", "1000000007", "1000000006"], "polyring exponents"),
        ],
        ids=[
            "verify-32768-32767",
            "gfan-32768-32767",
            "gfan-1000000007-1000000006",
            "verify-1000-1",
            "deform-1000-1",
            "deform-65533-65531",
            "verify-16001-15999",
            "deform-1000000007-1",
            "verify-1000000007-1",
            "verify-1000000007-1000000006",
            "deform-1000000007-1000000006",
        ],
    )
    def test_over_a_ceiling_exits_2_fast(self, tmp_path, argv, reason):
        code, out, err, seconds, _ = self.measured(argv, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err
        assert seconds < 5


def bump_exponent(binomials):
    (t, e), *rest = binomials[0].right
    return (binomials[0]._replace(right=((t, e + 1), *rest)),) + binomials[1:]


def swap_pairs(binomials):
    first, second = binomials[:2]
    return (first._replace(left=second.left), second._replace(left=first.left)) + binomials[2:]


# mutations of the binomial relations that both checks are given
BINOMIAL_MUTATIONS = {
    "exponent-bumped": bump_exponent,
    "pair-dropped": lambda binomials: binomials[:-1],
    "pairs-swapped": swap_pairs,
}


def swap_images(images):
    (p, f), (q, g) = list(images.items())[:2]
    return {**images, p: g, q: f}


class TestSpecializationCheck:
    """Both checks compare each P_ij at s = t = 0 with the binomial relation
    of its own pair: ``specializes`` on the relations ``deform`` prints,
    ``images_specialize`` (``verify``'s) on the factor images."""

    @staticmethod
    def checked(relations=tuple, binomials=tuple):
        s = Singularity(11, 4)
        pres = deform.versal_presentation(s)
        pres = pres._replace(relations=relations(pres.relations))
        return deform.specializes(pres, binomials(defining_equations(s)))

    @staticmethod
    def images_checked(binomials=tuple):
        s = Singularity(11, 4)
        variables = deform.deformation_variables(s)
        return deform.images_specialize(variables, binomials(defining_equations(s)))

    def test_accepts_the_family(self):
        assert self.checked()
        assert self.images_checked()

    def test_relations_swapped_between_pairs(self):
        assert not self.checked(lambda rels: (rels[1], rels[0]) + rels[2:])

    def test_relation_missing(self):
        assert not self.checked(lambda rels: rels[:-1])

    def test_extra_parameter_free_term(self):
        # z1 survives s = t = 0, so the first relation is no longer binomial
        assert not self.checked(lambda rels: (rels[0] + rels[0].table.var("z1"),) + rels[1:])

    @pytest.mark.parametrize("mutate", BINOMIAL_MUTATIONS.values(), ids=BINOMIAL_MUTATIONS)
    def test_binomials_mutated(self, mutate):
        assert not self.checked(binomials=mutate)
        assert not self.images_checked(mutate)

    @pytest.mark.parametrize("term", [("z1", "z3"), ("z2", "z2")], ids=["z_i-z_j", "p_ij"])
    def test_z_only_coefficient_flipped(self, term):
        # the first relation, z1 w3 - z2 (z2 + s2(1)), with the sign of one of
        # its parameter-free terms flipped
        def flip(rels):
            code = rels[0].table._code
            terms = dict(rels[0]._terms)
            m = code(term[0]) + code(term[1])
            terms[m] = -terms[m]
            return (polyring.Polynomial._raw(rels[0].table, terms),) + rels[1:]

        assert not self.checked(flip)

    @pytest.mark.parametrize("drop", [0, 6, -1])
    def test_pair_dropped(self, drop):
        # a pair dropped with its relation: every relation left is right
        s = Singularity(11, 4)
        pres = deform.versal_presentation(s)
        keep = [k for k in range(len(pres.pairs)) if k != drop % len(pres.pairs)]
        pres = pres._replace(
            pairs=tuple(pres.pairs[k] for k in keep),
            relations=tuple(pres.relations[k] for k in keep),
        )
        assert not deform.specializes(pres, defining_equations(s))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda images: dict(list(images.items())[:-1]),
            lambda images: dict(list(images.items())[1:]),
            swap_images,
            lambda images: {k: {p: -1} if k == (1, 3) else p for k, p in images.items()},
            lambda images: {k: 2 * p if k == (1, 3) else p for k, p in images.items()},
        ],
        ids=["pair-dropped", "first-pair-dropped", "pairs-swapped",
             "coefficient-flipped", "exponents-doubled"],
    )
    def test_images_mutated(self, monkeypatch, mutate):
        real = deform.images_at_zero
        monkeypatch.setattr(deform, "images_at_zero", lambda v: mutate(real(v)))
        assert not self.images_checked()


class TestBatch:
    def test_max_n_over_the_versal_ceiling_exits_2(self, capsys):
        code, out, err = run(capsys, ["batch", "--max-n", "128"])
        assert code == 2
        assert out == ""
        assert err == "error: batch --max-n is limited to 127 by the versal ceiling\n"

    def test_negative_max_n_exits_2(self, capsys):
        assert run(capsys, ["batch", "--max-n", "-3"]) == (
            2, "", "error: batch --max-n must be at least 0\n"
        )

    @pytest.mark.parametrize("max_n", ["0", "1"])
    def test_no_pair_below_2(self, capsys, max_n):
        code, out, _ = run(capsys, ["batch", "--max-n", max_n, "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"max_n": int(max_n), "pairs": 0, "violations": []}

    def test_small_sweep_clean(self, capsys):
        code, out, _ = run(capsys, ["batch", "--max-n", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["pairs"] == len(coprime_pairs(8))


class TestFailingCycleCheck:
    """A generator whose walk does not close fails the ``cycle_lengths``
    check by name: verify exits 3 and batch lists the pair and the check."""

    @pytest.fixture
    def shifted_5_2(self, monkeypatch):
        real = cli.cfrac.ij_series

        def ij_series(s):
            gens = real(s)
            if (s.n, s.q) != (5, 2):
                return gens
            i, j = gens[1]
            return gens[:1] + ((i + 1, j),) + gens[2:]

        monkeypatch.setattr(cli.cfrac, "ij_series", ij_series)

    def test_verify_exits_3(self, capsys, shifted_5_2):
        code, out, err = run(capsys, ["verify", "5", "2", "--format", "json"])
        assert code == 3
        assert out == ""
        prefix = "error: verification failed: "
        assert err.startswith(prefix)
        assert json.loads(err[len(prefix):])["cycle_lengths"] is False

    def test_batch_names_the_pair_and_check(self, capsys, shifted_5_2):
        code, out, err = run(capsys, ["batch", "--max-n", "5", "--format", "json"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        violations = json.loads(err[len("error: "):])["violations"]
        assert {"n": 5, "q": 2, "check": "cycle_lengths"} in violations
        assert {(v["n"], v["q"]) for v in violations} == {(5, 2)}


class TestInvolutiveDuality:
    """On a pair with q^-1 = q (mod n) the ``fraction_duality`` check still
    expands n/q^-1, and so says that the chain is a palindrome."""

    def test_faulted_second_expansion_exits_3(self, capsys, monkeypatch):
        # 3 * 3 = 1 (mod 8): the first expansion of 8/3 is the memoized
        # chain [3, 3], the second is the check's, which the fault lengthens
        real = cli.cfrac.hj_expand
        seen = []

        def faulted(numerator, denominator):
            chain = real(numerator, denominator)
            if (numerator, denominator) == (8, 3):
                seen.append(chain)
                if len(seen) > 1:
                    return chain + (2,)
            return chain

        monkeypatch.setattr(cli.cfrac, "hj_expand", faulted)
        code, out, err = run(capsys, ["verify", "8", "3", "--format", "json"])
        assert (code, out) == (3, "")
        assert seen == [(3, 3), (3, 3)]
        prefix = "error: verification failed: "
        assert err.startswith(prefix)
        checks = json.loads(err[len(prefix):])
        assert [name for name, ok in checks.items() if not ok] == ["fraction_duality"]


def layer_faulted(module, name, value):
    """A layer function that returns ``value`` whatever it is given."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, lambda *args: value)


LAYER_FAULT = "a layer identity failed"


def layer_inconsistent(module, name):
    """A layer function that raises ConsistencyError whatever it is given."""
    def raises(*args):
        raise ConsistencyError(LAYER_FAULT)

    return lambda monkeypatch: monkeypatch.setattr(module, name, raises)


# per pair command: an argv, a fault that makes one of its checks false,
# and the name of that check; resolve (whose one check is the constant
# ``identities``), artin and reconstruct (no checks) print no check that
# can be false, so their fault is a layer's ConsistencyError, named None
FORCED_FALSE_CHECKS = {
    "resolve": (["11", "7"], layer_inconsistent(cli.cfrac, "identities"), None),
    "invariants": (
        ["11", "7"], layer_faulted(cli.invariant_ring, "verify_presentation", False),
        "substitution",
    ),
    "toric": (["11", "7"], layer_faulted(cli.toric, "self_intersections", ()), "round_trip"),
    "mckay": (["11", "7"], layer_faulted(cli.cfrac, "curve_count", 0), "special_count_is_r"),
    "hilb": (
        ["11", "7"], layer_faulted(cli.mckay, "cluster_weight_check", False),
        "regular_representation",
    ),
    "gfan": (["11", "7"], layer_faulted(cli.gfan, "fans_equal", False), "matches_toric"),
    "deform": (["11", "4"], layer_faulted(cli.deform, "specializes", False), "specialization"),
    "artin": (
        ["11", "7"], layer_inconsistent(cli.reconstruct, "quasidet_presentation"), None,
    ),
    "reconstruct": (
        ["11", "7"], layer_inconsistent(cli.reconstruct, "reconstruction_quiver"), None,
    ),
    "verify": (["11", "7"], layer_faulted(cli.mckay, "cluster_weight_check", False), "clusters"),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_false_check_exits_3(capsys, monkeypatch, command, fmt):
    # one rule for every pair command: a false check, or a layer's
    # inconsistency, writes no report
    pair, fault, check = FORCED_FALSE_CHECKS[command]
    fault(monkeypatch)
    code, out, err = run(capsys, [command, *pair, "--format", fmt])
    assert code == 3
    assert out == ""
    if check is None:
        assert err == f"error: {LAYER_FAULT}\n"
        return
    prefix = "error: verification failed: "
    assert err.startswith(prefix)
    checks = json.loads(err[len(prefix):])
    assert checks[check] is False
    assert [name for name, ok in checks.items() if not ok] == [check]


class TestFailingGroupingCheck:
    """Relations grouped apart from the dual expansion: verify fails
    ``reconstruction_groups`` by name and batch lists the pairs (the
    reconstruct report refuses, see ``tests/test_reconstruct.py``)."""

    @pytest.fixture
    def one_group(self, monkeypatch):
        monkeypatch.setattr(reconstruct, "_in_second_group", lambda rel, m: False)

    def test_verify_exits_3(self, capsys, one_group):
        code, out, err = run(capsys, ["verify", "11", "7", "--format", "json"])
        assert code == 3
        assert out == ""
        prefix = "error: verification failed: "
        assert err.startswith(prefix)
        checks = json.loads(err[len(prefix):])
        assert checks["reconstruction_groups"] is False
        # one group of 7 parameters has a 6-dimensional base, not 5
        assert checks["reconstruction_base"] is False

    def test_batch_names_the_pairs(self, capsys, one_group):
        code, out, err = run(capsys, ["batch", "--max-n", "8", "--format", "json"])
        assert code == 3
        assert out == ""
        violations = json.loads(err[len("error: "):])["violations"]
        assert {"n": 5, "q": 3, "check": "reconstruction_groups"} in violations
        # an all-2 chain has one group anyway
        assert {"n": 8, "q": 7, "check": "reconstruction_groups"} not in violations


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

    @pytest.mark.parametrize(
        "argv",
        [["hilb", "2000", "1999", "--format", "json"], ["verify", "4", "2"], ["batch"]],
        ids=["hilb", "bad-pair", "batch"],
    )
    def test_missing_directory_exits_2_before_any_layer(self, capsys, monkeypatch, tmp_path, argv):
        # refused right after the parse: no pair is made, no report built
        def refuse(*args):
            raise AssertionError("a report was started")

        monkeypatch.setattr(cli, "Singularity", refuse)
        monkeypatch.setitem(cli.COMMANDS, "hilb", refuse)
        monkeypatch.setattr(cli, "run_batch", refuse)
        target = tmp_path / "missing" / "report.json"
        assert run(capsys, [*argv, "--output", str(target)]) == (
            2, "", f"error: cannot write {target}: No such file or directory\n"
        )

    def test_other_open_failures_come_after_the_report(self, capsys, monkeypatch, tmp_path):
        # a directory that exists but cannot hold the file is found on open
        built = []
        real = cli.COMMANDS["resolve"]
        monkeypatch.setitem(cli.COMMANDS, "resolve", lambda s: built.append(s) or real(s))
        blocker = tmp_path / "file"
        blocker.write_text("")
        for target in (blocker / "report.json", tmp_path):
            assert run(capsys, ["resolve", "11", "7", "--output", str(target)])[0] == 2
        assert len(built) == 2

    @pytest.mark.parametrize("argv", [["--output", ""], ["--output="]])
    def test_empty_path_exits_2(self, capsys, argv):
        code, out, err = run(capsys, ["resolve", "11", "7", *argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")


class TestStdoutFailures:
    """A report that cannot be written to stdout exits 2 with one error
    line, as an unwritable --output path does, and no traceback. Each case
    runs with stdout buffered, where a small report stays in the buffer
    after the failed write and is flushed again at exit, and unbuffered
    (PYTHONUNBUFFERED), whatever the calling environment sets."""

    ARGVS = [["resolve", "5", "3"], ["mckay", "1000", "1", "--format", "json"], ["--help"]]
    IDS = ["small", "large", "help"]

    @staticmethod
    def exit_and_stderr(argv, stdout, buffered):
        src = Path(cqsing.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "cqsing", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
        return proc.returncode, proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ARGVS, ids=IDS)
    def test_full_device_exits_2(self, argv, buffered):
        with open("/dev/full", "w") as full:
            assert self.exit_and_stderr(argv, full, buffered) == (
                2, "error: cannot write stdout: No space left on device\n"
            )

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ARGVS, ids=IDS)
    def test_closed_pipe_exits_2(self, argv, buffered):
        # the reader is gone before the report is written
        read, write = os.pipe()
        os.close(read)
        try:
            assert self.exit_and_stderr(argv, write, buffered) == (
                2, "error: cannot write stdout: Broken pipe\n"
            )
        finally:
            os.close(write)


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


# The gate also holds the MALFORMED argvs, the other SPELLINGS and a help
# request, added to it after the 426 above.
GATE_FORMS = [*MALFORMED, *map(str.split, SPELLINGS), ["-h"]]


def test_output_gate():
    want = json.loads(GATE.read_text())
    got = {" ".join(argv): gate_entry(argv) for argv in chain(gate_argvs(), GATE_FORMS)}
    assert len(got) == 426 + 21
    assert sorted(k for k in got if got[k] != want.get(k)) == []


DIGESTS = Path(__file__).parents[1] / "perfbench" / "digests.json"


def test_benchmark_digests():
    # every argv of the benchmark's workloads that has a reference output,
    # with the sha256 of its JSON stdout (perfbench/record_digests.py)
    want = json.loads(DIGESTS.read_text())
    got = {key: replay(key, digest) for key, digest in want.items()}
    assert len(got) == 676
    assert sorted(k for k in want if got[k] != want[k]) == []


def test_no_column_rendered_value_by_value(monkeypatch):
    # on every benchmark argv and every JSON argv of the gate, each column
    # that _texts gets has one kind: it hands no value to _text one by one
    text, handed = cli._text, []

    def spy(value, indent):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "<listcomp>":  # a frame of its own before 3.12
            caller = caller.f_back
        if caller.f_code is cli._texts.__code__:
            handed.append(value)
        return text(value, indent)

    monkeypatch.setattr(cli, "_text", spy)
    argvs = [key.split() + ["--format", "json"] for key in json.loads(DIGESTS.read_text())]
    argvs += [argv for argv in gate_argvs() if "json" in argv]
    assert len(argvs) == 676 + 143
    by_value = []
    for argv in argvs:
        gate_entry(argv)
        if handed:
            by_value.append(" ".join(argv))
            handed.clear()
    assert by_value == []


def other_pythons():
    """One interpreter for each CPython 3.N, N >= 10, other than the running
    one: the first python3.N that starts, along PATH and then in pyenv's
    installed versions (pyenv's shims on PATH start only the selected
    ones)."""
    dirs = os.get_exec_path()
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        dirs += sorted(glob.glob(os.path.join(root, "versions", "*", "bin")))
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2])"
    found = {str(sys.version_info[1]): None}  # the running one is not replayed
    for d in dirs:
        for exe in sorted(glob.glob(os.path.join(d, "python3.*"))):
            minor = os.path.basename(exe)[len("python3."):]
            if not minor.isdigit() or int(minor) < 10 or minor in found:
                continue
            done = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
            if done.returncode == 0 and done.stdout.split() == ["CPython", "3", minor]:
                found[minor] = exe
    return [exe for _, exe in sorted(found.items(), key=lambda item: int(item[0])) if exe]


def replay_in_other_pythons(record: Path, count: int):
    # requires-python = ">=3.10": the record's argvs give the same bytes in
    # every other CPython found, replayed by a stdlib-only script since
    # pytest may be installed for this interpreter only
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 found")
    env = dict(os.environ, PYTHONPATH=str(Path(cqsing.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    script = Path(__file__).with_name("gate_replay.py")
    for exe in pythons:
        done = subprocess.run([exe, str(script), str(record)], capture_output=True,
                              text=True, env=env, timeout=600)
        assert done.returncode == 0, (exe, done.stderr)
        assert json.loads(done.stdout) == {"replayed": count, "differ": []}, exe


def test_output_gate_in_other_pythons():
    replay_in_other_pythons(GATE, 426 + 21)


def test_benchmark_digests_in_other_pythons():
    # the gate's pairs stop at n = 30; the digests hold the lattice reports
    # of n = 60-100, whose long equal-length rows render by position
    replay_in_other_pythons(DIGESTS, 676)


if __name__ == "__main__":
    record = {" ".join(argv): gate_entry(argv) for argv in chain(gate_argvs(), GATE_FORMS)}
    GATE.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
