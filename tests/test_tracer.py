"""The benchmark's span tracer (``perfbench/tracer.py``) over the package: a
traced run prints what an untraced one does, ``restore`` undoes every
patch, and the spans bound how often a request derives the expansions: each
memoized derivation runs at most once per request, and afresh in the next."""

import collections
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from cqsing import cli, polyring

from conftest import MEMOIZED

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ARGV = ["deform", "11", "4", "--format", "json"]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every cqsing module and of Polynomial."""
    out = {}
    for key, module in sorted(sys.modules.items()):
        if module is not None and (key == "cqsing" or key.startswith("cqsing.")):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
    for attr, value in vars(polyring.Polynomial).items():
        out[("Polynomial", attr)] = value
    return out


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_traced_deform_prints_the_same_and_restores_every_binding():
    plain = stdout_of(ARGV)
    before = bindings()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = {k for k, v in bindings().items() if v is not before.get(k)}
        traced = stdout_of(ARGV)
    finally:
        tracer.restore()
    after = bindings()
    assert plain[0] == 0
    assert traced == plain
    assert ("cqsing.deform", "versal_presentation") in patched
    assert ("Polynomial", "substitute") in patched
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {row[3] for row in tracer.spans()}
    assert {"cli.main", "deform.versal_presentation", "deform.specializes"} <= names


def traced_request(argv):
    """Run argv once under the tracer; its span counts, and the calls of
    each memoized derivation's undecorated function (read through
    ``__wrapped__``), counted by a profile hook on their code objects since
    the tracer's spans count memo hits too."""
    codes = {fn.__wrapped__.__code__: fn.__name__ for fn in MEMOIZED}
    derived = collections.Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            derived[codes[frame.f_code]] += 1

    tracer = load_tracer().Tracer()
    tracer.install()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        code, _ = stdout_of(argv + ["--format", "json"])
    finally:
        sys.setprofile(previous)
        tracer.restore()
    assert code == 0
    return collections.Counter(row[3] for row in tracer.spans()), derived


@pytest.mark.parametrize(
    "argv, most_hj_expand, identities, versal_presentation",
    [
        (["resolve", "11", "7"], 2, 1, 0),
        (["deform", "11", "4"], 1, 0, 1),
        # the two chains and the q^-1 duality check
        (["verify", "11", "7"], 3, 1, 0),
    ],
    ids=["resolve-11-7", "deform-11-4", "verify-11-7"],
)
def test_derivations_per_request(argv, most_hj_expand, identities, versal_presentation):
    counts, derived = traced_request(argv)
    assert counts["cfrac.hj_expand"] <= most_hj_expand
    assert counts["cfrac.identities"] == identities
    assert counts["deform.versal_presentation"] == versal_presentation
    assert derived and max(derived.values()) == 1, derived


def test_nothing_carries_across_requests():
    # the memo lives on the request's own Singularity: a second request on
    # the same pair derives everything again
    first = traced_request(["verify", "11", "7"])
    second = traced_request(["verify", "11", "7"])
    assert first[0]["cfrac.hj_expand"] == second[0]["cfrac.hj_expand"] == 3
    assert first[1] == second[1]
    assert set(second[1]) == {fn.__name__ for fn in MEMOIZED}


@pytest.mark.parametrize("pair", [(11, 7), (11, 4), (13, 5), (20, 1), (20, 19), (29, 8)])
def test_no_polynomial_arithmetic_at_run_time(pair):
    # of the polyring layer a request calls only the renderer, through
    # deform's reports, which on an e = 3 pair (q = n - 1) write their
    # equation in closed form; gfan's rows never reach it
    tracer = load_tracer().Tracer()
    tracer.install()
    codes = {}
    try:
        for command in cli.COMMANDS:
            argv = [command, *map(str, pair), "--format", "json"]
            codes[command] = stdout_of(argv)[0]
    finally:
        tracer.restore()
    # artin on a one-entry dual and reconstruct at r = 1 are unsupported
    assert set(codes.values()) <= {0, 4}, codes
    names = {row[3] for row in tracer.spans()}
    assert "cli.main" in names
    expected = set() if pair[1] == pair[0] - 1 else {"polyring.poly_text"}
    assert {name for name in names if name.startswith("polyring.")} == expected


@pytest.mark.parametrize("command", ["gfan", "verify"])
@pytest.mark.parametrize("pair", [(11, 7), (20, 1), (20, 19), (29, 8)])
def test_groebner_fan_enters_no_polyring_function(command, pair):
    # the cones are certified and printed from their exponent rows: no span
    # of the polyring layer, and no code of it runs but, in verify, the
    # variable table of deform's family (of the table and a variable's code)
    counts, _ = traced_request([command, *map(str, pair)])
    assert counts["gfan.groebner_fan"] == 1
    assert not [name for name in counts if name.startswith("polyring.")]
    entered = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == polyring.__file__:
            entered.add(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        code, _ = stdout_of([command, *map(str, pair), "--format", "json"])
    finally:
        sys.setprofile(previous)
    assert code == 0
    assert {name.split(".")[0] for name in entered} <= {"VariableTable"}
    if command == "gfan":
        assert not entered
