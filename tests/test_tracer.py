"""The benchmark's span tracer (``perfbench/tracer.py``) over the package: a
traced run prints what an untraced one does, ``restore`` undoes every
patch, and the spans bound how often a request derives the expansions."""

import collections
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from cqsing import cli, polyring

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


@pytest.mark.parametrize(
    "argv, most_hj_expand, identities",
    [
        (["resolve", "11", "7"], 2, 1),
        (["deform", "11", "4"], 6, 0),
        (["verify", "11", "7"], 20, 1),
    ],
    ids=["resolve-11-7", "deform-11-4", "verify-11-7"],
)
def test_derivations_per_request(argv, most_hj_expand, identities):
    # the counts include the expansions that cfrac's helpers make internally
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code, _ = stdout_of(argv + ["--format", "json"])
    finally:
        tracer.restore()
    assert code == 0
    counts = collections.Counter(row[3] for row in tracer.spans())
    assert counts["cfrac.hj_expand"] <= most_hj_expand
    assert counts["cfrac.identities"] == identities
