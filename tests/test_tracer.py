"""The benchmark's span tracer (``perfbench/tracer.py``) over the package: a
traced run prints what an untraced one does, and ``restore`` undoes every
patch."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

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
