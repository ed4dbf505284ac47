"""cqsing's records are NamedTuples: immutable, validated on construction
and on ``_replace``, and built without importing ``dataclasses`` (or the
``inspect`` it pulls in)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqsing
from cqsing.cfrac import Singularity
from cqsing.cli import main
from cqsing.errors import InputError
from cqsing.mckay import g_clusters
from cqsing.polyring import WeightedOrder
from cqsing.reconstruct import Arrow
from cqsing.toric import Fan2D, RationalRay, resolution_fan


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = Path(cqsing.__file__).resolve().parent.parent
    code = "import sys, cqsing.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "record",
    [Singularity(11, 7), g_clusters(Singularity(11, 7))[1], Arrow("k", 2, 1, 1),
     WeightedOrder((3, 1))],
    ids=["Singularity", "GCluster", "Arrow", "WeightedOrder"],
)
def test_fields_cannot_be_set(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):  # no instance dict either
        record.extra = 1


def _unsorted_fan():
    return Fan2D(rays=(RationalRay((0, 2)), RationalRay((2, 0))), den=2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Singularity(True, 1), "n and q must be integers"),
        (lambda: Singularity(5, 2.0), "n and q must be integers"),
        (lambda: Singularity(4, 2), "n and q must be coprime, got (4, 2)"),
        (lambda: Singularity(5, 5), "need 0 < q < n, got (n, q) = (5, 5)"),
        (lambda: WeightedOrder((-1, 0)), "weights must be nonnegative"),
        (_unsorted_fan, "fan rays must be strictly sorted by angle"),
        # _replace validates as the constructor does
        (lambda: Singularity(11, 7)._replace(q=False), "n and q must be integers"),
        (lambda: WeightedOrder((3, 1))._replace(weights=(1, -1)),
         "weights must be nonnegative"),
        (lambda: resolution_fan(Singularity(11, 7))._replace(
            rays=_unsorted_fan().rays), "fan rays must be strictly sorted by angle"),
    ],
    ids=["bool", "float", "not-coprime", "q-out-of-range", "negative-weight",
         "unsorted-fan", "replace-singularity", "replace-order", "replace-fan"],
)
def test_validators_keep_their_messages(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_refused_pair_exits_2(capsys):
    assert main(["resolve", "4", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n and q must be coprime, got (4, 2)\n"
