"""cqsing's records are NamedTuples: immutable, validated on construction
and on ``_replace``, and built without importing ``dataclasses`` (or the
``inspect`` it pulls in).  The per-pair memo on a ``Singularity`` holds only
immutable values and starts empty on every new instance."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

import cqsing
from cqsing import cfrac
from cqsing.cfrac import Singularity
from cqsing.cli import main, verify_checks
from cqsing.errors import InputError, UnsupportedError
from cqsing.mckay import g_clusters
from cqsing.polyring import Polynomial, VariableTable, WeightedOrder
from cqsing.reconstruct import Arrow
from cqsing.toric import Fan2D, resolution_fan

from conftest import MEMOIZED


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor the test-only sympy and hypothesis: the package is stdlib-only;
    # nor argparse and the gettext it pulls in: the CLI parses its own grammar
    src = Path(cqsing.__file__).resolve().parent.parent
    banned = "{'dataclasses', 'inspect', 'sympy', 'hypothesis', 'argparse', 'gettext'}"
    code = f"import sys, cqsing.cli; print(sorted({banned} & set(sys.modules)))"
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
    with pytest.raises(AttributeError):  # nor can an attribute be added
        record.extra = 1


def _unsorted_fan():
    return Fan2D(rays=((0, 2), (2, 0)), den=2)


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


def derived(s):
    """``s`` after verify's checks and every memoized derivation that
    applies to it (r = 1 has no reconstruction quiver, e = 3 no versal
    relations)."""
    verify_checks(s)
    for derive in MEMOIZED:
        try:
            derive(s)
        except (InputError, UnsupportedError):
            pass
    return s


def mutable_parts(value):
    """The lists, sets and dicts reachable through tuples (records
    included), frozensets and read-only mappings."""
    if isinstance(value, (list, set, dict)):
        return [value]
    if isinstance(value, MappingProxyType):
        value = tuple(value.items())
    if isinstance(value, (tuple, frozenset)):
        return [part for item in value for part in mutable_parts(item)]
    assert value is None or isinstance(value, (int, str, Polynomial, VariableTable)), value
    return []


@pytest.mark.parametrize("n, q", [(11, 7), (13, 1), (12, 11)])
def test_memoized_values_are_immutable(n, q):
    memo = vars(derived(Singularity(n, q)))
    assert set(memo) <= {derive.__wrapped__ for derive in MEMOIZED}
    assert len(memo) >= len(MEMOIZED) - 1
    for key, value in memo.items():
        assert isinstance(value, (int, tuple, frozenset, MappingProxyType)), key
        assert mutable_parts(value) == [], key


def test_memo_is_per_instance():
    s = derived(Singularity(11, 7))
    assert vars(s)
    for fresh in (s._replace(), s._replace(q=4), copy.copy(s), copy.deepcopy(s),
                  pickle.loads(pickle.dumps(s)), Singularity(11, 7)):
        assert vars(fresh) == {}
    assert s._replace() == s and hash(s._replace()) == hash(s)
    assert cfrac.fraction(s._replace(q=4)) == (3, 4)


def test_memo_is_written_only_by_derivations():
    s = derived(Singularity(11, 7))
    before = dict(vars(s))
    for name in ("n", "extra", "__dict__", "fraction"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert vars(s) == before
