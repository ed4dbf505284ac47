"""The outside checker (``report_check.py``) over every report of every
coprime pair with n <= 30, and two mutations of the printed bytes that it
must reject."""

import json
import random
import time

from conftest import coprime_pairs
from report_check import CHECKS, check, report

PAIRS = coprime_pairs(30)


def mutated(text: bytes, change) -> bytes:
    """``text`` with ``change`` applied to its payload, rendered as the CLI
    renders a report."""
    payload = json.loads(text)
    change(payload)
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def test_every_report_with_n_up_to_30_holds():
    assert len(PAIRS) == 277
    start = time.perf_counter()
    failed = {
        (command, n, q): claims
        for n, q in PAIRS
        for command in CHECKS
        if (claims := check(command, report(command, n, q)))
    }
    elapsed = time.perf_counter() - start
    assert failed == {}
    assert elapsed < 1.0, f"{len(PAIRS) * len(CHECKS)} reports took {elapsed:.2f}s"


def test_a_relation_exponent_raised_by_one_fails():
    rng = random.Random(1)

    def raise_one(payload):
        factors = rng.choice(payload["equations"])["right"]
        rng.choice(factors)[1] += 1

    for n, q in PAIRS:
        text = mutated(report("invariants", n, q), raise_one)
        assert "each relation balances on exponents" in check("invariants", text), (n, q)


def test_a_g_basis_box_dropped_or_a_column_raised_fails():
    rng = random.Random(2)

    def drop_one(payload):
        payload["g_basis"].pop(rng.randrange(len(payload["g_basis"])))

    def raise_one(payload):
        basis = payload["g_basis"]
        a = rng.randrange(basis[-1][0] + 1)
        top = max(b for c, b in basis if c == a)
        basis.insert(basis.index([a, top]) + 1, [a, top + 1])

    claim = "g_basis is the boxes under the invariant staircase"
    for n, q in PAIRS:
        text = report("mckay", n, q)
        for change in (drop_one, raise_one):
            assert claim in check("mckay", mutated(text, change)), (n, q, change.__name__)


def test_reversed_self_intersections_fail():
    def reverse(payload):
        payload["self_intersections"].reverse()

    rejected, palindromes = set(), set()
    for n, q in PAIRS:
        text = report("toric", n, q)
        chain = json.loads(text)["self_intersections"]
        if chain == chain[::-1]:
            palindromes.add((n, q))
        if check("toric", mutated(text, reverse)):
            rejected.add((n, q))
    # a palindrome is its own reverse; every other chain is caught
    assert rejected == set(PAIRS) - palindromes
    assert len(rejected) == 198
