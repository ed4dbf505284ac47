"""The outside checker (``report_check.py``) over every report of every
coprime pair with n <= 30, and mutations of the printed bytes that it must
reject."""

import json
import random
import time

from conftest import coprime_pairs
from report_check import CHECKS, check, monomial, report, row

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


def test_a_lead_exponent_raised_by_one_fails():
    # one more x moves a residue by 1, one more y by q: neither is 0 mod n
    rng = random.Random(3)

    def raise_one(payload):
        basis = rng.choice(payload["cones"])["basis"]
        k = rng.randrange(len(basis))
        (a, b), tail = row(basis[k])
        lead = (a + 1, b) if rng.random() < 0.5 else (a, b + 1)
        basis[k] = f"{monomial(*lead)} - {monomial(*tail)}"

    for n, q in PAIRS:
        text = mutated(report("gfan", n, q), raise_one)
        assert "each row's two terms have one residue mod n" in check("gfan", text), (n, q)


def test_adjacent_cones_with_swapped_rays_fail():
    # the upper ray of cone k + 1 lies outside cone k
    rng = random.Random(4)

    def swap(payload):
        cones = payload["cones"]
        k = rng.randrange(len(cones) - 1)
        cones[k]["rays"], cones[k + 1]["rays"] = cones[k + 1]["rays"], cones[k]["rays"]

    for n, q in PAIRS:
        text = mutated(report("gfan", n, q), swap)
        assert "each ray lies on its cone's boundary" in check("gfan", text), (n, q)
