"""Seeded argv lists for the benchmark workloads.

A workload is a sequence of passes.  Each pass is a list of argv lists (the
CLI arguments without ``--format json``) drawn from the workload's seeded
random stream; a run executes whole passes until its time is up.  The
program sees only the generated pairs.

Every pass has the same shape: the same number of requests of each input
shape, and no argv twice.  The heaviest shapes use the same pairs in every pass and the
lighter ones are drawn from classes of similar cost, so the work of a pass
is nearly the same from seed to seed while many of the pairs change.
``universe`` lists every argv a pass can hold, so the recorded digests
cover every seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd

NAMES = ("verify_sweep", "groebner_fan", "versal_deform", "lattice_reports")

# Enough passes for several times the seed-commit run length; a faster
# program wraps round to the first pass again.
PASSES = 40

LATTICE_COMMANDS = ("resolve", "toric", "mckay", "hilb", "artin", "reconstruct")


def _coprime(n, lo, hi):
    return [q for q in range(lo, hi + 1) if gcd(n, q) == 1]


def _argv(command, n, q):
    return [command, str(n), str(q)]


def _verify_pairs():
    # the `batch` range: every coprime pair with n <= 20
    return [(n, q) for n in range(2, 21) for q in _coprime(n, 1, n - 1)]


def _verify_pass(rng):
    pairs = _verify_pairs()
    rng.shuffle(pairs)
    return [_argv("verify", n, q) for n, q in pairs]


def _verify_universe():
    return [_argv("verify", n, q) for n, q in _verify_pairs()]


def _hj_length(n, q):
    """Length of the all-minus continued fraction of n/q."""
    length = 0
    while q:
        n, q = q, -(-n // q) * q - n
        length += 1
    return length


# groebner_fan shapes.  Long chains q = n-1 have n cones; wide ideals q = 1
# have e = n+1 generators.  Both sit on a fixed n grid, plus the large cases
# gfan 40 1, 40 39 and 50 49; every pass holds the same heavy requests.  The
# grid is dense where the 90th percentile falls (the ninth-heaviest of 82
# requests): gfan 31 30, 32 31, 33 32, 25 1, 26 1 and 27 1 all cost within
# about 20% of each other, so the percentile does not jump between two
# requests of very different cost when noise reorders them.  The uniform
# shape draws, for every n in [20, 50], two distinct q (n = 40 has only one)
# among the pairs with few cones (r <= 5) and few generators (e <= 8), whose
# Groebner fans cost about the same at equal n.
_CHAINS = (20, 22, 24, 26, 28, 30, 31, 32, 33, 34, 40, 50)
_WIDE = (20, 22, 24, 25, 26, 27, 28, 30, 40)
_UNIFORM_PER_N = 2


@lru_cache(maxsize=None)
def _few_cones(n):
    return tuple(
        q
        for q in _coprime(n, 2, n - 2)
        if _hj_length(n, q) <= 5 and _hj_length(n, n - q) + 2 <= 8
    )


def _gfan_pass(rng):
    pairs = [(n, n - 1) for n in _CHAINS] + [(n, 1) for n in _WIDE]
    for n in range(20, 51):
        few = _few_cones(n)
        pairs += [(n, q) for q in rng.sample(few, min(_UNIFORM_PER_N, len(few)))]
    rng.shuffle(pairs)
    return [_argv("gfan", n, q) for n, q in pairs]


def _gfan_universe():
    pairs = {(n, n - 1) for n in _CHAINS} | {(n, 1) for n in _WIDE}
    pairs |= {(n, q) for n in range(20, 51) for q in _few_cones(n)}
    return [_argv("gfan", n, q) for n, q in sorted(pairs)]


# versal_deform shapes.  Small q gives a large embedding dimension (about
# n/q + 2).  The heaviest, q = 1 and q = 2, sit on a fixed n grid; q = 3, 4,
# 5 and the e = 3 pairs q = n-1 (the hypersurface path) are drawn per pass.
_DEFORM_GRID = ((1, (18, 20, 22, 24, 26, 28)), (2, (21, 25, 29, 33, 37, 41)))
_DEFORM_DRAWN = ((3, 4), (4, 4), (5, 4))
_DEFORM_N = (20, 41)
_HYPERSURFACE_N = (20, 45)
_HYPERSURFACE_COUNT = 8


def _deform_pass(rng):
    pairs = [(n, q) for q, grid in _DEFORM_GRID for n in grid]
    lo, hi = _DEFORM_N
    for q, count in _DEFORM_DRAWN:
        ns = [n for n in range(lo, hi + 1) if gcd(n, q) == 1]
        pairs += [(n, q) for n in rng.sample(ns, count)]
    lo, hi = _HYPERSURFACE_N
    pairs += [(n, n - 1) for n in rng.sample(range(lo, hi + 1), _HYPERSURFACE_COUNT)]
    rng.shuffle(pairs)
    return [_argv(c, n, q) for n, q in pairs for c in ("deform", "invariants")]


def _deform_universe():
    pairs = {(n, q) for q, grid in _DEFORM_GRID for n in grid}
    lo, hi = _DEFORM_N
    pairs |= {(n, q) for q, _ in _DEFORM_DRAWN for n in range(lo, hi + 1) if gcd(n, q) == 1}
    lo, hi = _HYPERSURFACE_N
    pairs |= {(n, n - 1) for n in range(lo, hi + 1)}
    return [_argv(c, n, q) for n, q in sorted(pairs) for c in ("deform", "invariants")]


def _lattice_pool():
    """A fixed pair set: q = 1, q = n-1 and one interior q at every fourth n
    from 60 to 100.  The cluster search cost of an interior pair ranges over
    three orders of magnitude with q, so a pass of seed-drawn interior pairs
    would take a different time for every seed; the pool is drawn once, from
    a constant stream, and the seed only orders it."""
    pool_rng = random.Random("lattice_reports/pool")
    pairs = []
    for n in range(60, 101, 4):
        pairs += [(n, 1), (n, n - 1), (n, pool_rng.choice(_coprime(n, 2, n - 2)))]
    return pairs


def _lattice_pass(rng):
    pairs = _lattice_pool()
    rng.shuffle(pairs)
    return [_argv(c, n, q) for n, q in pairs for c in LATTICE_COMMANDS]


def _lattice_universe():
    return [_argv(c, n, q) for n, q in sorted(_lattice_pool()) for c in LATTICE_COMMANDS]


_PASS = {
    "verify_sweep": _verify_pass,
    "groebner_fan": _gfan_pass,
    "versal_deform": _deform_pass,
    "lattice_reports": _lattice_pass,
}

_UNIVERSE = {
    "verify_sweep": _verify_universe,
    "groebner_fan": _gfan_universe,
    "versal_deform": _deform_universe,
    "lattice_reports": _lattice_universe,
}


def passes(workload: str, seed: int, count: int = PASSES) -> list[list[list[str]]]:
    """The first `count` passes of a workload; the same seed gives the same passes."""
    rng = random.Random(f"{workload}/{seed}")
    draw = _PASS[workload]
    return [draw(rng) for _ in range(count)]


def universe(workload: str) -> list[list[str]]:
    """Every argv a pass of this workload can contain, for any seed."""
    return _UNIVERSE[workload]()
