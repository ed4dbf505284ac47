"""Hirzebruch-Jung continued fractions and the arithmetic they control.

Everything downstream (invariant generators, fans, deformation data) is
driven by the two expansions of a coprime pair 0 < q < n:

* ``hj_expand(n, q)``     -> [b_1, ..., b_r], the self-intersection chain,
* ``hj_expand(n, n - q)`` -> [a_2, ..., a_{e-1}], the "dual" expansion whose
  length fixes the embedding dimension e = (number of minimal invariant
  generators).

The expansion is the all-minus one, b_1 - 1/(b_2 - 1/(...)), with every
entry >= 2 (a single entry [n] for denominator 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import ConsistencyError, InputError


class Singularity(NamedTuple("Singularity", [("n", int), ("q", int)])):
    """The plane quotient by the order-n diagonal action with weights (1, q)."""

    __slots__ = ()

    def __new__(cls, n: int, q: int):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, q)):
            raise InputError("n and q must be integers")
        if not 0 < q < n:
            raise InputError(f"need 0 < q < n, got (n, q) = ({n}, {q})")
        if gcd(n, q) != 1:
            raise InputError(f"n and q must be coprime, got ({n}, {q})")
        return super().__new__(cls, n, q)

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))


class ExponentSeries(NamedTuple):
    """Paired exponent sequences (i_t, j_t); i strictly decreasing n -> 0,
    j strictly increasing 0 -> n."""

    i_values: tuple[int, ...]
    j_values: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.i_values, self.j_values))


class Identities(NamedTuple):
    """Cross-identities of the two expansions: e = 3 + sum(b_j - 2) and
    sum(b_j - 1) = sum(a_i - 1), with the expansions they were read off."""

    e: int
    sum_b: int
    sum_a: int
    fraction: tuple[int, ...]  # hj_expand(n, q)
    dual: tuple[int, ...]  # dual_expand(s)


class TWitness(NamedTuple):
    """Witness (d, m, a) with n = d*m^2, q = d*m*a - 1, gcd(a, m) = 1."""

    d: int
    m: int
    a: int


def hj_expand(numerator: int, denominator: int) -> tuple[int, ...]:
    """All-minus continued-fraction expansion of numerator/denominator.

    Every entry is >= 2; denominator 1 gives the single entry [numerator].
    """
    if denominator < 1 or numerator <= denominator:
        raise InputError(
            f"need numerator > denominator >= 1, got {numerator}/{denominator}"
        )
    if gcd(numerator, denominator) != 1:
        raise InputError(f"{numerator}/{denominator} is not in lowest terms")
    entries = []
    p, q = numerator, denominator
    while q:
        b = -(-p // q)  # ceiling
        entries.append(b)
        p, q = q, b * q - p
    return tuple(entries)


def hj_evaluate(entries) -> Fraction:
    """Evaluate [b_1, ..., b_r] as b_1 - 1/(b_2 - 1/(...)), exactly."""
    entries = tuple(entries)
    if not entries:
        raise InputError("empty continued fraction")
    value = Fraction(entries[-1])
    for b in reversed(entries[:-1]):
        if value == 0:
            raise InputError("continued fraction hits a zero tail")
        value = b - 1 / value
    return value


def dual_expand(s: Singularity) -> tuple[int, ...]:
    """The expansion [a_2, ..., a_{e-1}] of n/(n-q)."""
    return hj_expand(s.n, s.n - s.q)


def curve_count(s: Singularity) -> int:
    """Number r of exceptional curves in the minimal resolution."""
    return len(hj_expand(s.n, s.q))


def _series(s: Singularity, second: int, entries) -> ExponentSeries:
    """The pairs seeded (n, 0), (second, 1) and continued by the recursion
    v_t = c_t*v_{t-1} - v_{t-2} over ``entries``; it must end at (0, n)."""
    i_vals = [s.n, second]
    j_vals = [0, 1]
    for c in entries:
        i_vals.append(c * i_vals[-1] - i_vals[-2])
        j_vals.append(c * j_vals[-1] - j_vals[-2])
    if i_vals[-1] != 0 or j_vals[-1] != s.n:
        raise ConsistencyError(f"series for {s} does not end at (0, n)")
    return ExponentSeries(tuple(i_vals), tuple(j_vals))


def ij_series(s: Singularity) -> ExponentSeries:
    """Exponent pairs of the minimal invariant monomial generators.

    The series has e pairs, runs (n,0) down to (0,n), and obeys the
    recursion i_t = a_t*i_{t-1} - i_{t-2} with the dual expansion entries.
    """
    return _series(s, s.n - s.q, dual_expand(s))


def unrefined_series(s: Singularity) -> ExponentSeries:
    """The coarser r+2 pair series driven by hj_expand(n, q) directly.

    Starts (n,0), (q,1) and need not give minimal generators; only the
    endpoints agree with ij_series.
    """
    return _series(s, s.q, hj_expand(s.n, s.q))


def identities(s: Singularity) -> Identities:
    """Check and return the numerical identities tying the two expansions,
    each expanded once."""
    b = hj_expand(s.n, s.q)
    a = dual_expand(s)
    e = 3 + sum(bj - 2 for bj in b)
    if e != len(a) + 2:
        raise ConsistencyError(f"embedding dimension mismatch for {s}")
    sum_b = sum(bj - 1 for bj in b)
    sum_a = sum(ai - 1 for ai in a)
    if sum_b != sum_a:
        raise ConsistencyError(f"digit-sum identity fails for {s}")
    return Identities(e=e, sum_b=sum_b, sum_a=sum_a, fraction=b, dual=a)


def embedding_dimension(s: Singularity) -> int:
    return len(dual_expand(s)) + 2


def is_t_singularity(s: Singularity) -> TWitness | None:
    """Witness that (n, q) has the shape (d*m^2, d*m*a - 1), else None.

    These are exactly the quotients admitting a Q-Gorenstein smoothing;
    the chain-of-(-2)-curves case q = n - 1 always has the witness m = 1.
    A witness has gcd(n, q + 1) = d*m*gcd(m, a) = d*m, so it is unique and
    read off g = gcd(n, q + 1): m = n // g, and it exists iff m divides g.
    """
    g = gcd(s.n, s.q + 1)
    m = s.n // g
    if g % m:
        return None
    return TWitness(d=g // m, m=m, a=(s.q + 1) // g)


def are_isomorphic(s1: Singularity, s2: Singularity) -> bool:
    """True iff the two quotients are isomorphic: equal n and q1 = q2 or
    q1*q2 = 1 (mod n)."""
    if s1.n != s2.n:
        return False
    return s1.q == s2.q or (s1.q * s2.q) % s1.n == 1
