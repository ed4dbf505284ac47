"""Hirzebruch-Jung continued fractions and the arithmetic they control.

Everything downstream (invariant generators, fans, deformation data) is
driven by the two expansions of a coprime pair 0 < q < n:

* ``hj_expand(n, q)``     -> [b_1, ..., b_r], the self-intersection chain,
* ``hj_expand(n, n - q)`` -> [a_2, ..., a_{e-1}], the "dual" expansion whose
  length fixes the embedding dimension e = (number of minimal invariant
  generators).

The expansion is the all-minus one, b_1 - 1/(b_2 - 1/(...)), with every
entry >= 2 (a single entry [n] for denominator 1).

Each expansion drives one tuple of lattice points (i_t, j_t) from (n, 0)
to (0, n): ``ij_series`` (e points) is the invariant generators and the
dual cone's Hilbert basis, ``unrefined_series`` (r + 2 points) the
resolution fan's rays, swapped, and the corners of the G-clusters.

Each derivation from one pair is memoized on its ``Singularity`` by
``per_pair``: the CLI builds one instance per request (and ``batch`` one per
pair), so a derivation runs at most once per request and nothing carries
from one request to the next.  The memoized values are shared by every
reader, so each is immutable: a tuple, frozenset, read-only mapping or
record.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import ConsistencyError, InputError


class Singularity(NamedTuple("Singularity", [("n", int), ("q", int)])):
    """The plane quotient by the order-n diagonal action with weights (1, q).

    The instance dict is the ``per_pair`` memo and is written only there:
    attributes can be neither set nor deleted.  Equality and hash are the
    pair's, and ``_replace`` returns a new instance with an empty memo.
    """

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} on a Singularity")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} from a Singularity")

    # a copy or an unpickled instance is rebuilt from (n, q), memo empty
    def __reduce__(self):
        return type(self), tuple(self)


def per_pair(derive):
    """Memoize ``derive(s)`` on the instance ``s``: one derivation per
    Singularity, that is, per request."""

    @functools.wraps(derive)
    def memo(s: Singularity):
        cache = s.__dict__
        try:
            return cache[derive]
        except KeyError:
            value = cache[derive] = derive(s)
            return value

    return memo


class Identities(NamedTuple):
    """Cross-identities of the two expansions: e = 3 + sum(b_j - 2) and
    sum(b_j - 1) = sum(a_i - 1), with the expansions they were read off."""

    e: int
    sum_b: int
    sum_a: int
    fraction: tuple[int, ...]  # fraction(s)
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


def hj_length(numerator: int, denominator: int) -> int:
    """len(hj_expand(numerator, denominator)) in O(log numerator) steps.

    An entry 2 maps (p, q) to (q, q - d) with d = p - q, so a run of 2s keeps
    d fixed and lasts while d <= q: q // d entries, skipped by one division.
    Between runs the steps are those of Euclid's algorithm.
    """
    length = 0
    p, q = numerator, denominator
    while q:
        d = p - q
        if d <= q:
            length += q // d
            q %= d
            p = q + d
        else:
            length += 1
            p, q = q, -(-p // q) * q - p
    return length


def hj_evaluate(entries) -> Fraction:
    """Evaluate [b_1, ..., b_r] as b_1 - 1/(b_2 - 1/(...)), exactly: the
    tail value num/den steps to b - den/num = (b*num - den)/num in integers,
    and one Fraction is built at the end."""
    entries = tuple(entries)
    if not entries:
        raise InputError("empty continued fraction")
    num, den = entries[-1], 1
    for b in reversed(entries[:-1]):
        if num == 0:
            raise InputError("continued fraction hits a zero tail")
        num, den = b * num - den, num
    return Fraction(num, den)


@per_pair
def fraction(s: Singularity) -> tuple[int, ...]:
    """The resolution chain [b_1, ..., b_r] of n/q."""
    return hj_expand(s.n, s.q)


@per_pair
def dual_expand(s: Singularity) -> tuple[int, ...]:
    """The expansion [a_2, ..., a_{e-1}] of n/(n-q)."""
    return hj_expand(s.n, s.n - s.q)


def curve_count(s: Singularity) -> int:
    """Number r of exceptional curves in the minimal resolution."""
    return len(fraction(s))


def _series(s: Singularity, second: int, entries) -> tuple[tuple[int, int], ...]:
    """The points (i_t, j_t) seeded (n, 0), (second, 1) and continued by
    v_t = c_t*v_{t-1} - v_{t-2} over ``entries``; they must end at (0, n)."""
    i0, j0, i, j = s.n, 0, second, 1
    points = [(i0, j0), (i, j)]
    for c in entries:
        i0, j0, i, j = i, j, c * i - i0, c * j - j0
        points.append((i, j))
    if points[-1] != (0, s.n):
        raise ConsistencyError(f"series for {s} does not end at (0, n)")
    return tuple(points)


@per_pair
def ij_series(s: Singularity) -> tuple[tuple[int, int], ...]:
    """The exponents (i_t, j_t) of the minimal invariant monomial generators
    z_t = x^{i_t} y^{j_t}, z_t at point t - 1.

    The e points run (n,0) down to (0,n) and obey the recursion
    i_t = a_t*i_{t-1} - i_{t-2} with the dual expansion entries.
    """
    return _series(s, s.n - s.q, dual_expand(s))


@per_pair
def unrefined_series(s: Singularity) -> tuple[tuple[int, int], ...]:
    """The coarser r+2 point series driven by the chain ``fraction(s)``.

    Starts (n,0), (q,1) and need not give minimal generators; only the
    endpoints agree with ij_series.
    """
    return _series(s, s.q, fraction(s))


@per_pair
def identities(s: Singularity) -> Identities:
    """Check and return the numerical identities tying the two expansions."""
    b = fraction(s)
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
    """e = len(dual_expand(s)) + 2, read off ``hj_length`` in O(log n)
    without expanding the dual chain."""
    return hj_length(s.n, s.n - s.q) + 2


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
    q1*q2 = 1 (mod n).  No report calls it; it is package API, exported by
    ``cqsing.__all__``."""
    if s1.n != s2.n:
        return False
    return s1.q == s2.q or (s1.q * s2.q) % s1.n == 1
