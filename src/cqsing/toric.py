"""Lattice-cone model: dual-cone Hilbert basis and the resolution fan.

The working lattice is N = Z^2 + Z*(1/n)(1, q) with the cone the closed
positive quadrant; this is unimodularly equivalent to the usual cone
spanned by (n, n-q) and (0, 1) over Z^2, and has the advantage that fan
rays compare coordinate-free with the Groebner-fan rays.  Scaling by n
identifies N with the sublattice {(A, B) in Z^2 : B = q*A (mod n)}, which
is how rays are stored (integer vector plus the denominator n).

The resolution fan's rays are the lattice points on the boundary polyline
of the convex hull of the nonzero lattice points of the quadrant; points
interior to a hull edge carry self-intersection 2, corners more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cfrac import Singularity
from .errors import ConsistencyError, InputError


@dataclass(frozen=True)
class RationalRay:
    """A ray direction stored as the integer vector n*direction."""

    scaled: tuple[int, int]
    den: int

    @property
    def primitive(self) -> tuple[int, int]:
        a, b = self.scaled
        g = gcd(a, b)
        return (a // g, b // g)


def _angle_key(scaled):
    # sorts rays of the closed quadrant by increasing angle from the x-axis
    a, b = scaled
    if a == 0:
        return (1, 0)
    return (0, Fraction(b, a))


@dataclass(frozen=True)
class Fan2D:
    """Rays sorted by angle from the x-axis, boundary rays included;
    maximal cones are the consecutive ray pairs."""

    rays: tuple[RationalRay, ...]
    den: int

    def __post_init__(self):
        keys = [_angle_key(r.scaled) for r in self.rays]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise InputError("fan rays must be strictly sorted by angle")

    @property
    def maximal_cones(self):
        return tuple(zip(self.rays, self.rays[1:]))

    def primitive_ray_set(self):
        return frozenset(r.primitive for r in self.rays)

    def serialize(self):
        return {"den": self.den, "rays": [list(r.scaled) for r in self.rays]}


def _staircase(n: int, slope: int):
    """For each A in 0..n the lowest point (A, B) of the lattice
    {(A, B) : B = slope*A (mod n)} in the quadrant, the origin excluded."""
    return [(0, n)] + [(a, slope * a % n) for a in range(1, n + 1)]


def _hull_boundary(staircase):
    """The staircase points on the boundary of the convex hull of the
    lattice points above it: the hull corners and the lattice points inside
    hull edges, in staircase order (from the y-axis down to the x-axis)."""

    def cross(o, p, r):
        return (p[0] - o[0]) * (r[1] - o[1]) - (p[1] - o[1]) * (r[0] - o[0])

    hull = []
    for p in staircase:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    points = []
    corner = 0
    for p in staircase:
        while corner + 1 < len(hull) and hull[corner + 1][0] < p[0]:
            corner += 1
        if p == hull[corner] or (
            corner + 1 < len(hull) and cross(hull[corner], hull[corner + 1], p) == 0
        ):
            points.append(p)
    return points


def hilbert_basis_dual(s: Singularity) -> list[tuple[int, int]]:
    """Irreducible elements of the semigroup of invariant-monomial
    exponents {(a, b) : a + q*b = 0 (mod n)}, largest x-power first.

    In dimension two the Hilbert basis of a cone is the set of lattice
    points on the compact boundary of the convex hull of its nonzero
    lattice points (Oda 1988), so the same hull walk as the resolution fan
    runs on the dual staircase b = -a/q (mod n).
    """
    n = s.n
    return _hull_boundary(_staircase(n, -pow(s.q, -1, n)))[::-1]


def resolution_fan(s: Singularity) -> Fan2D:
    """The minimal resolution fan: boundary rays plus the lattice points on
    the hull boundary of the nonzero quadrant lattice points."""
    rays = _hull_boundary(_staircase(s.n, s.q))
    rays.reverse()  # staircase runs from the y-axis down; fans sort from the x-axis up
    fan = Fan2D(
        rays=tuple(RationalRay(scaled=p, den=s.n) for p in rays),
        den=s.n,
    )
    _check_unimodular(fan)
    return fan


def _check_unimodular(fan: Fan2D):
    # consecutive rays must span the working lattice: |det| = n in scaled coords
    for r1, r2 in fan.maximal_cones:
        (a1, b1), (a2, b2) = r1.scaled, r2.scaled
        if abs(a1 * b2 - b1 * a2) != fan.den:
            raise ConsistencyError("fan cone is not unimodular in the lattice")


def self_intersections(fan: Fan2D) -> tuple[int, ...]:
    """Recover the expansion entries b_k from the ray recursion
    v_{k-1} + v_{k+1} = b_k * v_k, walking from the y-axis to the x-axis."""
    rays = [r.scaled for r in reversed(fan.rays)]
    entries = []
    for k in range(1, len(rays) - 1):
        prev, cur, nxt = rays[k - 1], rays[k], rays[k + 1]
        total = (prev[0] + nxt[0], prev[1] + nxt[1])
        b = None
        for tc, cc in zip(total, cur):
            if cc:
                if tc % cc:
                    raise ConsistencyError("non-integral ray recursion quotient")
                q = tc // cc
                if b is None:
                    b = q
                elif b != q:
                    raise ConsistencyError("inconsistent ray recursion quotient")
            elif tc:
                raise ConsistencyError("ray recursion does not close")
        entries.append(b)
    return tuple(entries)
