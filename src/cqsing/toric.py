"""Lattice-cone model: dual-cone Hilbert basis and the resolution fan.

The working lattice is N = Z^2 + Z*(1/n)(1, q) with the cone the closed
positive quadrant; this is unimodularly equivalent to the usual cone
spanned by (n, n-q) and (0, 1) over Z^2, and has the advantage that fan
rays compare coordinate-free with the Groebner-fan rays.  Scaling by n
identifies N with the sublattice {(A, B) in Z^2 : B = q*A (mod n)}, which
is how rays are stored: each ray is its integer pair (A, B), and the fan
holds the one denominator n.

The resolution fan's rays are the lattice points on the boundary polyline
of the convex hull of the nonzero lattice points of the quadrant; points
interior to a hull edge carry self-intersection 2, corners more.  One
monotone-chain pass over the lowest lattice point of each column finds
them: it drops a point only at a strict clockwise turn, so the points
inside an edge stay.  Fan rays are ordered in integers by the cross
product: each ray must lie strictly counterclockwise of the one before.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cfrac import Singularity
from .errors import ConsistencyError, InputError


def primitive(v) -> tuple[int, int]:
    """The primitive integer vector along the nonzero integer vector v."""
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _det(u, v) -> int:
    """u x v: positive iff v lies counterclockwise of u, within a half turn."""
    return u[0] * v[1] - u[1] * v[0]


class Fan2D(NamedTuple("Fan2D", [("rays", tuple[tuple[int, int], ...]), ("den", int)])):
    """Rays, each the integer vector n*direction (n is ``den``), sorted by
    angle from the x-axis, boundary rays included; maximal cones are the
    consecutive ray pairs."""

    __slots__ = ()

    def __new__(cls, rays: tuple[tuple[int, int], ...], den: int):
        self = super().__new__(cls, rays, den)
        if any(_det(r1, r2) <= 0 for r1, r2 in self.maximal_cones):
            raise InputError("fan rays must be strictly sorted by angle")
        return self

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def maximal_cones(self):
        return tuple(zip(self.rays, self.rays[1:]))

    def serialize(self):
        return {"den": self.den, "rays": self.rays}


def _staircase(n: int, slope: int):
    """For each A in 0..n the lowest point (A, B) of the lattice
    {(A, B) : B = slope*A (mod n)} in the quadrant, the origin excluded."""
    return [(0, n)] + [(a, slope * a % n) for a in range(1, n + 1)]


def _hull_boundary(staircase):
    """The staircase points on the boundary of the convex hull of the
    lattice points above it: the hull corners and the lattice points inside
    hull edges, in staircase order (from the y-axis down to the x-axis)."""
    hull = []
    for p in staircase:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                break
            hull.pop()
        hull.append(p)
    return hull


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
    fan = Fan2D(rays=tuple(rays), den=s.n)
    _check_unimodular(fan)
    return fan


def _check_unimodular(fan: Fan2D):
    # consecutive rays must span the working lattice: |det| = n in scaled coords
    for r1, r2 in fan.maximal_cones:
        if abs(_det(r1, r2)) != fan.den:
            raise ConsistencyError("fan cone is not unimodular in the lattice")


def self_intersections(fan: Fan2D) -> tuple[int, ...]:
    """Recover the expansion entries b_k from the ray recursion
    v_{k-1} + v_{k+1} = b_k * v_k, walking from the y-axis to the x-axis."""
    rays = fan.rays[::-1]
    entries = []
    for k in range(1, len(rays) - 1):
        prev, cur, nxt = rays[k - 1], rays[k], rays[k + 1]
        total = (prev[0] + nxt[0], prev[1] + nxt[1])
        c = 0 if cur[0] else 1
        b = total[c] // cur[c]
        if total != (b * cur[0], b * cur[1]):
            raise ConsistencyError(f"ray recursion breaks at ray {cur}")
        entries.append(b)
    return tuple(entries)
