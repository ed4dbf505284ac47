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
interior to a hull edge carry self-intersection 2, corners more.  The
same boundary on the dual lattice {(a, b) : a + q*b = 0 (mod n)}, that is
b = -a/q (mod n), is the Hilbert basis of the invariant monomials.  Both
are read off the exponent series of ``cfrac`` in closed form, with no
search: the rays are the points (i_k, j_k) of ``unrefined_series``
swapped to (j_k, i_k), in reverse order, and the Hilbert basis is the
tuple ``ij_series`` itself, whose points (i_t, j_t) are the invariant
generators.  Each list passes a certificate linear in its length before
it is used (Oda 1988, section 1.6).  Points
v_0, ..., v_L of the lattice L = {(A, B) : B = slope*A (mod n)}, slope a
unit mod n, are exactly the lattice points on that hull boundary, in
order, if

1. v_0 = (n, 0) and v_L = (0, n), the first points of L on the two axes;
2. every v_k lies in L;
3. det(v_k, v_{k+1}) = n, the index of L, so each consecutive pair is a
   basis of L and the closed triangle 0, v_k, v_{k+1} holds no other
   point of L;
4. every interior v_k has v_{k-1} + v_{k+1} = c*v_k with c >= 2.

With d_k = det(v_0, v_k), rule 4 gives d_{k+1} - d_k >= d_k - d_{k-1}, so
d_k rises from d_1 = n and every v_k past v_0 lies above the x-axis; in
the same way every v_k before v_L lies right of the y-axis.  So the cones
of rule 3 tile the quadrant in order, each triangle holds no point of L
but its corners, and rule 4 makes the polyline convex: every nonzero point
of L in the quadrant lies on or beyond it, and on it only the v_k.  The
tests keep a hull walk over the lattice staircase as the oracle of both
closed forms.

Fan rays are ordered in integers by the cross product: each ray must lie
strictly counterclockwise of the one before.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cfrac import Singularity, ij_series, unrefined_series
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


def _certify_boundary(points, n: int, slope: int) -> None:
    """Raise ConsistencyError unless ``points`` are, in order, the lattice
    points on the compact boundary of the convex hull of the nonzero points
    of the lattice {(A, B) : B = slope*A (mod n)} in the quadrant, from the
    x-axis to the y-axis (module docstring); slope is a unit mod n."""
    if points[0] != (n, 0) or points[-1] != (0, n):
        raise ConsistencyError("hull boundary does not run from (n, 0) to (0, n)")
    for (a0, b0), (a, b) in zip(points, points[1:]):  # (n, 0) is on the lattice
        if (b - slope * a) % n:
            raise ConsistencyError(f"hull boundary point {(a, b)} is off the lattice")
        if a0 * b - b0 * a != n:
            raise ConsistencyError(
                f"hull boundary points {(a0, b0)}, {(a, b)} do not span the lattice"
            )
    for (a0, b0), (a, b), (a2, b2) in zip(points, points[1:], points[2:]):
        sa, sb = a0 + a2, b0 + b2
        c = sa // a if a else sb // b
        if c < 2 or (sa, sb) != (c * a, c * b):
            raise ConsistencyError(f"hull boundary does not turn convexly at {(a, b)}")


def hilbert_basis_dual(s: Singularity) -> tuple[tuple[int, int], ...]:
    """Irreducible elements of the semigroup of invariant-monomial
    exponents {(a, b) : a + q*b = 0 (mod n)}, largest x-power first.

    In dimension two the Hilbert basis of a cone is the set of lattice
    points on the compact boundary of the convex hull of its nonzero
    lattice points (Oda 1988).  Those are the exponent pairs of the minimal
    invariant generators: the tuple ``ij_series(s)`` itself, returned once
    it passes the certificate on the dual lattice b = -a/q (mod n).
    """
    basis = ij_series(s)
    _certify_boundary(basis, s.n, -pow(s.q, -1, s.n))
    return basis


def resolution_fan(s: Singularity) -> Fan2D:
    """The minimal resolution fan: boundary rays plus the lattice points on
    the hull boundary of the nonzero quadrant lattice points, which are the
    points (j_k, i_k) of ``unrefined_series`` from the x-axis up."""
    rays = tuple((j, i) for i, j in reversed(unrefined_series(s)))
    _certify_boundary(rays, s.n, s.q)
    return Fan2D(rays, s.n)


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
