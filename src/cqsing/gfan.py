"""Orbit ideal and its Groebner fan over the closed positive quadrant.

In two variables the fan is an ordered sequence of cones, so no generic
fan machinery is needed: sweep from the x-axis to the y-axis.  After a
cone is computed, the next representative weight is taken just across the
cone's upper boundary ray u = (A, B) as (2*n^2*A, 2*n^2*B + 1): exact
integer arithmetic shows this point lies strictly between u and any other
lattice ray with coordinates below n, so it is interior to the next cone.

No cone runs Buchberger's algorithm.  The initial ideal of each maximal
cone is the monomial ideal of a torus-fixed G-cluster (Ito-Nakamura 1996;
Kidoh 2001), and the sweep from the x-axis meets the clusters of
``mckay.g_clusters`` in their order.  Each generator m of cluster k
comes paired with its partner m', the box of the cluster with the same
weight a + q*b (mod n), read off the unrefined series (i_k, j_k): x^{i_k}
with y^{j_k}, the step corner x^{i_k - i_{k+1}} y^{j_{k+1} - j_k} with 1,
and y^{j_{k+1}} with x^{i_{k+1}}.  The candidate basis of cone k is
{x^m - (p^m / p^m') x^m'}, p the orbit point, and a weight w lies inside
the cone iff w.m > w.m' for every m.  A partner of another weight fails
step 1 below.

A candidate is certified before it is used, by a check linear in its
terms that runs no division:

1. Every element vanishes on the whole orbit of p.  The orbit is the set of
   points (z p0, z^q p1) with z^n = 1, so f = sum c x^a y^b vanishes on it
   iff, for every residue r mod n, the sum of c p0^a p1^b over the terms
   with a + q*b = r (mod n) is 0.  The terms are read off the emitted
   polynomial, not off the pairs (m, m') that built it.  So the ideal J
   the candidate generates lies in the orbit ideal I, which has colength
   n: G acts freely on the torus, so the orbit of p has n distinct points,
   and I is their ideal.
2. The leading terms under w leave exactly n standard monomials (the
   cluster boxes).  The initial ideal of J contains them, so J has
   colength at most n.
3. J in I with colength(J) <= n = colength(I) gives J = I, and the leading
   terms generate the initial ideal of I: the candidate is the reduced
   Groebner basis of I under w (monic, with the cluster's minimal
   generators as leading terms and boxes as tails).

Any failed step raises ConsistencyError.  Buchberger's algorithm stays in
``polyring``, and the division certificate (S-pairs and orbit generators
reduce to 0) in the tests, as oracles for these bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .cfrac import Singularity, curve_count
from .errors import ConsistencyError, InputError
from .invariant_ring import generators
from .mckay import g_clusters
from .polyring import (
    Polynomial,
    VariableTable,
    WeightedOrder,
    leading_term,
)
from .toric import Fan2D, RationalRay


class BoundaryWeightError(Exception):
    """The weight ties two terms of a reduced basis element: it lies on a
    cone boundary and cannot name a single cone."""


def _point_power(point, d):
    """p0^d0 * p1^d1 exactly for integer d of any sign: an int when the
    point is integral and d >= 0 (int ** negative would be a float)."""
    num = den = 1
    for p, e in zip(point, d):
        u, v = (p.numerator, p.denominator) if e >= 0 else (p.denominator, p.numerator)
        num *= u ** abs(e)
        den *= v ** abs(e)
    return num if den == 1 else Fraction(num, den)


@dataclass(frozen=True)
class OrbitIdeal:
    singularity: Singularity
    point: tuple[Fraction, Fraction]
    table: VariableTable

    @cached_property
    def gens(self) -> tuple[Polynomial, ...]:
        """f_t(x, y) - f_t(point) over the invariant generators, built on
        first use: the cones are certified without them."""
        return tuple(
            self.table.poly({a: 1, (0, 0): -_point_power(self.point, a)})
            for a in (g.exponents for g in generators(self.singularity))
        )


@dataclass(frozen=True)
class GroebnerCone:
    """A maximal cone: representative weight, attached reduced basis, the
    defining half-planes, and the two boundary rays."""

    weight: tuple[int, int]
    basis: tuple[Polynomial, ...]
    inequalities: tuple[tuple[int, int], ...]  # normals d, cone = {d.w >= 0}
    lower_ray: tuple[int, int]  # primitive, toward the x-axis
    upper_ray: tuple[int, int]  # primitive, toward the y-axis


def orbit_ideal(s: Singularity, point=(1, 1)) -> OrbitIdeal:
    """Generated by f_t(x, y) - f_t(point) over the invariant generators.

    Both coordinates must be nonzero so every generator is a monomial
    minus a nonzero constant.
    """
    p = (Fraction(point[0]), Fraction(point[1]))
    if p[0] == 0 or p[1] == 0:
        raise InputError("base point must have nonzero coordinates")
    return OrbitIdeal(singularity=s, point=p, table=VariableTable(["x", "y"]))


def _primitive(v):
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _cone_rays(inequalities):
    """Boundary rays of {w >= 0 componentwise, d.w >= 0 for all d}."""
    candidates = {(1, 0), (0, 1)}
    for d in inequalities:
        candidates.add((d[1], -d[0]))
        candidates.add((-d[1], d[0]))
    feasible = [
        c
        for c in candidates
        if c[0] >= 0 and c[1] >= 0 and (c[0] or c[1])
        and all(d[0] * c[0] + d[1] * c[1] >= 0 for d in inequalities)
    ]
    if not feasible:
        raise ConsistencyError("cone has no boundary rays")
    feasible = sorted({_primitive(c) for c in feasible})

    def angle(c):
        return (1, 0) if c[0] == 0 else (0, Fraction(c[1], c[0]))

    feasible.sort(key=angle)
    return feasible[0], feasible[-1]


def _standard_count(leads):
    """Monomials outside the ideal of the two-variable monomials ``leads``;
    None if there are infinitely many.  One pass over the leads sorted by
    x-degree: the staircase keeps the running minimum y-degree as its
    height from each lead's column to the next."""
    total, col, height = 0, 0, None
    for a, b in sorted(leads):
        if height is None:
            if a:
                return None  # no pure power of y
            height = b
        else:
            total += (a - col) * height
            height = min(height, b)
        col = a
        if not height:
            return total
    return None  # no pure power of x


def certify_basis(
    basis, ideal: OrbitIdeal, order: WeightedOrder, colength: int
) -> None:
    """Raise ConsistencyError unless ``basis`` is a Groebner basis under
    ``order`` of the orbit ideal of ``ideal``, of the given colength (steps
    1-3 of the module docstring): every element vanishes on the orbit and
    the leading terms leave exactly ``colength`` = n standard monomials."""
    s = ideal.singularity
    n, q = s.n, s.q
    if colength != n:
        raise ConsistencyError(f"the orbit ideal has colength {n}, not {colength}")
    leads = [leading_term(g, order)[0] for g in basis]
    if _standard_count(leads) != colength:
        raise ConsistencyError(
            f"candidate basis does not have {colength} standard monomials"
        )
    # p0^a p1^b scaled by the positive v0^(top0 - a) v1^(top1 - b), p = u/v,
    # so every sum stays in integers when the point is integral
    (u0, v0), (u1, v1) = ((p.numerator, p.denominator) for p in ideal.point)
    for g in basis:
        terms = g.terms
        top0 = max(a for a, _ in terms)
        top1 = max(b for _, b in terms)
        sums = {}
        for (a, b), c in terms.items():
            r = (a + q * b) % n
            value = u0**a * v0 ** (top0 - a) * u1**b * v1 ** (top1 - b)
            sums[r] = sums.get(r, 0) + c * value
        if any(sums.values()):
            raise ConsistencyError(
                "a candidate basis element does not vanish on the orbit"
            )


def _candidates(ideal: OrbitIdeal):
    """Per cluster, in sweep order: the triples (m, m', x^m - c x^m')."""
    out = []
    for cluster in g_clusters(ideal.singularity):
        elems = []
        for m, t in zip(cluster.ideal, cluster.partners):
            c = _point_power(ideal.point, (m[0] - t[0], m[1] - t[1]))
            elems.append((m, t, ideal.table.poly({m: 1, t: -c})))
        out.append(elems)
    return out


def _margins(elems, w):
    """w.(m - m') per element: all positive iff w is inside the cone."""
    return [(m[0] - t[0]) * w[0] + (m[1] - t[1]) * w[1] for m, t, _ in elems]


def _certified_cone(elems, w, ideal: OrbitIdeal) -> GroebnerCone:
    """The cone of a candidate whose leading terms w already selects."""
    order = WeightedOrder(weights=w)
    # w.m > w.m', so m is the leading term of its element
    basis = [g for m, _, g in sorted(elems, key=lambda e: order.key(e[0]))]
    certify_basis(basis, ideal, order, ideal.singularity.n)
    inequalities = tuple(
        sorted({_primitive((m[0] - t[0], m[1] - t[1])) for m, t, _ in elems})
    )
    lower, upper = _cone_rays(inequalities)
    return GroebnerCone(
        weight=w,
        basis=tuple(basis),
        inequalities=inequalities,
        lower_ray=lower,
        upper_ray=upper,
    )


def cone_of_weight(ideal: OrbitIdeal, w) -> GroebnerCone:
    """The maximal cone containing the weight w (interior required).

    The cone is that of the cluster whose strict inequalities w.m > w.m'
    w satisfies; its basis is certified on the orbit.
    """
    w0, w1 = Fraction(w[0]), Fraction(w[1])
    if w0 <= 0 or w1 <= 0:
        raise InputError("weight must lie in the open quadrant")
    scale = w0.denominator * w1.denominator // gcd(w0.denominator, w1.denominator)
    w = (int(w0 * scale), int(w1 * scale))
    on_boundary = False
    for elems in _candidates(ideal):
        low = min(_margins(elems, w))
        if low > 0:
            return _certified_cone(elems, w, ideal)
        on_boundary = on_boundary or low == 0
    if on_boundary:
        raise BoundaryWeightError(f"weight {w} ties terms of a basis element")
    raise ConsistencyError(f"weight {w} lies in no cluster's cone")


def groebner_fan(s: Singularity, point=(1, 1)):
    """All maximal cones, swept from the x-axis to the y-axis, plus the fan
    of their boundary rays (scaled compatibly with the toric module)."""
    ideal = orbit_ideal(s, point)
    n = s.n
    cones = []
    w = (n * n, 1)
    for elems in _candidates(ideal):
        if min(_margins(elems, w)) <= 0:
            raise ConsistencyError(
                f"sweep weight {w} is not inside cone {len(cones)}"
            )
        cone = _certified_cone(elems, w, ideal)
        if cones and cones[-1].upper_ray != cone.lower_ray:
            raise ConsistencyError("adjacent cones do not share a ray")
        if not cones and cone.lower_ray != (1, 0):
            raise ConsistencyError("first cone does not touch the x-axis")
        cones.append(cone)
        a, b = cone.upper_ray
        if (a, b) == (0, 1):
            break
        w = (2 * n * n * a, 2 * n * n * b + 1)
    if cones[-1].upper_ray != (0, 1):
        raise ConsistencyError("cone sweep did not reach the y-axis")
    if len(cones) != curve_count(s) + 1:
        raise ConsistencyError("cone count does not match the curve count")
    rays = [(n, 0)]
    rays += [c.upper_ray for c in cones[:-1]]
    rays.append((0, n))
    fan = Fan2D(
        rays=tuple(RationalRay(scaled=r, den=n) for r in rays), den=n
    )
    return fan, cones


def fans_equal(a: Fan2D, b: Fan2D) -> bool:
    """Equality as collections of ray directions (primitive integer form)."""
    return a.primitive_ray_set() == b.primitive_ray_set()
