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
``mckay.g_clusters`` in their order.  For each generator m of cluster k,
let m' be the unique box of the cluster with the same weight a + q*b
(mod n); the candidate basis of cone k is {x^m - (p^m / p^m') x^m'}, p the
orbit point, and a weight w lies inside the cone iff w.m > w.m' for every m.

A candidate is certified before it is used:

1. Every S-pair of its (at most three) elements reduces to 0, so it is a
   Groebner basis of the ideal J it generates.  Its leading terms span a
   staircase of n standard monomials (the cluster boxes), so J has
   colength n.
2. The orbit ideal I has colength n too: G acts freely on the torus, so
   the orbit of p has n distinct points, and I is their ideal.  Every
   polynomial of a known generating set of I reduces to 0, so I lies in
   J.  For the first cone of a sweep (and for a lone weight) that set is
   the orbit generators; for each later cone it is the previous cone's
   certified basis, which already generates I.
3. I in J with equal colength gives J = I: the candidate is the reduced
   Groebner basis of I under w.

Any failed step raises ConsistencyError.  Buchberger's algorithm stays in
``polyring`` as the tests' oracle for these bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cfrac import Singularity, curve_count
from .errors import ConsistencyError, InputError
from .invariant_ring import generators
from .mckay import boxes_by_weight, g_clusters
from .polyring import (
    Polynomial,
    VariableTable,
    WeightedOrder,
    leading_term,
    normal_form,
    s_polynomial,
)
from .toric import Fan2D, RationalRay


class BoundaryWeightError(Exception):
    """The weight ties two terms of a reduced basis element: it lies on a
    cone boundary and cannot name a single cone."""


@dataclass(frozen=True)
class OrbitIdeal:
    singularity: Singularity
    point: tuple[Fraction, Fraction]
    table: VariableTable
    gens: tuple[Polynomial, ...]


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
    table = VariableTable(["x", "y"])
    gens = []
    for g in generators(s):
        a, b = g.exponents
        value = p[0] ** a * p[1] ** b
        gens.append(table.poly({(a, b): 1}) - table.constant(value))
    return OrbitIdeal(singularity=s, point=p, table=table, gens=tuple(gens))


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
    None if there are infinitely many."""
    width = min((a for a, b in leads if b == 0), default=None)
    if width is None or all(a for a, _ in leads):
        return None
    return sum(min(b for a, b in leads if a <= col) for col in range(width))


def certify_basis(basis, known, order: WeightedOrder, colength: int) -> None:
    """Raise ConsistencyError unless ``basis`` is a Groebner basis under
    ``order`` of an ideal of the given colength that contains every
    polynomial of ``known`` (steps 1 and 2 of the module docstring)."""
    leads = [leading_term(g, order)[0] for g in basis]
    if _standard_count(leads) != colength:
        raise ConsistencyError(
            f"candidate basis does not have {colength} standard monomials"
        )
    for i in range(len(basis)):
        for j in range(i):
            if normal_form(s_polynomial(basis[i], basis[j], order), basis, order):
                raise ConsistencyError("an S-pair of the candidate basis is nonzero")
    for f in known:
        if normal_form(f, basis, order):
            raise ConsistencyError("the candidate basis misses part of the ideal")


def _candidates(ideal: OrbitIdeal):
    """Per cluster, in sweep order: the triples (m, m', x^m - c x^m')."""
    s = ideal.singularity
    n, q = s.n, s.q
    p0, p1 = ideal.point
    out = []
    for cluster in g_clusters(s):
        box_of = boxes_by_weight(s, cluster)
        if box_of is None:
            raise ConsistencyError("cluster boxes do not carry each weight once")
        elems = []
        for m in cluster.ideal:
            t = box_of[(m[0] + q * m[1]) % n]
            c = p0 ** (m[0] - t[0]) * p1 ** (m[1] - t[1])
            elems.append((m, t, ideal.table.poly({m: 1, t: -c})))
        out.append(elems)
    return out


def _margins(elems, w):
    """w.(m - m') per element: all positive iff w is inside the cone."""
    return [(m[0] - t[0]) * w[0] + (m[1] - t[1]) * w[1] for m, t, _ in elems]


def _certified_cone(elems, w, known, n) -> GroebnerCone:
    """The cone of a candidate whose leading terms w already selects."""
    order = WeightedOrder(weights=w)
    # w.m > w.m', so m is the leading term of its element
    basis = [g for m, _, g in sorted(elems, key=lambda e: order.key(e[0]))]
    certify_basis(basis, known, order, n)
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
    w satisfies; its basis is certified against the orbit generators.
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
            return _certified_cone(elems, w, ideal.gens, ideal.singularity.n)
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
    known = ideal.gens
    w = (n * n, 1)
    for elems in _candidates(ideal):
        if min(_margins(elems, w)) <= 0:
            raise ConsistencyError(
                f"sweep weight {w} is not inside cone {len(cones)}"
            )
        cone = _certified_cone(elems, w, known, n)
        if cones and cones[-1].upper_ray != cone.lower_ray:
            raise ConsistencyError("adjacent cones do not share a ray")
        if not cones and cone.lower_ray != (1, 0):
            raise ConsistencyError("first cone does not touch the x-axis")
        cones.append(cone)
        known = cone.basis
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
