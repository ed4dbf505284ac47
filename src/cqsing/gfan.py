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
``mckay.g_clusters`` in their order.  Cluster k is held as its two corners
(i_k, j_k) and (i_{k+1}, j_{k+1}) of the unrefined series: the L-shaped
diagram of i_k columns and j_{k+1} rows less the top right i_{k+1} x j_k
block.  The vectors (i_k, -j_k) and (-i_{k+1}, j_{k+1}) have weight 0 and
determinant n, so they span the weight-zero lattice of the a + q*b (mod n),
and the L-shape, a fundamental domain of it, carries each residue once.
Each generator m comes paired with its partner m', the box of the same
weight, read off the corners: x^{i_k} with y^{j_k}, the step corner
x^{i_k - i_{k+1}} y^{j_{k+1} - j_k} with 1, and y^{j_{k+1}} with
x^{i_{k+1}}.  The candidate basis of cone k is {x^m - (p^m / p^m') x^m'},
p the orbit point, and a weight w lies inside the cone iff the integer
margins w.(m - m') are all positive, so a weight picks its cone before any
polynomial is built.  A partner of another weight fails step 1 below.
Each x^m is packed straight into its code of the ("x", "y") table (x^a y^b
is a in the field at bit 16 and b in the field at bit 0, a + b above them),
under polyring's exponent ceiling, with no exponent tuple in between.

The boundary rays come off the same corners, with no search.  The two
pure-power pairs give the inequalities (i_k, -j_k) and (-i_{k+1}, j_{k+1}),
which vanish on (j_k, i_k) and (j_{k+1}, i_{k+1}); the step-corner one is
their sum, so it never bounds the cone.  The lower ray is the primitive
vector along (j_{k+1}, i_{k+1}), the upper along (j_k, i_k).  Each ray is
checked at run time: every inequality is >= 0 on it and one is 0.

A candidate is certified before it is used, by a check linear in its
terms that runs no division:

1. Every element vanishes on the whole orbit of p.  The orbit is the set of
   points (z p0, z^q p1) with z^n = 1, so f = sum c x^a y^b vanishes on it
   iff, for every residue r mod n, the sum of c p0^a p1^b over the terms
   with a + q*b = r (mod n) is 0.  The terms are decoded, by shift and
   mask, from the codes of the emitted polynomial, not taken from the pairs
   (m, m') that built it.  So the ideal J the candidate generates lies in
   the orbit ideal I, which has colength n: G acts freely on the torus, so
   the orbit of p has n distinct points, and I is their ideal.
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

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cfrac import Singularity, curve_count
from .errors import ConsistencyError, InputError
from .mckay import g_clusters
from .polyring import (
    _BITS,
    _LIMIT,
    _MASK,
    _RANGE,
    Polynomial,
    VariableTable,
    WeightedOrder,
    _code_key,
    _exact,
    _lead,
)
from .toric import Fan2D, RationalRay, primitive


class BoundaryWeightError(Exception):
    """The weight ties two terms of a reduced basis element: it lies on a
    cone boundary and cannot name a single cone."""


def _point_power(point, d):
    """p0^d0 * p1^d1 exactly for integer d of any sign: an int whenever it
    is integral (int ** negative would be a float)."""
    num = den = 1
    for p, e in zip(point, d):
        u, v = (p.numerator, p.denominator) if e >= 0 else (p.denominator, p.numerator)
        num *= u ** abs(e)
        den *= v ** abs(e)
    return num if den == 1 else _exact(Fraction(num, den))


class OrbitIdeal(NamedTuple):
    singularity: Singularity
    point: tuple[Fraction, Fraction]
    table: VariableTable


class GroebnerCone(NamedTuple):
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


def certify_basis(basis, ideal: OrbitIdeal, order: WeightedOrder) -> None:
    """Raise ConsistencyError unless ``basis`` is a Groebner basis under
    ``order`` of the orbit ideal of ``ideal`` (steps 1-3 of the module
    docstring): every element vanishes on the orbit and the leading terms
    leave exactly n standard monomials, the colength of the ideal.  Each
    lead and each term is decoded from its code in ``ideal.table``: x^a y^b
    has a in the field at bit _BITS and b in the field at bit 0."""
    s = ideal.singularity
    n, q = s.n, s.q
    key = _code_key(order.weights, ideal.table)
    leads = []
    for g in basis:
        m = _lead(g, key)[0]
        leads.append((m >> _BITS & _MASK, m & _MASK))
    if _standard_count(leads) != n:
        raise ConsistencyError(f"candidate basis does not have {n} standard monomials")
    # p0^a p1^b scaled by the positive v0^(top0 - a) v1^(top1 - b), p = u/v,
    # so every sum stays in integers when the point is integral
    (u0, v0), (u1, v1) = ((p.numerator, p.denominator) for p in ideal.point)
    for g in basis:
        terms = [(m >> _BITS & _MASK, m & _MASK, c) for m, c in g._terms.items()]
        top0 = max(a for a, _, _ in terms)
        top1 = max(b for _, b, _ in terms)
        sums = {}
        for a, b, c in terms:
            r = (a + q * b) % n
            value = u0**a * v0 ** (top0 - a) * u1**b * v1 ** (top1 - b)
            sums[r] = sums.get(r, 0) + c * value
        if any(sums.values()):
            raise ConsistencyError(
                "a candidate basis element does not vanish on the orbit"
            )


def _pairs(cluster):
    """The (generator, partner) pairs of a cluster, read off its corners
    once per cone for both the margins and the candidate basis."""
    return tuple(zip(cluster.ideal, cluster.partners))


def _margins(pairs, w):
    """w.(m - m') per (generator, partner) pair of a cluster: all positive
    iff w is inside its cone."""
    return [(m[0] - t[0]) * w[0] + (m[1] - t[1]) * w[1] for m, t in pairs]


def _certified_cone(cluster, pairs, w, ideal: OrbitIdeal) -> GroebnerCone:
    """The cone of the cluster with (generator, partner) ``pairs`` whose
    leading terms w already selects: the candidate {x^m - (p^m / p^m') x^m'},
    certified, and the rays read off the cluster's corners, checked against
    its inequalities.  Each x^m is packed straight into its code in
    ``ideal.table``, under the ceiling."""
    w0, w1 = w
    table, point = ideal.table, ideal.point
    top = table._top
    rows = []
    for (a, b), (c, d) in pairs:
        if max(a, b, c, d) >= _LIMIT:
            raise InputError(_RANGE)
        # w.m > w.m', so x^m leads its element; (w.m, code) is the order's key
        lead = (a + b) << top | a << _BITS | b
        tail = (c + d) << top | c << _BITS | d
        rows.append((w0 * a + w1 * b, lead, tail, (a - c, b - d)))
    rows.sort()
    basis = tuple(
        Polynomial._raw(table, {lead: 1, tail: -_point_power(point, diff)})
        for _, lead, tail, diff in rows
    )
    order = WeightedOrder(weights=w)
    certify_basis(basis, ideal, order)
    inequalities = tuple(sorted({primitive(row[3]) for row in rows}))
    lower = primitive((cluster.j_next, cluster.i_next))
    upper = primitive((cluster.j, cluster.i))
    for ray in (lower, upper):
        dots = [d[0] * ray[0] + d[1] * ray[1] for d in inequalities]
        if min(dots) != 0:
            raise ConsistencyError(f"ray {ray} does not bound the cone of weight {w}")
    return GroebnerCone(
        weight=w,
        basis=basis,
        inequalities=inequalities,
        lower_ray=lower,
        upper_ray=upper,
    )


def cone_of_weight(ideal: OrbitIdeal, w) -> GroebnerCone:
    """The maximal cone containing the weight w (interior required).

    The cone is that of the cluster whose strict inequalities w.m > w.m'
    w satisfies, picked by integer margins; only its basis is built and
    certified on the orbit.
    """
    w0, w1 = Fraction(w[0]), Fraction(w[1])
    if w0 <= 0 or w1 <= 0:
        raise InputError("weight must lie in the open quadrant")
    scale = w0.denominator * w1.denominator // gcd(w0.denominator, w1.denominator)
    w = (int(w0 * scale), int(w1 * scale))
    on_boundary = False
    for cluster in g_clusters(ideal.singularity):
        pairs = _pairs(cluster)
        low = min(_margins(pairs, w))
        if low > 0:
            return _certified_cone(cluster, pairs, w, ideal)
        on_boundary = on_boundary or low == 0
    if on_boundary:
        raise BoundaryWeightError(f"weight {w} ties terms of a basis element")
    raise ConsistencyError(f"weight {w} lies in no cluster's cone")


def groebner_fan(s: Singularity, point=(1, 1)):
    """All maximal cones, swept from the x-axis to the y-axis, plus the fan
    of their boundary rays (scaled compatibly with the toric module)."""
    ideal = orbit_ideal(s, point)
    n = s.n
    if n >= _LIMIT:  # the cones at the two axes hold x^n and y^n
        raise InputError(_RANGE)
    cones = []
    w = (n * n, 1)
    for cluster in g_clusters(s):
        pairs = _pairs(cluster)
        if min(_margins(pairs, w)) <= 0:
            raise ConsistencyError(
                f"sweep weight {w} is not inside cone {len(cones)}"
            )
        cone = _certified_cone(cluster, pairs, w, ideal)
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
    fan = Fan2D(rays=tuple(RationalRay(scaled=r) for r in rays), den=n)
    return fan, cones


def fans_equal(a: Fan2D, b: Fan2D) -> bool:
    """Equality as collections of ray directions (primitive integer form)."""
    return a.primitive_ray_set() == b.primitive_ray_set()
