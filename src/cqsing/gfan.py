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
x^{i_{k+1}}.  The orbit is that of the point (1, 1), so the candidate
basis of cone k is {x^m - x^m'}, and a weight w lies inside the cone iff
the integer margins w.(m - m') are all positive, so a weight picks its cone
before any polynomial is built.  A partner of another weight fails step 1
below.
Each x^m is packed straight into its code of the ("x", "y") table (x^a y^b
is a in the field at bit 16 and b in the field at bit 0, a + b above them),
with no exponent tuple in between.  Every corner and partner exponent is at
most n, so the one check of n against polyring's exponent ceiling, in
``orbit_ideal``, keeps every code in its fields.

The boundary rays come off the same corners, with no search.  The two
pure-power pairs give the inequalities (i_k, -j_k) and (-i_{k+1}, j_{k+1}),
which vanish on (j_k, i_k) and (j_{k+1}, i_{k+1}); the step-corner one is
their sum, so it never bounds the cone.  The lower ray is the primitive
vector along (j_{k+1}, i_{k+1}), the upper along (j_k, i_k).  Each ray is
checked at run time: every inequality is >= 0 on it and one is 0.

A candidate is certified before it is used, by a check linear in its
terms that runs no division and needs no monomial order: it takes the
cone's weight pair (w0, w1), and one pass over each element's codes decodes
every term x^a y^b by shift and mask, keeps the one of larger
(w0*a + w1*b, code) as the lead (``WeightedOrder``'s comparison, on the
codes) and sums the coefficients per residue for step 1:

1. Every element vanishes on the whole orbit of (1, 1).  The orbit is the
   set of points (z, z^q) with z^n = 1, so f = sum c x^a y^b vanishes on it
   iff, for every residue r mod n, the coefficients c of the terms with
   a + q*b = r (mod n) sum to 0.  The terms are decoded, by shift and mask,
   from the codes of the emitted polynomial, not taken from the pairs
   (m, m') that built it.  So the ideal J the candidate generates lies in
   the orbit ideal I, which has colength n: G acts freely on the torus, so
   the orbit of (1, 1) has n distinct points, and I is their ideal.
2. The leading terms under w leave exactly n standard monomials (the
   cluster boxes).  The initial ideal of J contains them, so J has
   colength at most n.
3. J in I with colength(J) <= n = colength(I) gives J = I, and the leading
   terms generate the initial ideal of I: the candidate is the reduced
   Groebner basis of I under w (monic, with the cluster's minimal
   generators as leading terms and boxes as tails).

Any failed step raises ConsistencyError, and so does a zero element, which
has no lead.  Buchberger's algorithm stays in ``polyring``, and the
division certificate (S-pairs and orbit generators reduce to 0) in the
tests, as oracles for these bases.

``_binomial_text`` writes each basis element as lead - tail, in
``poly_text``'s form, from its two codes decoded as the certificate decodes
them, with the lead picked by the same (w.m, code) comparison, never by
dict order; each monomial x^a*y^b is ``invariant_ring.monomial_text``.  So
a ``gfan`` request certifies and prints its cones with no call into
``polyring``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cfrac import Singularity, curve_count
from .errors import ConsistencyError, InputError
from .invariant_ring import monomial_text
from .mckay import g_clusters
from .polyring import (
    _BITS,
    _LIMIT,
    _MASK,
    _RANGE,
    Polynomial,
    VariableTable,
)
from .toric import Fan2D, primitive


class BoundaryWeightError(Exception):
    """The weight ties two terms of a reduced basis element: it lies on a
    cone boundary and cannot name a single cone."""


class OrbitIdeal(NamedTuple):
    singularity: Singularity
    table: VariableTable


class GroebnerCone(NamedTuple):
    """A maximal cone: representative weight, attached reduced basis, the
    defining half-planes, and the two boundary rays."""

    weight: tuple[int, int]
    basis: tuple[Polynomial, ...]
    inequalities: tuple[tuple[int, int], ...]  # normals d, cone = {d.w >= 0}
    lower_ray: tuple[int, int]  # primitive, toward the x-axis
    upper_ray: tuple[int, int]  # primitive, toward the y-axis


def orbit_ideal(s: Singularity) -> OrbitIdeal:
    """The ideal of the orbit of (1, 1), generated by f_t(x, y) - 1 over the
    invariant generators f_t.  Its cones at the two axes hold x^n and y^n,
    so n must lie under polyring's exponent ceiling."""
    if s.n >= _LIMIT:
        raise InputError(_RANGE)
    return OrbitIdeal(singularity=s, table=VariableTable(["x", "y"]))


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


def certify_basis(basis, ideal: OrbitIdeal, w) -> None:
    """Raise ConsistencyError unless ``basis`` is a Groebner basis under the
    weight pair ``w`` (ties broken by code, so the order is that of
    ``WeightedOrder(w)``) of the orbit ideal of ``ideal`` (steps 1-3 of the
    module docstring): every element vanishes on the orbit and the leading
    terms leave exactly n standard monomials, the colength of the ideal.
    One pass over each element's codes decodes x^a y^b (a in the field at
    bit _BITS, b in the field at bit 0), keeps the larger (w.m, code) as
    the lead and sums the coefficients per residue a + q*b (mod n)."""
    s = ideal.singularity
    n, q = s.n, s.q
    w0, w1 = w
    if w0 < 0 or w1 < 0:
        raise InputError("weights must be nonnegative")
    leads = []
    vanishes = True
    for g in basis:
        top = -1
        sums = {}
        for m, c in g._terms.items():
            a, b = m >> _BITS & _MASK, m & _MASK
            v = w0 * a + w1 * b
            if v > top or (v == top and m > code):
                top, code, lead = v, m, (a, b)
            r = (a + q * b) % n
            sums[r] = sums.get(r, 0) + c
        if top < 0:
            raise ConsistencyError("a candidate basis element is zero")
        leads.append(lead)
        if vanishes and any(sums.values()):
            vanishes = False
    if _standard_count(leads) != n:
        raise ConsistencyError(f"candidate basis does not have {n} standard monomials")
    if not vanishes:
        raise ConsistencyError("a candidate basis element does not vanish on the orbit")


def _pairs(cluster):
    """The (generator, partner) pairs of a cluster, read off its corners
    once per cone."""
    return tuple(zip(cluster.ideal, cluster.partners))


def _margins(pairs, w):
    """w.(m - m') per (generator, partner) pair of a cluster: all positive
    iff w is inside its cone."""
    return [(m[0] - t[0]) * w[0] + (m[1] - t[1]) * w[1] for m, t in pairs]


def _certified_cone(cluster, pairs, w, ideal: OrbitIdeal) -> GroebnerCone:
    """The cone of the cluster with (generator, partner) ``pairs`` at the
    weight w: the candidate {x^m - x^m'}, certified, and the rays read off
    the cluster's corners, checked against its inequalities.  One pass over
    the pairs reads each one's margin (w must be inside the cone), packs
    x^m and x^m' straight into their codes in ``ideal.table`` (every
    exponent is at most n, under the ceiling ``orbit_ideal`` checked) and
    takes its inequality."""
    w0, w1 = w
    top = ideal.table._top
    rows = []
    normals = set()
    for (a, b), (c, d) in pairs:
        da, db = a - c, b - d
        if da * w0 + db * w1 <= 0:
            raise ConsistencyError(f"weight {w} is not inside the cone of its cluster")
        # w.m > w.m', so x^m leads its element; (w.m, code) is the order's key
        lead = (a + b) << top | a << _BITS | b
        rows.append((w0 * a + w1 * b, lead, (c + d) << top | c << _BITS | d))
        normals.add(primitive((da, db)))
    rows.sort()
    table = ideal.table
    basis = tuple([Polynomial._raw(table, {lead: 1, tail: -1}) for _, lead, tail in rows])
    certify_basis(basis, ideal, w)
    inequalities = tuple(sorted(normals))
    lower = primitive((cluster.j_next, cluster.i_next))
    upper = primitive((cluster.j, cluster.i))
    for ray in (lower, upper):
        dots = [d[0] * ray[0] + d[1] * ray[1] for d in inequalities]
        if min(dots) != 0:
            raise ConsistencyError(f"ray {ray} does not bound the cone of weight {w}")
    return GroebnerCone(w, basis, inequalities, lower, upper)


def _term_text(a, b, c):
    """|c| x^a y^b in ``poly_text``'s form, without its sign."""
    body = monomial_text(a, b)
    if c == 1 or c == -1:
        return body
    return str(abs(c)) if body == "1" else f"{abs(c)}*{body}"


def _binomial_text(g, w) -> str:
    """``poly_text`` of the two-term basis element g under the weight pair w:
    lead - tail, the lead being the term of larger (w.m, code), the one
    ``certify_basis`` certifies, with the exponents decoded as it decodes
    them.  Dict order never decides which term comes first."""
    w0, w1 = w
    (m, c), (t, d) = g._terms.items()
    a, b, e, f = m >> _BITS & _MASK, m & _MASK, t >> _BITS & _MASK, t & _MASK
    if (w0 * a + w1 * b, m) < (w0 * e + w1 * f, t):
        a, b, c, e, f, d = e, f, d, a, b, c
    sign = "-" if c < 0 else ""
    op = "-" if d < 0 else "+"
    return f"{sign}{_term_text(a, b, c)} {op} {_term_text(e, f, d)}"


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


def groebner_fan(s: Singularity):
    """All maximal cones, swept from the x-axis to the y-axis, plus the fan
    of their boundary rays (scaled compatibly with the toric module)."""
    ideal = orbit_ideal(s)
    n = s.n
    cones = []
    w = (n * n, 1)
    for cluster in g_clusters(s):
        cone = _certified_cone(cluster, _pairs(cluster), w, ideal)
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
    rays = ((n, 0), *[c.upper_ray for c in cones[:-1]], (0, n))
    return Fan2D(rays=rays, den=n), cones


def fans_equal(a: Fan2D, b: Fan2D) -> bool:
    """Equality as collections of ray directions (primitive integer form)."""
    return set(map(primitive, a.rays)) == set(map(primitive, b.rays))
