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
x^{i_{k+1}}.  The orbit is that of the point (1, 1), so the basis of
cone k is {x^m - x^m'}.  A cone holds it as rows (m, m') of exponent
pairs, the lead first, sorted by (w.m, total degree, x-degree) at the
cone's weight w (``WeightedOrder``'s order), and no polynomial is built.

The boundary rays come off the same corners, with no search.  The two
pure-power pairs give the inequalities (i_k, -j_k) and (-i_{k+1}, j_{k+1}),
which vanish on (j_k, i_k) and (j_{k+1}, i_{k+1}); the step-corner one is
their sum, so it never bounds the cone.  The lower ray is the primitive
vector along (j_{k+1}, i_{k+1}), the upper along (j_k, i_k).  Each ray is
checked at run time: every inequality is >= 0 on it and one is 0.

The rows are certified before they are used, by ``certify_basis``: one
pass over them, linear in their number, that runs no division.  It takes
the cone's weight pair (w0, w1):

1. Every margin w.(m - m') is positive.  So x^m leads its binomial under
   every order that refines w, with no tie to break, and no element is
   zero (a zero one has m = m' and margin 0).  A margin of 0 on distinct
   terms puts w on a boundary of the cone, and a negative one puts it
   outside.
2. Every element vanishes on the whole orbit of (1, 1).  The orbit is the
   set of points (z, z^q) with z^n = 1, so x^m - x^m' vanishes on it iff
   m = (a, b) and m' = (c, d) have one residue a + q*b = c + q*d (mod n).
   So the ideal J the rows generate lies in the orbit ideal I, which has
   colength n: G acts freely on the torus, so the orbit of (1, 1) has n
   distinct points, and I is their ideal.
3. The leads leave exactly n standard monomials (the cluster boxes).  The
   initial ideal of J contains them, so J has colength at most n.

J in I with colength(J) <= n = colength(I) gives J = I, and the leads
generate the initial ideal of I: the rows are the reduced Groebner basis
of I under w (monic, with the cluster's minimal generators as leading
terms and boxes as tails).  Any failed step raises ConsistencyError, each
with its own message.  Buchberger's algorithm stays in ``polyring``; the
same certificate decoded from polyring's codes, the division certificate
(S-pairs and orbit generators reduce to 0) and sympy stay in the tests, as
oracles for these rows read as polynomials.

The CLI writes each row as ``x^m - x^m'`` with ``invariant_ring``'s
``monomial_text``, which is ``poly_text``'s form of the binomial, so a
``gfan`` request certifies and prints its cones with no call into
``polyring``.
"""

from __future__ import annotations

from typing import NamedTuple

from .cfrac import Singularity, curve_count
from .errors import ConsistencyError, InputError
from .mckay import g_clusters
from .polyring import _LIMIT, _RANGE
from .toric import Fan2D, primitive


class OrbitIdeal(NamedTuple):
    """The ideal of the orbit of (1, 1), for a pair whose n passed the
    exponent ceiling."""

    singularity: Singularity


class GroebnerCone(NamedTuple):
    """A maximal cone: representative weight, attached reduced basis, the
    defining half-planes, and the two boundary rays."""

    weight: tuple[int, int]
    basis: tuple[tuple[tuple[int, int], tuple[int, int]], ...]  # (m, m'): x^m - x^m'
    inequalities: tuple[tuple[int, int], ...]  # normals d, cone = {d.w >= 0}
    lower_ray: tuple[int, int]  # primitive, toward the x-axis
    upper_ray: tuple[int, int]  # primitive, toward the y-axis


def orbit_ideal(s: Singularity) -> OrbitIdeal:
    """The ideal of the orbit of (1, 1), generated by f_t(x, y) - 1 over the
    invariant generators f_t.  Its cones at the two axes hold x^n and y^n,
    so n must lie under polyring's exponent ceiling: every row is then a
    polynomial of ``polyring``, as the tests' oracles read it, and gfan
    keeps the one exponent range of the package."""
    if s.n >= _LIMIT:
        raise InputError(_RANGE)
    return OrbitIdeal(singularity=s)


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
    """Raise ConsistencyError unless the rows ``basis``, each (m, m') for
    x^m - x^m', are a Groebner basis of the orbit ideal of ``ideal`` under
    the weight pair ``w`` (steps 1-3 of the module docstring): every margin
    w.(m - m') is positive, m and m' have one residue a + q*b (mod n), and
    the leads m leave exactly n standard monomials, the colength of the
    ideal."""
    s = ideal.singularity
    n, q = s.n, s.q
    w0, w1 = w
    if w0 < 0 or w1 < 0:
        raise InputError("weights must be nonnegative")
    for (a, b), (c, d) in basis:
        da, db = a - c, b - d
        margin = da * w0 + db * w1
        if margin <= 0:
            if not (da or db):
                raise ConsistencyError("a candidate basis element is zero")
            if margin:
                raise ConsistencyError(f"weight {w} is not inside the cone of its cluster")
            raise ConsistencyError(f"weight {w} lies on a boundary of the cone of its cluster")
        if (da + q * db) % n:
            raise ConsistencyError("a candidate basis element does not vanish on the orbit")
    if _standard_count([m for m, _ in basis]) != n:
        raise ConsistencyError(f"candidate basis does not have {n} standard monomials")


def _certified_cone(cluster, w, ideal: OrbitIdeal) -> GroebnerCone:
    """The cone of ``cluster`` at the weight w: its rows (m, m'), read once
    off the cluster's (generator, partner) pairs, sorted and certified, and
    the rays read off its corners, checked against its inequalities."""
    w0, w1 = w
    # (w.m, total degree, x-degree) is WeightedOrder(w)'s key of the lead m
    basis = tuple(
        sorted(
            zip(cluster.ideal, cluster.partners),
            key=lambda row: (w0 * row[0][0] + w1 * row[0][1], row[0][0] + row[0][1], row[0][0]),
        )
    )
    certify_basis(basis, ideal, w)
    inequalities = tuple(sorted({primitive((a - c, b - d)) for (a, b), (c, d) in basis}))
    lower = primitive((cluster.j_next, cluster.i_next))
    upper = primitive((cluster.j, cluster.i))
    for ray in (lower, upper):
        dots = [d[0] * ray[0] + d[1] * ray[1] for d in inequalities]
        if min(dots) != 0:
            raise ConsistencyError(f"ray {ray} does not bound the cone of weight {w}")
    return GroebnerCone(w, basis, inequalities, lower, upper)


def groebner_fan(s: Singularity):
    """All maximal cones, swept from the x-axis to the y-axis, plus the fan
    of their boundary rays (scaled compatibly with the toric module)."""
    ideal = orbit_ideal(s)
    n = s.n
    cones = []
    w = (n * n, 1)
    for cluster in g_clusters(s):
        cone = _certified_cone(cluster, w, ideal)
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
