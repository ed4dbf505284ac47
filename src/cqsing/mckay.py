"""Character-weight combinatorics: quiver, monomial basis, special classes,
and the torus-fixed clusters in closed form.

The character table never materializes roots of unity: the class k acts on
x^a y^b through the weight a + q*b (mod n), and all of the structure below
is arithmetic on those residues.

A torus-fixed G-cluster is held as its corners, two consecutive points
(i_k, j_k), (i_{k+1}, j_{k+1}) of the unrefined series (Ito-Nakamura 1996;
Kidoh 2001): its diagram is the rectangle of i_k columns and j_{k+1} rows
less the top right i_{k+1} x j_k block.  Both corners satisfy
i = q*j (mod n), so (i_k, -j_k) and (-i_{k+1}, j_{k+1}) lie in the lattice
of weight zero {(a, b) : a + q*b = 0 (mod n)}, which has index n in Z^2.
Their determinant i_k j_{k+1} - i_{k+1} j_k is n, so they are a basis of
it, and the L-shaped diagram, which tiles the plane under their
translations, is a fundamental domain: its n boxes carry each residue
exactly once.  The regular-representation check is that arithmetic, O(1)
per cluster.  A report holds each cluster's columns as their two runs of
equal heights (``Runs``) and the G-basis as its column heights
(``Staircase``), each a one-field record; the CLI renders both from those
closed forms, with no value per box or per height.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from .cfrac import Singularity, curve_count, ij_series, per_pair, unrefined_series
from .errors import ConsistencyError


class Quiver(NamedTuple):
    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, int, str], ...]  # (tail, head, label)


class Runs(NamedTuple):
    """An int array held as runs: each (value, count) of ``pairs`` stands
    for value repeated count times."""

    pairs: tuple[tuple[int, int], ...]


class Staircase(NamedTuple):
    """The G-basis held as its column heights: column a holds the boxes
    (a, b) for b < heights[a]."""

    heights: tuple[int, ...]


class GCluster(NamedTuple):
    """The cluster cut out by the consecutive pairs (i, j) = (i_k, j_k) and
    (i_next, j_next) = (i_{k+1}, j_{k+1}) of the unrefined series: i columns
    (its width), the first i - i_next of height j_next and the last i_next
    of height j_next - j."""

    i: int
    j: int
    i_next: int
    j_next: int

    @property
    def height_runs(self) -> Runs:
        """The column heights, left to right (weakly decreasing), as two
        runs: j_next for i - i_next columns, then j_next - j for i_next."""
        return Runs(((self.j_next, self.i - self.i_next), (self.j_next - self.j, self.i_next)))

    @property
    def heights(self) -> tuple[int, ...]:
        """The column heights, left to right, one int each."""
        return (self.j_next,) * (self.i - self.i_next) + (self.j_next - self.j,) * self.i_next

    @property
    def ideal(self) -> tuple[tuple[int, int], ...]:
        """The outer-corner monomials, largest x-power first: x^i, the step
        corner x^(i - i_next) y^(j_next - j) when i_next > 0 and j > 0,
        and y^j_next."""
        i, j, i_next, j_next = self.i, self.j, self.i_next, self.j_next
        if i_next and j:
            return ((i, 0), (i - i_next, j_next - j), (0, j_next))
        return ((i, 0), (0, j_next))

    @property
    def partners(self) -> tuple[tuple[int, int], ...]:
        """partners[t] is the box with the weight of ideal[t]: since
        i = q*j (mod n) at both corners, x^i pairs with y^j, the step corner
        with 1, and y^j_next with x^i_next."""
        if self.i_next and self.j:
            return ((0, self.j), (0, 0), (self.i_next, 0))
        return ((0, self.j), (self.i_next, 0))


def mckay_quiver(s: Singularity) -> Quiver:
    """n vertices rho_0..rho_{n-1}; arrows i -> i+1 and i -> i+q (mod n).

    For q = 1 the two targets coincide and the arrows are parallel.
    """
    n, q = s.n, s.q
    vertices = tuple(f"rho{k}" for k in range(n))
    arrows = []
    for k in range(n):
        arrows.append((k, (k + 1) % n, "x"))
        arrows.append((k, (k + q) % n, "y"))
    return Quiver(vertices=vertices, arrows=tuple(arrows))


def g_basis(s: Singularity) -> Staircase:
    """Monomials not divisible by any nontrivial invariant monomial, as the
    column heights of their staircase.

    The invariant monomials are generated by the x^{i_t} y^{j_t} of the
    exponent series (i falling from n to 0, j rising from 0 to n), so the
    columns i_t <= a < i_{t-1} hold the b below j_t: n heights in O(n).
    """
    points = ij_series(s)[::-1]  # i rising from 0 to n
    columns = (repeat(j, i_next - i) for (i, j), (i_next, _) in zip(points, points[1:]))
    return Staircase(tuple(chain.from_iterable(columns)))


@per_pair
def special_reps(s: Singularity) -> frozenset[int]:
    """Nontrivial classes k whose basis monomials of weight k are all pure
    powers (the L-shaped set); their count equals the curve count r.

    Closed form (Wunram 1988): they are the residues i_1..i_r of the
    unrefined exponent series.  The scan of ``g_basis`` is kept in the tests
    as an oracle for this formula.
    """
    return frozenset(i for i, _ in unrefined_series(s)[1:-1])


@per_pair
def g_clusters(s: Singularity) -> tuple[GCluster, ...]:
    """All n-box diagrams whose weight map is a bijection onto Z/n, ordered
    by the exponent of the pure x-power generator (the width), ascending.

    Closed form from the unrefined series (i_0, j_0)..(i_{r+1}, j_{r+1})
    (Ito-Nakamura; Kidoh): cluster k has the corners (i_k, j_k) and
    (i_{k+1}, j_{k+1}).  At k = 0 and k = r this degenerates to one row of
    n boxes and one column of n boxes.  The torus-fixed cluster search is
    kept in the tests as an oracle for this formula.
    """
    p = unrefined_series(s)
    return tuple(  # i_k decreases: widths ascend
        GCluster(*p[k], *p[k + 1]) for k in reversed(range(len(p) - 1))
    )


def curve_rep_assignment(s: Singularity, clusters) -> list[tuple[int, int]]:
    """Pair each exceptional curve k (between clusters k and k+1 of
    ``g_clusters(s)``) with the common weight of its two corner monomials:
    the pure x-power of cluster k and the pure y-power of cluster k+1."""
    n, q = s.n, s.q
    out = []
    for k in range(1, len(clusters)):
        left, right = clusters[k - 1], clusters[k]
        w_x = left.i % n
        w_y = q * right.j_next % n
        if w_x != w_y:
            raise ConsistencyError(
                f"corner monomials of curve {k} disagree: {w_x} vs {w_y}"
            )
        out.append((k, w_x))
    specials = special_reps(s)
    if {w for _, w in out} != specials or len(out) != len(specials):
        raise ConsistencyError("curve weights do not match the special classes")
    return out


def cluster_weight_check(s: Singularity, clusters) -> bool:
    """The r + 1 clusters of ``g_clusters(s)`` each carry every residue
    exactly once (regular representation): their corners are ordered, lie in
    the weight-zero lattice and span it (module docstring)."""
    n, q = s.n, s.q
    return len(clusters) == curve_count(s) + 1 and all(
        c.i > c.i_next >= 0
        and c.j_next > c.j >= 0
        and c.i * c.j_next - c.i_next * c.j == n
        and (c.i - q * c.j) % n == 0
        and (c.i_next - q * c.j_next) % n == 0
        for c in clusters
    )
