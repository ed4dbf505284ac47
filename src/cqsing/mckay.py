"""Character-weight combinatorics: quiver, monomial basis, special classes,
and the torus-fixed clusters in closed form.

The character table never materializes roots of unity: the class k acts on
x^a y^b through the weight a + q*b (mod n), and all of the structure below
is arithmetic on those residues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfrac import Singularity, curve_count, ij_series, unrefined_series
from .errors import ConsistencyError


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, int, str], ...]  # (tail, head, label)


@dataclass(frozen=True)
class GCluster:
    """A diagram of n boxes whose box weights hit every residue once.

    heights[a] is the number of boxes in column a (weakly decreasing); the
    ideal generators are the outer-corner monomials, largest x-power first,
    and partners[t] is the box with the same weight as ideal[t].
    """

    heights: tuple[int, ...]
    ideal: tuple[tuple[int, int], ...]
    partners: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return len(self.heights)


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


def g_basis(s: Singularity) -> list[tuple[int, int]]:
    """Monomials not divisible by any nontrivial invariant monomial.

    The invariant monomials are generated by the x^{i_t} y^{j_t} of the
    exponent series (i falling from n to 0, j rising from 0 to n), so column
    a holds the b below j_t of the first generator with i_t <= a.
    """
    series = ij_series(s)
    i, j = series.i_values, series.j_values
    basis = []
    t = len(i) - 1
    for a in range(s.n):
        while i[t - 1] <= a:  # i_0 = n > a ends the walk
            t -= 1
        basis.extend((a, b) for b in range(j[t]))
    return basis


def weight(s: Singularity, a: int, b: int) -> int:
    return (a + s.q * b) % s.n


def special_reps(s: Singularity) -> set[int]:
    """Nontrivial classes k whose basis monomials of weight k are all pure
    powers (the L-shaped set); their count equals the curve count r.

    Closed form (Wunram 1988): they are the residues i_1..i_r of the
    unrefined exponent series.  The scan of ``g_basis`` is kept in the tests
    as an oracle for this formula.
    """
    return set(unrefined_series(s).i_values[1:-1])


def g_clusters(s: Singularity) -> list[GCluster]:
    """All n-box diagrams whose weight map is a bijection onto Z/n, ordered
    by the exponent of the pure x-power generator (the width), ascending.

    Closed form from the unrefined series (i_0..i_{r+1}), (j_0..j_{r+1})
    (Ito-Nakamura; Kidoh): cluster k has width i_k, its first i_k - i_{k+1}
    columns have height j_{k+1} and its last i_{k+1} columns height
    j_{k+1} - j_k.  At k = 0 and k = r this degenerates to one row of n
    boxes and one column of n boxes.  The torus-fixed cluster search is kept
    in the tests as an oracle for this formula.

    Since i_k = q*j_k (mod n), each generator's partner box of the same
    weight is read off the series too: x^{i_k} pairs with y^{j_k}; the step
    corner x^{i_k - i_{k+1}} y^{j_{k+1} - j_k}, present iff i_{k+1} > 0 and
    j_k > 0, pairs with 1; and y^{j_{k+1}} pairs with x^{i_{k+1}}.
    """
    series = unrefined_series(s)
    i, j = series.i_values, series.j_values
    clusters = []
    for k in reversed(range(len(series) - 1)):  # i_k decreases: widths ascend
        heights = (j[k + 1],) * (i[k] - i[k + 1]) + (j[k + 1] - j[k],) * i[k + 1]
        ideal, partners = [(i[k], 0)], [(0, j[k])]
        if i[k + 1] and j[k]:
            ideal.append((i[k] - i[k + 1], j[k + 1] - j[k]))
            partners.append((0, 0))
        ideal.append((0, j[k + 1]))
        partners.append((i[k + 1], 0))
        clusters.append(GCluster(heights, tuple(ideal), tuple(partners)))
    return clusters


def boxes_by_weight(s: Singularity, cluster: GCluster):
    """The box of each residue a + q*b (mod n) of the cluster, or None unless
    its boxes carry each residue exactly once."""
    n, q = s.n, s.q
    by_weight = {
        (a + q * b) % n: (a, b)
        for a, h in enumerate(cluster.heights)
        for b in range(h)
    }
    if len(by_weight) != n or sum(cluster.heights) != n:
        return None
    return by_weight


def curve_rep_assignment(s: Singularity, clusters) -> list[tuple[int, int]]:
    """Pair each exceptional curve k (between clusters k and k+1 of
    ``g_clusters(s)``) with the common weight of its two corner monomials:
    the pure x-power of cluster k and the pure y-power of cluster k+1."""
    n, q = s.n, s.q
    out = []
    for k in range(1, len(clusters)):
        left, right = clusters[k - 1], clusters[k]
        w_x = left.width % n
        w_y = q * right.heights[0] % n
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
    exactly once (regular representation)."""
    return len(clusters) == curve_count(s) + 1 and all(
        boxes_by_weight(s, c) is not None for c in clusters
    )
