"""Character-weight combinatorics: quiver, monomial basis, special classes,
and the torus-fixed clusters in closed form.

The character table never materializes roots of unity: the class k acts on
x^a y^b through the weight a + q*b (mod n), and all of the structure below
is arithmetic on those residues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfrac import Singularity, curve_count, unrefined_series
from .errors import ConsistencyError


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, int, str], ...]  # (tail, head, label)


@dataclass(frozen=True)
class GCluster:
    """A diagram of n boxes whose box weights hit every residue once.

    heights[a] is the number of boxes in column a (weakly decreasing); the
    ideal generators are the outer-corner monomials, largest x-power first.
    """

    heights: tuple[int, ...]
    ideal: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return len(self.heights)

    def boxes(self):
        return [(a, b) for a, h in enumerate(self.heights) for b in range(h)]


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

    x^n and y^n are invariant, so the basis sits inside the n x n box; a
    two-direction sweep marks everything with an invariant divisor.
    """
    n, q = s.n, s.q
    has_divisor = [[False] * n for _ in range(n)]
    basis = []
    for a in range(n):
        row = has_divisor[a]
        for b in range(n):
            d = ((a or b) and (a + q * b) % n == 0) or (
                a > 0 and has_divisor[a - 1][b]
            ) or (b > 0 and row[b - 1])
            row[b] = d
            if not d:
                basis.append((a, b))
    return basis


def weight(s: Singularity, a: int, b: int) -> int:
    return (a + s.q * b) % s.n


def special_reps(s: Singularity) -> set[int]:
    """Nontrivial classes k whose basis monomials of weight k are all pure
    powers (the L-shaped set); their count equals the curve count r."""
    mixed_weights = {
        weight(s, a, b) for a, b in g_basis(s) if a > 0 and b > 0
    }
    return {k for k in range(1, s.n) if k not in mixed_weights}


def _ideal_from_heights(heights):
    gens = [(len(heights), 0)]
    for a in range(len(heights) - 1, 0, -1):
        if heights[a] < heights[a - 1]:
            gens.append((a, heights[a]))
    gens.append((0, heights[0]))
    return tuple(gens)


def g_clusters(s: Singularity) -> list[GCluster]:
    """All n-box diagrams whose weight map is a bijection onto Z/n, ordered
    by the exponent of the pure x-power generator (the width), ascending.

    Closed form from the unrefined series (i_0..i_{r+1}), (j_0..j_{r+1})
    (Ito-Nakamura; Kidoh): cluster k has width i_k, its first i_k - i_{k+1}
    columns have height j_{k+1} and its last i_{k+1} columns height
    j_{k+1} - j_k.  At k = 0 and k = r this degenerates to one row of n
    boxes and one column of n boxes.  The torus-fixed cluster search is kept
    in the tests as an oracle for this formula.
    """
    series = unrefined_series(s)
    i, j = series.i_values, series.j_values
    clusters = []
    for k in reversed(range(len(series) - 1)):  # i_k decreases: widths ascend
        heights = (j[k + 1],) * (i[k] - i[k + 1]) + (j[k + 1] - j[k],) * i[k + 1]
        clusters.append(GCluster(heights=heights, ideal=_ideal_from_heights(heights)))
    return clusters


def curve_rep_assignment(s: Singularity) -> list[tuple[int, int]]:
    """Pair each exceptional curve k (between clusters k and k+1) with the
    common weight of its two corner monomials: the pure x-power of cluster
    k and the pure y-power of cluster k+1."""
    clusters = g_clusters(s)
    out = []
    for k in range(1, len(clusters)):
        left, right = clusters[k - 1], clusters[k]
        w_x = weight(s, left.width, 0)
        w_y = weight(s, 0, right.heights[0])
        if w_x != w_y:
            raise ConsistencyError(
                f"corner monomials of curve {k} disagree: {w_x} vs {w_y}"
            )
        out.append((k, w_x))
    specials = special_reps(s)
    if {w for _, w in out} != specials or len(out) != len(specials):
        raise ConsistencyError("curve weights do not match the special classes")
    return out


def cluster_weight_check(s: Singularity) -> bool:
    """Every cluster carries each residue exactly once (regular representation)."""
    r = curve_count(s)
    clusters = g_clusters(s)
    if len(clusters) != r + 1:
        return False
    for c in clusters:
        ws = {weight(s, a, b) for a, b in c.boxes()}
        if ws != set(range(s.n)):
            return False
    return True
