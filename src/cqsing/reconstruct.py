"""Resolution-shaped quiver with its relations, the deformed relations with
their parameter base, and the generalized minors of the len(dual) x dual[0]
antidiagonal symbol layout (``quasidet_presentation``).

The quiver on vertices b_0..b_r (b_0 the framing vertex) carries a doubled
cycle (arrows a: i -> i+1 and c: i -> i-1, indices mod r+1) plus b_i - 2
extra arrows k from each vertex with weight b_i > 2 down to b_0.  Relations
are only emitted for the shapes the construction is verified on: every
weight 2 (doubled-cycle case), or exactly one weight equal to 3; anything
else yields the quiver with the relations flagged unsupported rather than
guessed.  Paths are written in traversal order (leftmost arrow first).

The deformed relations are read off the plain ones, one parameter each.
Orientation: the two sides swap iff the negative path is the right loop
v -> v+1 -> v at the relation's vertex v.  Grouping: with m the vertex the
k-arrow leaves, group 2 holds each relation whose k-side path contains an
a-arrow (the cycle 0 -> ... -> m -> 0, read from 0 or from m) and the loop
relation at each vertex past m; group 1 holds the rest, so an all-2 chain
has one group.  Parameter t{g}_{j} is the j-th relation of group g in
vertex order, j counting from 0.  Each group carries one zero-sum
constraint, and the group sizes must be the dual expansion; the CLI checks
that (``verify``) or refuses the report (``reconstruct``).
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .cfrac import Singularity, dual_expand, fraction, per_pair
from .errors import InputError, UnsupportedError
from .polyring import Polynomial, VariableTable


class Arrow(NamedTuple):
    kind: str  # "a" (forward cycle), "c" (backward cycle), "k" (extra)
    tail: int
    head: int
    slot: int = 0  # multiplicity index for k-arrows

    @property
    def label(self) -> str:
        if self.kind == "k":
            return f"k{self.tail}_{self.slot}"
        return f"{self.kind}{self.tail}{self.head}"


class Relation(NamedTuple):
    """positive path - negative path = 0, or = parameter when deformed; both
    paths are loops based at `vertex`."""

    vertex: int
    positive: tuple[Arrow, ...]
    negative: tuple[Arrow, ...]
    parameter: str | None = None

    def text(self) -> str:
        return _relation_text(
            [a.label for a in self.positive],
            [a.label for a in self.negative],
            self.parameter,
        )


def _relation_text(positive: list[str], negative: list[str], parameter: str | None) -> str:
    """The text of a relation from the arrow labels of its two paths."""
    text = f"{'*'.join(positive)} - {'*'.join(negative)}"
    return text if parameter is None else f"{text} = {parameter}"


class ReconstructionQuiver(NamedTuple):
    fraction: tuple[int, ...]
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...] | None
    unsupported_reason: str | None = None


class DeformedRelations(NamedTuple):
    relations: tuple[Relation, ...]
    groups: tuple[tuple[str, ...], ...]  # parameter names, one zero-sum each
    base_dimension: int


class QuasidetPresentation(NamedTuple):
    dual_fraction: tuple[int, ...]
    matrix: tuple[tuple[str, ...], ...]
    table: VariableTable
    relations: tuple[Polynomial, ...]


def quiver_from_fraction(fraction) -> ReconstructionQuiver:
    """Build the quiver (and relations where the shape is supported) from
    an expansion [b_1, ..., b_r] with every entry >= 2 and r >= 2.  Each
    arrow is built once: the relations' loops and paths hold the very
    ``Arrow`` objects of ``arrows``, which lists a_0..a_r, then c_0..c_r,
    then the k-arrows."""
    fraction = tuple(fraction)
    r = len(fraction)
    if r < 2 or any(b < 2 for b in fraction):
        raise InputError("need at least two entries, all >= 2")
    count = r + 1
    vertices = tuple(f"b{i}" for i in range(count))
    a = [Arrow("a", i, (i + 1) % count) for i in range(count)]
    c = [Arrow("c", i, (i - 1) % count) for i in range(count)]
    arrows = a + c
    heavy = [i for i, b in enumerate(fraction, start=1) if b > 2]
    for i in heavy:
        for slot in range(1, fraction[i - 1] - 1):
            arrows.append(Arrow("k", i, 0, slot))

    if heavy and (len(heavy) > 1 or fraction[heavy[0] - 1] > 3):
        reason = (
            "relations are only emitted for weight chains that are all 2 or "
            "have a single 3; got " + str(list(fraction))
        )
        return ReconstructionQuiver(fraction, vertices, tuple(arrows), None, reason)
    left = [(c[v], a[v - 1]) for v in range(count)]  # down to v-1 and back
    right = [(a[v], c[(v + 1) % count]) for v in range(count)]  # up to v+1 and back
    if not heavy:
        relations = [Relation(v, left[v], right[v]) for v in range(count)]
    else:
        m = heavy[0]
        k = arrows[-1]  # the one k-arrow, m -> 0
        forward = tuple(a[:m])  # 0 -> 1 -> ... -> m
        backward = (c[0], *c[:m:-1])  # 0 -> r -> r-1 -> ... -> m
        relations = []
        for v in range(count):
            if v == 0:
                relations.append(Relation(0, forward + (k,), left[0]))
                relations.append(Relation(0, backward + (k,), right[0]))
            elif v == m:
                relations.append(Relation(m, (k,) + backward, left[m]))
                relations.append(Relation(m, (k,) + forward, right[m]))
            else:
                relations.append(Relation(v, left[v], right[v]))
    return ReconstructionQuiver(fraction, vertices, tuple(arrows), tuple(relations))


@per_pair
def reconstruction_quiver(s: Singularity) -> ReconstructionQuiver:
    """The quiver of a valid pair; a single exceptional curve (r = 1) has
    no reconstruction quiver, which is unsupported rather than bad input."""
    chain = fraction(s)
    if len(chain) < 2:
        raise UnsupportedError(
            f"reconstruction needs r >= 2 exceptional curves; ({s.n}, {s.q}) has r = 1"
        )
    return quiver_from_fraction(chain)


def _in_second_group(rel: Relation, m: int) -> bool:
    """Group 2 (module docstring): the k-side path holds an a-arrow, or the
    relation is the loop relation at a vertex past m."""
    for path in (rel.positive, rel.negative):
        if any(a.kind == "k" for a in path):
            return any(a.kind == "a" for a in path)
    return rel.vertex > m


def deformed_relations(s: Singularity) -> DeformedRelations:
    """One parameter per relation of ``reconstruction_quiver(s)``, oriented
    and grouped by the rules of the module docstring, with a zero-sum
    constraint per group, so the base has the parameters less one dimension
    per group; at parameters zero the plain relations return (up to an
    overall sign per relation)."""
    quiver = reconstruction_quiver(s)
    if quiver.relations is None:
        raise UnsupportedError(quiver.unsupported_reason)
    arrows = quiver.arrows
    count = len(quiver.fraction) + 1
    # the vertex the k-arrow leaves; past every vertex on an all-2 chain
    m = next((a.tail for a in arrows if a.kind == "k"), count)
    names = {1: [], 2: []}
    relations = []
    for rel in quiver.relations:  # in vertex order
        g = 2 if _in_second_group(rel, m) else 1
        parameter = f"t{g}_{len(names[g])}"
        names[g].append(parameter)
        pos, neg = rel.positive, rel.negative
        # the right loop at v (up to v+1 and back) is a_v, c_{v+1}
        v = rel.vertex
        if neg == (arrows[v], arrows[count + (v + 1) % count]):
            pos, neg = neg, pos
        relations.append(Relation(v, pos, neg, parameter))
    groups = tuple(tuple(group) for group in names.values() if group)
    relations.sort(key=lambda rel: (rel.vertex, rel.parameter))
    return DeformedRelations(
        relations=tuple(relations),
        groups=groups,
        base_dimension=sum(len(g) - 1 for g in groups),
    )


def quasidet_presentation(s: Singularity) -> QuasidetPresentation:
    """The generalized minors of the len(dual) x dual[0] symbol matrix filled
    along antidiagonals: cell (r, c) holds z{i}_{j} with i = r + c and
    j = r - max(0, i - (cols - 1)), and each column pair c1 < c2 gives
    top_c1 * bottom_c2 - bottom_c1 * middles_c1..c2-1 * top_c2."""
    dual = dual_expand(s)
    if len(dual) < 2:
        raise UnsupportedError(
            "single-entry dual expansion: the matrix layout degenerates"
        )
    rows, cols = len(dual), dual[0]
    cells = [
        [(r + c, r - max(0, r + c - (cols - 1))) for c in range(cols)]
        for r in range(rows)
    ]
    matrix = tuple(tuple(f"z{i}_{j}" for i, j in row) for row in cells)
    table = VariableTable(f"z{i}_{j}" for i, j in sorted(chain.from_iterable(cells)))
    codes = [[table._code(name) for name in row] for row in matrix]
    top, bottom = codes[0], codes[-1]
    # the rows strictly between top and bottom, summed per column
    inner = [sum(codes[r][c] for r in range(1, rows - 1)) for c in range(cols)]
    # cell (r, c) is (i, r) while i < cols and (i, cols - 1 - c) past that,
    # so the cells are pairwise distinct: every exponent is 1, no guard bit
    # can be set, and the lead (two cells) never equals the tail (two other
    # cells, or more than two)
    relations = []
    for c1 in range(cols):
        middle = 0
        for c2 in range(c1 + 1, cols):
            middle += inner[c2 - 1]
            lead = top[c1] + bottom[c2]
            tail = bottom[c1] + middle + top[c2]
            relations.append(Polynomial._raw(table, {lead: 1, tail: -1}))
    return QuasidetPresentation(
        dual_fraction=dual,
        matrix=matrix,
        table=table,
        relations=tuple(relations),
    )
