"""Minimal generators and binomial presentation of the invariant ring.

A monomial x^a y^b is invariant exactly when a + q*b = 0 (mod n).  The e
minimal generators z_t = x^{i_t} y^{j_t} come straight from the exponent
series; every relation is binomial, z_i z_j = (monomial in the other z's),
and is verified by pure exponent arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .cfrac import Singularity, dual_expand, ij_series
from .errors import ConsistencyError, InputError
from .polyring import _LIMIT, _RANGE, Polynomial, VariableTable


class InvariantGenerator(NamedTuple):
    index: int  # 1-based position t
    exponents: tuple[int, int]  # (i_t, j_t)
    name: str

    @property
    def monomial_text(self) -> str:
        return monomial_text(*self.exponents)


class BinomialRelation(NamedTuple):
    """z_left1 * z_left2 = prod z_t^e_t, with sparse right exponents."""

    left: tuple[int, int]  # 1-based generator indices (i, j), j >= i + 2
    right: tuple[tuple[int, int], ...]  # ((t, exponent), ...) with exponent > 0


def monomial_text(a: int, b: int) -> str:
    """x^a*y^b, with exponents 1 and factors x^0, y^0 left out."""
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts) if parts else "1"


def generators(s: Singularity) -> list[InvariantGenerator]:
    series = ij_series(s)
    return [
        InvariantGenerator(index=t, exponents=pair, name=f"z{t}")
        for t, pair in enumerate(series.pairs, start=1)
    ]


def _a_by_index(s: Singularity) -> dict[int, int]:
    return {t: a for t, a in enumerate(dual_expand(s), start=2)}


def defining_equations(s: Singularity) -> list[BinomialRelation]:
    """All (e-1)(e-2)/2 relations z_i z_j = p_ij, 1 <= i, i+2 <= j <= e.

    With a_t the dual-expansion entry at generator t, p_{i,i+2} is
    z_{i+1}^{a_{i+1}}; for j > i + 2 it is z_{i+1}^{a_{i+1}-1}, times
    z_m^{a_m-2} for i+1 < m < j-1, times z_{j-1}^{a_{j-1}-1}, zero exponents
    dropped.  The interior factors grow by at most one as j steps up.
    """
    a = _a_by_index(s)
    e = len(a) + 2
    relations = []
    for i in range(1, e - 1):
        relations.append(BinomialRelation(left=(i, i + 2), right=((i + 1, a[i + 1]),)))
        first = ((i + 1, a[i + 1] - 1),)
        middle = ()
        for j in range(i + 3, e + 1):
            last = ((j - 1, a[j - 1] - 1),)
            relations.append(BinomialRelation(left=(i, j), right=first + middle + last))
            if a[j - 1] > 2:  # z_{j-1} is interior from j + 1 on
                middle += ((j - 1, a[j - 1] - 2),)
    return relations


def verify_presentation(s: Singularity, relations) -> bool:
    """Substitute z_t -> x^{i_t} y^{j_t} into every relation of the list
    (``defining_equations(s)`` in the reports) and compare exponents on both
    sides."""
    pairs = ij_series(s).pairs
    for rel in relations:
        i, j = rel.left
        rx = ry = 0
        for t, e in rel.right:
            a, b = pairs[t - 1]
            rx += e * a
            ry += e * b
        (xi, yi), (xj, yj) = pairs[i - 1], pairs[j - 1]
        if (rx, ry) != (xi + xj, yi + yj):
            return False
    return True


def relation_polynomials(s: Singularity, relations, table: VariableTable | None = None):
    """The relations of the list (``defining_equations(s)`` in the reports) as
    polynomials z_i z_j - p_ij over a z-variable table.  The code of each z_t
    is made once; z_t^e is e times it, which stays in z_t's field only under
    the exponent ceiling, so each e is checked against it."""
    names = [g.name for g in generators(s)]
    if table is None:
        table = VariableTable(names)
    z = [table._code(name) for name in names]
    polys = []
    for rel in relations:
        i, j = rel.left
        right = 0
        for t, e in rel.right:
            if e >= _LIMIT:
                raise InputError(_RANGE)
            right += e * z[t - 1]
        # z_i z_j never equals p_ij, whose indices lie strictly between
        polys.append(Polynomial._raw(table, {z[i - 1] + z[j - 1]: 1, right: -1}))
    return table, polys


def mckay_cycles(s: Singularity) -> list[tuple[int, ...]]:
    """One vertex cycle per generator in the quiver on residues mod n with
    steps +1 (an x-arrow) and +q (a y-arrow).

    The generator x^{i_t} y^{j_t} uses i_t x-steps and j_t y-steps; among
    the valid interleavings we emit the lexicographically smallest vertex
    sequence.  Each cycle starts and ends at 0 and has i_t + j_t arrows.
    """
    n, q = s.n, s.q
    cycles = []
    for gen in generators(s):
        a, b = gen.exponents
        seq = [0]
        cur = 0
        while a or b:
            nxt_x = (cur + 1) % n
            nxt_y = (cur + q) % n
            if a and (not b or nxt_x <= nxt_y):
                cur, a = nxt_x, a - 1
            else:
                cur, b = nxt_y, b - 1
            seq.append(cur)
        if seq[-1] != 0:
            raise ConsistencyError(f"cycle for {gen.name} does not close")
        cycles.append(tuple(seq))
    return cycles
