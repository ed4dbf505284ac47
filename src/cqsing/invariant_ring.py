"""Minimal generators and binomial presentation of the invariant ring.

A monomial x^a y^b is invariant exactly when a + q*b = 0 (mod n).  The e
minimal generators z_t = x^{i_t} y^{j_t} are one tuple of the exponent
series' pairs (i_t, j_t), z_t at position t from 1; certified, the same
tuple is ``toric.hilbert_basis_dual``.  Every relation is binomial, z_i z_j
= (monomial in the other z's), and is verified by pure exponent arithmetic.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .cfrac import Singularity, dual_expand, ij_series, per_pair
from .errors import InputError
from .polyring import _LIMIT, _RANGE


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


@per_pair
def generators(s: Singularity) -> tuple[tuple[int, int], ...]:
    """The exponent pairs (i_t, j_t) of z_1, ..., z_e: ``ij_series(s).pairs``,
    made once per pair."""
    return ij_series(s).pairs


@per_pair
def _a_by_index(s: Singularity) -> MappingProxyType:
    """Read-only map t -> a_t, for 2 <= t <= e-1."""
    return MappingProxyType(dict(enumerate(dual_expand(s), start=2)))


@per_pair
def defining_equations(s: Singularity) -> tuple[BinomialRelation, ...]:
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
        relations.append(BinomialRelation((i, i + 2), ((i + 1, a[i + 1]),)))
        first = ((i + 1, a[i + 1] - 1),)
        middle = ()
        for j in range(i + 3, e + 1):
            last = ((j - 1, a[j - 1] - 1),)
            relations.append(BinomialRelation((i, j), first + middle + last))
            if a[j - 1] > 2:  # z_{j-1} is interior from j + 1 on
                middle += ((j - 1, a[j - 1] - 2),)
    return tuple(relations)


def verify_presentation(s: Singularity, relations) -> bool:
    """Substitute z_t -> x^{i_t} y^{j_t} into every relation of the list
    (``defining_equations(s)`` in the reports) and compare exponents on both
    sides."""
    pairs = generators(s)
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


def right_codes(relations, z) -> list[int]:
    """The code of p_ij for each relation z_i z_j = p_ij of the list
    (``defining_equations(s)`` in the reports), where z maps each index t
    to the code of z_t.  z_t^e is e times that code, which stays in z_t's
    field only under the exponent ceiling, so each e is checked against it."""
    codes = []
    for rel in relations:
        right = 0
        for t, e in rel.right:
            if e >= _LIMIT:
                raise InputError(_RANGE)
            right += e * z[t]
        codes.append(right)
    return codes
