"""Versal deformation equations: tangent dimension, the hypersurface family,
and the explicit base/total ideals for embedding dimension >= 4.

Construction data for e >= 4, with a_2..a_{e-1} the dual expansion:

* deformation variables s_i^(k) (2 <= i <= e-1, 1 <= k <= a_i - 1) and
  t_i (3 <= i <= e-2); their count is the tangent dimension;
* w_j = z_j + t_j for 3 <= j <= e-2 and w_j = z_j otherwise;
* the deformed power of z_m of degree d is
  trunc(m, d) = z_m^d + z_m^{d-1} s_m^(1) + ... + s_m^(d);
* the total space is cut by z_i w_j = P_ij over all pairs j >= i + 2, where

      P_ij = w_{i+1} * trunc(i+1, a_{i+1} - 1)                if j = i + 2,
      P_ij = F(i+1) * prod_{i+1<m<j-1} trunc(m, a_m - 2)
                    * trunc(j-1, a_{j-1} - 1)                 if j > i + 2,

  with first factor F(m) = w_m * trunc(m, a_m - 2) when a_m >= 3 and
  F(m) = trunc(m, a_m - 1) when a_m = 2.  Setting s = t = 0 recovers the
  binomial equations exactly;
* the base ideal collects, over the pairs with i >= 2 in sorted order, the
  two evaluations H_z(P) (all z -> 0) and H_w(P) (z_j -> -t_j where w_j has
  a t, z -> 0 elsewhere), H_z first, dropping zeros and repeats.

H_z and H_w only replace the z's, so each is a ring homomorphism: the image
of a product is the product of the images.  Every P_ij is a product of w and
trunc factors, so the images of each factor are computed once,

    H_z(w_j) = t_j (0 if w_j has no t),   H_w(w_j) = 0,
    H_z(trunc(m, d)) = s_m^(d),           H_w(trunc(m, d)) = trunc(m, d) at
                                          z_m = -t_m (s_m^(d) if no t_m),

and P, H_z(P) and H_w(P) are carried through one product loop, where an
image that is 0 stays 0.  For fixed i, P_{i,j+1} has one more interior
factor than P_ij and another last factor, so a running product of the first
and interior factors grows by one factor as j steps up; the interior
factors trunc(m, 0) = 1 are skipped.

The products run in code space: each factor and image is a dict from
monomial code (see ``polyring``) to int coefficient, read off the table
layout, and the image of trunc(m, d) at z_m = -t_m has coefficients
(-1)^(d-k).  No two term products of one P coincide: its factors are in
disjoint variables, except w_m = z_m + t_m against trunc(m, d), where the
index k of s_m^(k) tells the terms of trunc apart and the exponent of t_m
tells z_m * z_m^(d-k) s_m^(k) from t_m * z_m^(d-k) s_m^(k); the images are
products in disjoint variables too.  So a product is the comprehension
{m1 + m2: c1 * c2}, and it raises ``ConsistencyError`` unless it has
len(f) * len(g) terms, so that a coincidence can never overwrite a term.
z_i divides no term of P_ij, so the relation z_i w_j - P_ij is a dict merge.
Each relation and base generator is range-checked once, as a Polynomial.

The z's come first in the table, so the parameters fill its low fields, all
below z_e's, and s = t = 0 is one mask: ``specialized_relations`` keeps the
terms that share no bit with it.  ``specializes`` compares each with the
binomial relation of its own pair, packed from the ``defining_equations``
exponents by ``invariant_ring.relation_polynomials`` and never from the
family's factors.

Two ceilings bound the family before any name or code is made: e <= 128
(``MAX_VERSAL_E``) and at most 2048 parameters (``MAX_VERSAL_PARAMETERS``,
the tangent dimension), since each parameter is one 16-bit field of every
code.  Over either, ``deformation_variables`` raises ``InputError``.

For e = 3 the singularity is the hypersurface z1 z3 = z2^n and the versal
family is the one-equation deformation by a degree-(n-2) polynomial in z2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cfrac import Singularity, dual_expand, embedding_dimension
from .errors import ConsistencyError, InputError
from .invariant_ring import relation_polynomials
from .polyring import Polynomial, VariableTable, _checked


# The versal family's memory grows as e^3 (Theta(e^2) relations over Theta(e)
# variables, whose packed monomials are Theta(e) bits wide): about 120 MB peak
# RSS at e = 128 on CPython 3.11.  deformation_variables refuses a larger e
# before any of it is built.
MAX_VERSAL_E = 128
# e alone does not bound the width: (n, n - 2) for odd n has e = 4 but
# a_2 = (n + 1)/2, so about n/2 parameters, each a 16-bit field of every code.
# (16001, 15999) has 8001 of them and took 6 s and 816 MB peak RSS on a 2-vCPU
# host; at the ceiling, (4095, 4093), it is 0.5 s and 70 MB.
MAX_VERSAL_PARAMETERS = 2048


class DeformationVariables(NamedTuple):
    e: int
    a_entries: dict[int, int]  # index t -> a_t, for 2 <= t <= e-1
    table: VariableTable
    z_names: tuple[str, ...]
    s_names: dict[tuple[int, int], str]
    t_names: dict[int, str]

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(self.s_names.values()) + tuple(self.t_names.values())


class VersalPresentation(NamedTuple):
    variables: DeformationVariables
    pairs: tuple[tuple[int, int], ...]
    relations: tuple[Polynomial, ...]  # z_i w_j - P_ij, aligned with pairs
    base_ideal: tuple[Polynomial, ...]


class HypersurfaceFamily(NamedTuple):
    """z1 z3 = z2^m deformed by the tail c_0 + c_1 z2 + ... + c_{m-2} z2^{m-2}
    (no z2^{m-1} term)."""

    m: int
    table: VariableTable
    equation: Polynomial
    parameters: tuple[str, ...]


def dim_t1(s: Singularity) -> int:
    """Dimension of the space of first-order deformations.

    sum(a_i - 1) + (e - 4) for e >= 4; for e = 3 the quotient is the
    hypersurface z1 z3 = z2^n whose Tjurina algebra C[z2]/(z2^{n-1}) has
    dimension n - 1.
    """
    e = embedding_dimension(s)
    if e == 3:
        return s.n - 1
    return sum(a - 1 for a in dual_expand(s)) + (e - 4)


def discriminant(h) -> Fraction:
    """prod_{i<j} (h_i - h_j)^2; zero exactly when a value repeats."""
    values = [Fraction(x) for x in h]
    if sum(values) != 0:
        raise InputError("root values must sum to zero")
    result = Fraction(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            result *= (values[i] - values[j]) ** 2
    return result


def deformation_variables(s: Singularity) -> DeformationVariables:
    e = embedding_dimension(s)
    if e < 4:
        raise InputError("construction needs embedding dimension >= 4")
    if e > MAX_VERSAL_E:
        raise InputError(f"e = {e} is over the versal ceiling e <= {MAX_VERSAL_E}")
    count = dim_t1(s)
    if count > MAX_VERSAL_PARAMETERS:
        raise InputError(
            f"{count} deformation parameters are over the versal ceiling of "
            f"{MAX_VERSAL_PARAMETERS}"
        )
    a_entries = {t: a for t, a in enumerate(dual_expand(s), start=2)}
    z_names = tuple(f"z{i}" for i in range(1, e + 1))
    s_names = {}
    for i in range(2, e):
        for k in range(1, a_entries[i]):
            s_names[(i, k)] = f"s{i}({k})"
    t_names = {i: f"t{i}" for i in range(3, e - 1)}
    table = VariableTable(
        z_names + tuple(s_names.values()) + tuple(t_names.values())
    )
    return DeformationVariables(
        e=e,
        a_entries=a_entries,
        table=table,
        z_names=z_names,
        s_names=s_names,
        t_names=t_names,
    )


def _trunc_with_images(v: DeformationVariables, m: int, d: int):
    """trunc(m, d), d >= 1, with its images H_z and H_w, as code dicts."""
    code = v.table._code
    z = code(f"z{m}")
    s = [0] + [code(v.s_names[(m, k)]) for k in range(1, d + 1)]  # s_m^(0) = 1
    h_w = {s[d]: 1}
    if m in v.t_names:  # trunc(m, d) at z_m = -t_m
        t = code(v.t_names[m])
        h_w = {(d - k) * t + s[k]: (-1) ** (d - k) for k in range(d + 1)}
    return {(d - k) * z + s[k]: 1 for k in range(d + 1)}, {s[d]: 1}, h_w


def _product(f: dict, g: dict) -> dict:
    """f * g for code dicts none of whose term products coincide."""
    res = {m1 + m2: c1 * c2 for m1, c1 in f.items() for m2, c2 in g.items()}
    if len(res) != len(f) * len(g):
        raise ConsistencyError("two term products of versal factors coincide")
    return res


def _times(x, y):
    """Product of two (P, H_z(P), H_w(P)) triples; a zero image stays {}."""
    return tuple(map(_product, x, y))


def versal_presentation(s: Singularity) -> VersalPresentation:
    """Base and total ideals of the versal family (e >= 4).

    Pairs are listed adjacent ones first, then the rest lexicographically.
    """
    v = deformation_variables(s)
    e, a, table = v.e, v.a_entries, v.table
    code = table._code
    z = {j: {code(name): 1} for j, name in enumerate(v.z_names, start=1)}
    w = {}
    for j in z:
        t = {code(v.t_names[j]): 1} if j in v.t_names else {}
        w[j] = ({**z[j], **t}, t, {})
    # trunc(m, a_m - 1) and, where it is not 1, trunc(m, a_m - 2), with images
    last = {m: _trunc_with_images(v, m, a[m] - 1) for m in a}
    inner = {m: _trunc_with_images(v, m, a[m] - 2) for m in a if a[m] > 2}
    products = {}
    for i in range(1, e - 1):
        products[(i, i + 2)] = _times(w[i + 1], last[i + 1])
        run = _times(w[i + 1], inner[i + 1]) if i + 1 in inner else last[i + 1]
        if i == 1:  # the base ideal takes no images of the P_1j
            run = (run[0], {}, {})
        for j in range(i + 3, e + 1):
            products[(i, j)] = _times(run, last[j - 1])
            if j - 1 in inner:  # z_{j-1} is interior from j + 1 on
                run = _times(run, inner[j - 1])
    adjacent = [(i, i + 2) for i in range(1, e - 1)]
    longer = [
        (i, j) for i in range(1, e - 1) for j in range(i + 3, e + 1)
    ]
    pairs = adjacent + longer
    relations = []
    for i, j in pairs:
        # z_i divides no term of P_ij, so the two sides share no monomial
        rel = _product(z[i], w[j][0])
        rel.update({m: -c for m, c in products[(i, j)][0].items()})
        relations.append(_checked(table, rel))
    # keyed by the terms: the first of equal generators, in insertion order
    base = {}
    for pair in sorted(products):
        if pair[0] >= 2:
            for h in products[pair][1:]:
                if h:
                    base.setdefault(frozenset(h.items()), h)
    return VersalPresentation(
        variables=v,
        pairs=tuple(pairs),
        relations=tuple(relations),
        base_ideal=tuple(_checked(table, h) for h in base.values()),
    )


def hypersurface_presentation(s: Singularity) -> HypersurfaceFamily:
    """The e = 3 route: one deformed equation z1 z3 = z2^n + tail (m = n)."""
    if embedding_dimension(s) != 3:
        raise InputError("only for embedding dimension 3")
    n = s.n
    params = tuple(f"c{k}" for k in range(n - 1))
    table = VariableTable(("z1", "z2", "z3") + params)
    code = table._code
    # z1 z3 - z2^n - sum_k c_k z2^k, its n + 1 terms packed into one dict
    terms = {code("z1") + code("z3"): 1, code("z2", n): -1}
    terms.update({code("z2", k) + code(c): -1 for k, c in enumerate(params)})
    equation = Polynomial._raw(table, terms)
    return HypersurfaceFamily(m=n, table=table, equation=equation, parameters=params)


def specialized_relations(pres: VersalPresentation) -> list[Polynomial]:
    """The total-space relations at s = t = 0 (still over the big table):
    each relation's terms that share no bit with the parameter fields."""
    table = pres.variables.table
    params = (table._code(pres.variables.z_names[-1]) & table._fields) - 1
    return [
        Polynomial._raw(table, {m: c for m, c in rel._terms.items() if not m & params})
        for rel in pres.relations
    ]


def specializes(s: Singularity, pres: VersalPresentation, relations) -> bool:
    """Each relation of ``pres`` at s = t = 0 is the binomial relation of its
    own pair in ``relations`` (``defining_equations(s)`` in the reports), and
    there are as many of them."""
    _, expected = relation_polynomials(s, relations, pres.variables.table)
    by_pair = {rel.left: poly for rel, poly in zip(relations, expected)}
    got = specialized_relations(pres)
    return len(got) == len(expected) and dict(zip(pres.pairs, got)) == by_pair
