"""Versal deformation equations: tangent dimension, the text of the
hypersurface family, and the explicit base/total ideals for embedding
dimension >= 4.

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
  a t, z -> 0 elsewhere), H_z first, dropping zeros.  No two are equal, so
  no repeat is searched for.  H_z(P_ij) is 0 or a monomial whose s-variables
  run from index i + 1 to j - 1, both present (the one index i + 1, with
  t_{i+1}, when j = i + 2), so distinct pairs give distinct monomials.
  H_w(P_ij) is nonzero only when j > i + 2 and a_{i+1} = 2 (else w_{i+1},
  with H_w(w_{i+1}) = 0, is a factor); then t_{i+1} exists, as
  3 <= i + 1 <= e - 2, so it has at least two terms, and its all-s term is
  H_z(P_ij).  ``_running_products`` inserts the pairs lexicographically,
  so they come sorted.  A test sweep checks both facts.

H_z, H_w and S (s = t = 0) each send every variable to a polynomial, so
each is a ring homomorphism: the image of a product is the product of the
images.  Every P_ij is a product of w and trunc factors, so the images of
each factor are computed once,

    H_z(w_j) = t_j (0 if w_j has no t),   H_w(w_j) = 0,   S(w_j) = z_j,
    H_z(trunc(m, d)) = s_m^(d),           S(trunc(m, d)) = z_m^d,
    H_w(trunc(m, d)) = trunc(m, d) at z_m = -t_m (s_m^(d) if no t_m),

and the factors of P and their three image families are each multiplied
out by the same running product, where an image that is 0 stays 0.  For
fixed i, P_{i,j+1} has one more interior factor than P_ij and another last
factor, so a running product of the first and interior factors grows by
one factor as j steps up; the interior factors trunc(m, 0) = 1 are
skipped.  ``versal_presentation`` multiplies out the P family, the
relations that ``deform`` prints, and its H_z and H_w images, for the
pairs with i >= 2, for the base ideal.  ``images_at_zero`` walks the same
running product over the S images alone, over all pairs: every S image is
one monomial with coefficient 1, so it is kept as its code, the product of
two is the sum of their codes (``operator.add`` in place of the dict
product), S(P_ij) is one code, and ``verify`` checks s = t = 0 on these
without building the family.

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
z_i divides no term of P_ij, so the relation z_i w_j - P_ij is one dict:
the terms of z_i w_j, then those of P_ij negated.  ``deformation_variables``
makes the code of each z_j once (``DeformationVariables.z``); the
families, the parameter mask and both s = t = 0 checks read it there.

No code is range-checked term by term.  Every exponent of the family and
of its H images is at most max a_m: z_{i+1}^{a_{i+1}} in P_{i,i+2}, and
t_m^{a_m - 1} in H_w(trunc(m, a_m - 1)); every other exponent is 1 or
below a_m.  So ``deformation_variables`` refuses max a_m >= 32768, the
polyring exponent ceiling, once per family, and each relation and base
generator is made a Polynomial as it stands, no guard bit possible.  The
parameter ceiling below already keeps max a_m <= 2049.

s = t = 0 is checked one pair at a time: S(P_ij) must be the monomial p_ij
of its own pair, packed from the ``defining_equations`` exponents and the
z codes by ``invariant_ring.right_codes``, never from the family's factors.
``images_specialize``, which ``verify`` runs, reads S(P_ij) off
``images_at_zero``.  ``specializes``, which ``deform`` runs, reads it off
the printed relations: the z's come first in the table, so the parameters
fill its low fields, all below z_e's, and S is one mask.  One pass over
each relation's codes keeps the terms that share no bit with it; since
S(z_i w_j) = z_i z_j, S(P_ij) = z_i z_j - S(z_i w_j - P_ij), which must be
one code with coefficient 1.  Both feed the same comparison of pair -> code
maps.

Two ceilings bound the family before any name or code is made: e <= 128
(``MAX_VERSAL_E``) and at most 2048 parameters (``MAX_VERSAL_PARAMETERS``,
the tangent dimension), since each parameter is one 16-bit field of every
code.  Over either, ``deformation_variables`` raises ``InputError``.  The
first is read by ``check_ceilings`` in O(log n), before either expansion.

For e = 3 the singularity is the hypersurface z1 z3 = z2^n and the versal
family is the one-equation deformation by a degree-(n-2) polynomial in z2;
its z2^n is over the polyring exponent ceiling from n = 32768 on, which
``check_ceilings`` also refuses before any name is made.  The reports
write its text from the closed form (``hypersurface_text``) and count its
n - 1 parameters; no table or polynomial of it is built.  The tests pack
the family, n + 1 codes over n + 2 names, as the oracle of that text.
"""

from __future__ import annotations

from operator import add, neg
from types import MappingProxyType
from typing import NamedTuple

from .cfrac import Singularity, dual_expand, embedding_dimension, per_pair
from .errors import ConsistencyError, InputError
from .invariant_ring import _a_by_index, right_codes
from .polyring import _LIMIT, _RANGE, Polynomial, VariableTable


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
    a_entries: MappingProxyType[int, int]  # index t -> a_t, for 2 <= t <= e-1
    table: VariableTable
    z: MappingProxyType[int, int]  # index j -> the code of z_j, for 1 <= j <= e
    s_names: MappingProxyType[tuple[int, int], str]
    t_names: MappingProxyType[int, str]

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(self.s_names.values()) + tuple(self.t_names.values())


class VersalPresentation(NamedTuple):
    """Base and total ideals of the versal family (e >= 4)."""

    variables: DeformationVariables
    pairs: tuple[tuple[int, int], ...]
    relations: tuple[Polynomial, ...]  # z_i w_j - P_ij, aligned with pairs
    base_ideal: tuple[Polynomial, ...]


def check_ceilings(s: Singularity) -> int:
    """The embedding dimension e, read without expanding the dual chain
    (``embedding_dimension``), after checking the ceilings of the families
    on it: e <= 128 and, for e = 3, z2^n under the polyring exponent
    ceiling."""
    e = embedding_dimension(s)
    if e > MAX_VERSAL_E:
        raise InputError(f"e = {e} is over the versal ceiling e <= {MAX_VERSAL_E}")
    if e == 3 and s.n >= _LIMIT:
        raise InputError(_RANGE)
    return e


@per_pair
def dim_t1(s: Singularity) -> int:
    """Dimension of the space of first-order deformations.

    sum(a_i - 1) + (e - 4) for e >= 4; for e = 3 the quotient is the
    hypersurface z1 z3 = z2^n whose Tjurina algebra C[z2]/(z2^{n-1}) has
    dimension n - 1.
    """
    dual = dual_expand(s)
    e = len(dual) + 2
    if e == 3:
        return s.n - 1
    return sum(a - 1 for a in dual) + (e - 4)


def deformation_variables(s: Singularity) -> DeformationVariables:
    if s.q == s.n - 1:  # e = 3: the dual expansion is [n]
        raise InputError("construction needs embedding dimension >= 4")
    e = check_ceilings(s)
    count = dim_t1(s)
    if count > MAX_VERSAL_PARAMETERS:
        raise InputError(
            f"{count} deformation parameters are over the versal ceiling of "
            f"{MAX_VERSAL_PARAMETERS}"
        )
    a_entries = _a_by_index(s)
    # every exponent of the family and of its H images is at most max a_m
    # (module docstring), so this one bound keeps every code in its fields
    if max(a_entries.values()) >= _LIMIT:
        raise InputError(_RANGE)
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
        a_entries=a_entries,
        table=table,
        z=MappingProxyType({j: table._code(f"z{j}") for j in range(1, e + 1)}),
        s_names=MappingProxyType(s_names),
        t_names=MappingProxyType(t_names),
    )


def _trunc(v: DeformationVariables, m: int, d: int, var=None, sign=1) -> dict:
    """trunc(m, d), d >= 1, at z_m = sign * x as a code dict, where var is
    the code of x: the terms (sign * x)^(d-k) s_m^(k), k = 0..d, with
    s_m^(0) = 1; var None puts z_m = 0, leaving s_m^(d)."""
    code = v.table._code
    if var is None:
        return {code(v.s_names[(m, d)]): 1}
    s = [0] + [code(v.s_names[(m, k)]) for k in range(1, d + 1)]
    return {(d - k) * var + s[k]: sign ** (d - k) for k in range(d + 1)}


def _product(f: dict, g: dict) -> dict:
    """f * g for code dicts none of whose term products coincide."""
    res = {m1 + m2: c1 * c2 for m1, c1 in f.items() for m2, c2 in g.items()}
    if len(res) != len(f) * len(g):
        raise ConsistencyError("two term products of versal factors coincide")
    return res


def _running_products(
    v: DeformationVariables, w: dict, trunc, first: int, product=_product
) -> dict:
    """{(i, j): P_ij} over the pairs with i >= first, in one factor family:
    w[j] is the family's w_j, trunc(m, d) its trunc(m, d), d >= 1, and
    product multiplies two of them."""
    a, e = v.a_entries, len(v.z)
    last = {m: trunc(m, a[m] - 1) for m in a}
    inner = {m: trunc(m, a[m] - 2) for m in a if a[m] > 2}  # F(m) = w_m inner[m]
    products = {}
    for i in range(first, e - 1):
        products[(i, i + 2)] = product(w[i + 1], last[i + 1])
        run = product(w[i + 1], inner[i + 1]) if i + 1 in inner else last[i + 1]
        for j in range(i + 3, e + 1):
            products[(i, j)] = product(run, last[j - 1])
            if j - 1 in inner:  # z_{j-1} is interior from j + 1 on
                run = product(run, inner[j - 1])
    return products


def versal_presentation(s: Singularity) -> VersalPresentation:
    """Base and total ideals of the versal family (e >= 4): the relations
    z_i w_j - P_ij and the base ideal of their H_z and H_w images.

    Pairs are listed adjacent ones first, then the rest lexicographically.
    """
    v = deformation_variables(s)
    e, table, z = len(v.z), v.table, v.z
    t = {j: table._code(name) for j, name in v.t_names.items()}
    w = {j: {z[j]: 1} for j in z}
    for j, c in t.items():
        w[j][c] = 1
    products = _running_products(v, w, lambda m, d: _trunc(v, m, d, z[m]), 1)
    adjacent = [(i, i + 2) for i in range(1, e - 1)]
    longer = [
        (i, j) for i in range(1, e - 1) for j in range(i + 3, e + 1)
    ]
    pairs = adjacent + longer
    relations = []
    for i, j in pairs:
        # z_i divides no term of P_ij, so the two sides share no monomial
        p = products[(i, j)]
        rel = {z[i] + m: 1 for m in w[j]}
        rel.update(zip(p, map(neg, p.values())))
        relations.append(Polynomial._raw(table, rel))
    # H_z(w_j) = t_j (0 without one) and H_w(w_j) = 0 (module docstring)
    w_z = {j: {t[j]: 1} if j in t else {} for j in z}
    h_z = _running_products(v, w_z, lambda m, d: _trunc(v, m, d), 2)
    w_w = dict.fromkeys(z, {})
    h_w = _running_products(v, w_w, lambda m, d: _trunc(v, m, d, t.get(m), -1), 2)
    # sorted pairs, and no two nonzero images are equal (module docstring)
    base = [h for pair in h_z for h in (h_z[pair], h_w[pair]) if h]
    return VersalPresentation(
        variables=v,
        pairs=tuple(pairs),
        relations=tuple(relations),
        base_ideal=tuple(Polynomial._raw(table, h) for h in base),
    )


def hypersurface_text(n: int) -> str:
    """``poly_text`` of the e = 3 equation z1 z3 - z2^n - sum_k c_k z2^k
    (k <= n - 2), written from its closed form without a table.

    Its n + 1 terms go by descending degree: z2^n, then z2^k c_k of degree
    k + 1 down to c_0, with z1 z3 first among those of degree 2 (before
    z2^2 when n = 2, else before z2 c_1).
    """
    if n == 2:
        return "z1*z3 - z2^2 - c0"
    high = [f"z2^{n}"] + [f"z2^{k}*c{k}" for k in range(n - 2, 1, -1)]
    return "-" + " - ".join(high) + " + z1*z3 - z2*c1 - c0"


def _parameter_mask(v: DeformationVariables) -> int:
    """The bits of the parameter fields: the z's come first in the table,
    so the parameters fill every field below z_e's."""
    return (v.z[len(v.z)] & v.table._fields) - 1


def images_at_zero(v: DeformationVariables) -> dict[tuple[int, int], int]:
    """{(i, j): the code of P_ij at s = t = 0}, multiplied out over the
    factor images w_j -> z_j and trunc(m, d) -> z_m^d: each is one code, so
    a product of them is a sum of codes; no relation of the family is
    built."""
    return _running_products(v, v.z, lambda m, d: d * v.z[m], 1, add)


def _binomial_at_zero(v: DeformationVariables, relations, pairs, codes) -> bool:
    """Each of ``codes``, the code of P_ij at s = t = 0 aligned with
    ``pairs`` (None where it is no monomial p with coefficient 1), is the
    code of p_ij over ``v``'s table in its own pair's binomial relation in
    ``relations`` (``defining_equations(s)`` in the reports), and there are
    as many."""
    expected = dict(zip((rel.left for rel in relations), right_codes(relations, v.z)))
    return len(codes) == len(expected) and dict(zip(pairs, codes)) == expected


def specializes(pres: VersalPresentation, relations) -> bool:
    """The check of the relations that ``deform`` prints: masked to
    s = t = 0, where z_i w_j is z_i z_j, each relation z_i w_j - P_ij is
    z_i z_j - p_ij, the binomial relation of its own pair in ``relations``.

    Each relation's parameter-free terms are read in one pass over its
    codes; S(P_ij) = z_i z_j - S(z_i w_j - P_ij) must be one code p with
    coefficient 1."""
    z, params = pres.variables.z, _parameter_mask(pres.variables)
    codes = []
    for (i, j), rel in zip(pres.pairs, pres.relations):
        side = {z[i] + z[j]: 1}
        for m, c in rel._terms.items():
            if not m & params:
                side[m] = side.get(m, 0) - c
        kept = [m for m, c in side.items() if c]
        codes.append(kept[0] if len(kept) == 1 and side[kept[0]] == 1 else None)
    return _binomial_at_zero(pres.variables, relations, pres.pairs, codes)


def images_specialize(v: DeformationVariables, relations) -> bool:
    """The check ``verify`` runs, with no family built: the code of each
    P_ij at s = t = 0, read off ``images_at_zero``, is the code of p_ij in
    its own pair in ``relations``."""
    images = images_at_zero(v)
    return _binomial_at_zero(v, relations, images.keys(), images.values())
