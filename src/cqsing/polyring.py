"""Exact sparse multivariate polynomials with weighted monomial orders.

Coefficients are exact rationals stored integer-first: each is an ``int`` or
a ``Fraction``, never a float.  Integral input is made an ``int`` on entry,
so the common products and sums run in integer arithmetic; a ``Fraction`` is
made only from non-integral input or at the three division sites
(``monic``, ``normal_form`` and ``s_polynomial``), whose exact quotient is a
sign change when the divisor is a unit.  Arithmetic among Fractions may leave
an integral Fraction, which is harmless: ``3 == Fraction(3)`` and the two hash
and print alike, so the representation never shows in results.  The
Groebner-fan boundaries are decided by exact sign tests, so no floating point
appears anywhere.  Monomials are plain exponent tuples, one slot per
variable of a ``VariableTable``.  A ``WeightedOrder`` compares by weight
dot-product first and falls back to degree-lexicographic comparison with the
table's variable precedence (earlier name = bigger variable); the zero weight
vector is thus the plain degree-lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, neg, sub

from .errors import InputError


def exp_mul(a, b):
    return tuple(map(add, a, b))


def exp_div(a, b):
    return tuple(map(sub, a, b))


def exp_divides(a, b):
    """True if x^a divides x^b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is not Fraction:
        if type(c) is int:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """a / b exactly: a sign change when b is a unit, else an exact
    Fraction made int when integral (int / int would be a float)."""
    if b == 1:
        return a
    if b == -1:
        return -a
    return _exact(Fraction(a, b))


class VariableTable:
    """Ordered, duplicate-free variable names; the order fixes precedence."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate variable names")
        self._index = {name: k for k, name in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, VariableTable) and self.names == other.names
        )

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableTable{self.names}"

    def index(self, name):
        if name not in self._index:
            raise InputError(f"unknown variable {name!r}")
        return self._index[name]

    def zero(self):
        return Polynomial._raw(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = _exact(c)
        if c == 0:
            return self.zero()
        return Polynomial._raw(self, {(0,) * len(self.names): c})

    def var(self, name, power=1):
        exps = [0] * len(self.names)
        exps[self.index(name)] = power
        return Polynomial._raw(self, {tuple(exps): 1})

    def poly(self, terms):
        """Build from a {exponent tuple: coefficient} mapping."""
        return Polynomial(self, terms)


class Polynomial:
    """Sparse polynomial: a map from exponent tuple to nonzero rational."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        clean = {}
        width = len(table)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise InputError("exponent tuple has the wrong arity")
            coeff = _exact(coeff)
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, table, clean_terms):
        # internal: terms are already canonical (tuples, nonzero int or
        # Fraction coefficients)
        poly = object.__new__(cls)
        poly.table = table
        poly.terms = clean_terms
        return poly

    # -- predicates ---------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.table == other.table and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.table.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.table != self.table:
                raise InputError("polynomials over different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = dict(self.terms)
        for m, c in other.terms.items():
            acc = res.get(m, 0) + c
            if acc:
                res[m] = acc
            else:
                res.pop(m, None)
        return Polynomial._raw(self.table, res)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = dict(self.terms)
        for m, c in other.terms.items():
            acc = res.get(m, 0) - c
            if acc:
                res[m] = acc
            else:
                res.pop(m, None)
        return Polynomial._raw(self.table, res)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.table.zero()
            other = _exact(other)
            return Polynomial._raw(
                self.table, {m: _exact(c * other) for m, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = exp_mul(m1, m2)
                acc = res.get(m, 0) + c1 * c2
                if acc:
                    res[m] = acc
                else:
                    res.pop(m, None)
        return Polynomial._raw(self.table, res)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("only nonnegative integer powers")
        result = self.table.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def term_multiple(self, coeff, exps):
        """coeff * x^exps * self, in one pass."""
        if coeff == 0:
            return self.table.zero()
        coeff = _exact(coeff)
        return Polynomial._raw(
            self.table,
            {exp_mul(m, exps): _exact(c * coeff) for m, c in self.terms.items()},
        )

    def substitute(self, mapping):
        """Replace variables (by name) with polynomials or constants."""
        return substitute_all((self,), mapping)[0]

    def __repr__(self):
        return poly_text(self)


def substitute_all(polys, mapping):
    """Each polynomial of ``polys`` (one variable table) with the variables of
    ``mapping`` (by name) replaced by polynomials or constants.

    The mapping is classified once for the whole list.  Then one pass over
    each polynomial's terms fills one accumulator: a term with a variable
    mapped to zero is dropped, a constant scales the coefficient and a
    polynomial multiplies the term out.
    """
    if not polys:
        return []
    first = polys[0]
    table = first.table
    zeros, scalars, poly_values = [], {}, {}
    for name, value in mapping.items():
        k = table.index(name)
        if isinstance(value, Polynomial):
            if first._coerce(value):
                poly_values[k] = value
                continue
        elif value:
            scalars[k] = _exact(value)
            continue
        zeros.append(k)
    mapped = list(scalars) + list(poly_values)
    out = []
    for poly in polys:
        first._coerce(poly)  # raises for a polynomial over another table
        res = {}
        for exps, coeff in poly.terms.items():
            if any(map(exps.__getitem__, zeros)):
                continue
            kept = list(exps)
            factor = None
            for k in mapped:
                e = exps[k]
                if not e:
                    continue
                kept[k] = 0
                if k in scalars:
                    coeff = coeff * scalars[k] ** e
                else:
                    power = poly_values[k] ** e
                    factor = power if factor is None else factor * power
            kept = tuple(kept)
            if factor is None:
                products = ((kept, coeff),)
            else:
                products = ((exp_mul(kept, m), coeff * c) for m, c in factor.terms.items())
            for m, c in products:
                acc = res.get(m, 0) + c
                if acc:
                    res[m] = acc
                else:
                    res.pop(m, None)
        out.append(Polynomial._raw(table, res))
    return out


@dataclass(frozen=True)
class WeightedOrder:
    """Weight-first comparison, degree-lexicographic tiebreak."""

    weights: tuple

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise InputError("weights must be nonnegative")

    @classmethod
    def deglex(cls, nvars):
        return cls(weights=(0,) * nvars)

    def key(self, exps):
        w = 0
        deg = 0
        for wi, ei in zip(self.weights, exps):
            w += wi * ei
            deg += ei
        return (w, deg, exps)


def weight_of(exps, weights):
    return sum(wi * ei for wi, ei in zip(weights, exps))


def leading_term(f: Polynomial, order: WeightedOrder):
    """(exponent tuple, coefficient) of the order-largest term."""
    if not f:
        raise InputError("zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def monic(f: Polynomial, order: WeightedOrder) -> Polynomial:
    _, c = leading_term(f, order)
    if c == 1:
        return f
    return f * _quotient(1, c)


def initial_form(f: Polynomial, weights) -> Polynomial:
    """Sum of the terms of maximal weight dot-product."""
    if not f:
        raise InputError("zero polynomial has no initial form")
    best = None
    chosen = {}
    for m, c in f.terms.items():
        w = weight_of(m, weights)
        if best is None or w > best:
            best = w
            chosen = {m: c}
        elif w == best:
            chosen[m] = c
    return Polynomial._raw(f.table, chosen)


def _neg_key(key):
    w, deg, exps = key
    return (-w, -deg, tuple(map(neg, exps)))


def normal_form(f: Polynomial, basis, order: WeightedOrder) -> Polynomial:
    """Remainder of f under division by basis; no remainder term is
    divisible by a basis leading term, and f - remainder lies in the ideal.

    Monomials are consumed in descending order off a heap; a reduction step
    only introduces strictly smaller monomials, so each is settled once.
    """
    basis = [g for g in basis if g]
    if not basis:
        raise InputError("empty basis")
    binfo = []
    for g in basis:
        gm, gc = leading_term(g, order)
        binfo.append((gm, gc, list(g.terms.items())))
    key = order.key
    terms = dict(f.terms)
    heap = [(_neg_key(key(m)), m) for m in terms]
    heapify(heap)
    heappush_, heappop_ = heappush, heappop
    remainder = {}
    while heap:
        _, m = heappop_(heap)
        c = terms.get(m)
        if not c:
            continue
        for gm, gc, gterms in binfo:
            if exp_divides(gm, m):
                factor = _quotient(c, gc)
                shift = exp_div(m, gm)
                for gm2, gc2 in gterms:
                    mm = exp_mul(gm2, shift)
                    acc = terms.get(mm, 0) - factor * gc2
                    if acc:
                        if mm not in terms:
                            heappush_(heap, (_neg_key(key(mm)), mm))
                        terms[mm] = acc
                    else:
                        terms.pop(mm, None)
                break
        else:
            remainder[m] = c
            del terms[m]
    return Polynomial._raw(f.table, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: WeightedOrder) -> Polynomial:
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    lcm = exp_lcm(fm, gm)
    return f.term_multiple(_quotient(1, fc), exp_div(lcm, fm)) - g.term_multiple(
        _quotient(1, gc), exp_div(lcm, gm)
    )


def _interreduce(basis, order):
    """Replace each element by its remainder against the others until
    stable.  Unlike minimalization this is safe on arbitrary generators:
    g and normal_form(g, others) generate the same ideal together with
    the others, so the ideal never changes."""
    basis = [monic(g, order) for g in basis if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            if not others:
                continue
            r = normal_form(basis[i], others, order)
            if r == basis[i]:
                continue
            changed = True
            if r:
                basis[i] = monic(r, order)
            else:
                basis.pop(i)
            break
    basis.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return basis


def _reduce_basis(basis, order):
    """Minimalize and tail-reduce to the unique reduced monic basis.

    Only valid on a Groebner basis: dropping an element whose leading
    monomial is divisible by another's keeps both the basis property and
    the ideal there.
    """
    basis = [monic(g, order) for g in basis if g]
    lts = [leading_term(g, order)[0] for g in basis]
    keep = []
    for i, m in enumerate(lts):
        if any(
            j != i and exp_divides(lts[j], m) and (lts[j] != m or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(basis[i])
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        if others:
            g = normal_form(g, others, order)
        reduced.append(monic(g, order))
    # a tail reduction may expose new reducibility; iterate to a fixed point
    if reduced != keep:
        return _reduce_basis(reduced, order)
    reduced.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return reduced


def buchberger(gens, order: WeightedOrder):
    """The reduced Groebner basis of the ideal generated by gens.

    Normal selection strategy (lowest lcm degree first) with the coprime
    leading-term criterion; plenty at this problem's scale.
    """
    G = [g for g in gens if g]
    if not G:
        raise InputError("no nonzero generators")
    G = _interreduce(G, order)
    lms = [leading_term(g, order)[0] for g in G]
    heap = []
    counter = 0
    for i in range(len(G)):
        for j in range(i):
            lcm = exp_lcm(lms[i], lms[j])
            heappush(heap, (sum(lcm), counter, j, i))
            counter += 1
    while heap:
        _, _, i, j = heappop(heap)
        fi, fj = G[i], G[j]
        lcm = exp_lcm(lms[i], lms[j])
        if lcm == exp_mul(lms[i], lms[j]):  # coprime leading terms
            continue
        r = normal_form(s_polynomial(fi, fj, order), G, order)
        if not r:
            continue
        G.append(monic(r, order))
        lms.append(leading_term(r, order)[0])
        new = len(G) - 1
        for k in range(new):
            lcm = exp_lcm(lms[k], lms[new])
            heappush(heap, (sum(lcm), counter, k, new))
            counter += 1
    return _reduce_basis(G, order)


def poly_text(f: Polynomial, order: WeightedOrder | None = None) -> str:
    """Canonical text: terms by descending order, rational coefficients."""
    if not f:
        return "0"
    # (degree, exponents) sorts as the zero-weight deglex key (0, degree, exponents)
    key = order.key if order is not None else lambda m: (sum(m), m)
    names = f.table.names
    parts = []
    for m in sorted(f.terms, key=key, reverse=True):
        c = f.terms[m]
        body = "*".join(
            names[k] if e == 1 else f"{names[k]}^{e}"
            for k, e in compress(enumerate(m), m)
        )
        mag = abs(c)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts)
