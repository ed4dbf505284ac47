"""Exact sparse multivariate polynomials with weighted monomial orders.

Coefficients are exact rationals stored integer-first: each is an ``int`` or
a ``Fraction``, never a float.  Integral input is made an ``int`` on entry,
so the common products and sums run in integer arithmetic; a ``Fraction`` is
made only from non-integral input or at the three division sites
(``monic``, ``normal_form`` and ``s_polynomial``), whose exact quotient is a
sign change when the divisor is a unit.  Arithmetic among Fractions may leave
an integral Fraction, which is harmless: ``3 == Fraction(3)`` and the two hash
and print alike, so the representation never shows in results.  No floating
point appears anywhere.

Each monomial is one int, its code (the packed exponent vector of Monagan and
Pearce, CASC 2007): over w names, variable k's exponent fills the 16-bit field
at bit 16 * (w - 1 - k) and the total degree sits above all the fields.  A
product of monomials is one int addition, and int order on codes is the
degree-lexicographic key ``(sum(m), m)`` (earlier name = bigger variable).  A
``WeightedOrder`` compares by weight dot-product first, so its key on codes is
``(w.m, code)``; the zero weight is plain int order.  The top bit of each field
is a guard, so exponents are limited to 0..32767 (the ceiling): a product,
power, ``term_multiple``, ``substitute`` or ``normal_form`` result with a guard
bit set raises ``InputError``, never carries.  Two fields below 2**15 sum below
2**16, so one check per result is exact.  The API speaks exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import mul, neg, or_
from struct import Struct
from types import MappingProxyType
from typing import NamedTuple

from .errors import InputError

_BITS = 16
_MASK = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)
_RANGE = f"polyring exponents must lie in 0..{_LIMIT - 1}"


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
    """Ordered, duplicate-free variable names; the order fixes precedence
    and the code layout (``_top`` is the degree's shift)."""

    __slots__ = ("names", "_index", "_top", "_fields", "_guard", "_struct")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate variable names")
        self._index = {name: k for k, name in enumerate(self.names)}
        self._top = _BITS * len(self.names)
        self._fields = (1 << self._top) - 1
        self._guard = self._fields // _MASK << (_BITS - 1)
        self._struct = Struct(f">{len(self.names)}H")

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
        return Polynomial._raw(self, {0: c} if c else {})

    def var(self, name, power=1):
        return Polynomial._raw(self, {self._code(name, power): 1})

    def _code(self, name, power=1):
        """The code of name^power."""
        shift = self._top - _BITS * (self.index(name) + 1)
        if not 0 <= power < _LIMIT:
            raise InputError(_RANGE)
        return power << self._top | power << shift

    def poly(self, terms):
        """Build from a {exponent tuple: coefficient} mapping."""
        return Polynomial(self, terms)

    def _pack(self, exps):
        if len(exps) != len(self.names):
            raise InputError("exponent tuple has the wrong arity")
        if exps and not 0 <= min(exps) <= max(exps) < _LIMIT:
            raise InputError(_RANGE)
        return sum(exps) << self._top | int.from_bytes(self._struct.pack(*exps), "big")

    def _unpack(self, code):
        return self._struct.unpack((code & self._fields).to_bytes(self._struct.size, "big"))

    def _lcm(self, a, b):
        return self._pack(tuple(map(max, self._unpack(a), self._unpack(b))))


class Polynomial:
    """Sparse polynomial: a map from monomial code to nonzero rational."""

    __slots__ = ("table", "_terms")

    def __init__(self, table, terms):
        self.table = table
        clean = {table._pack(exps): _exact(c) for exps, c in terms.items()}
        self._terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def _raw(cls, table, clean_terms):
        # internal: terms are already canonical (codes, nonzero coefficients)
        poly = object.__new__(cls)
        poly.table = table
        poly._terms = clean_terms
        return poly

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, decoded."""
        unpack = self.table._unpack
        return MappingProxyType({unpack(m): c for m, c in self._terms.items()})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.table == other.table and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == self.table.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.table != self.table:
                raise InputError("polynomials over different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.constant(other)
        return None

    def _plus(self, other, sign):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = dict(self._terms)
        for m, c in other._terms.items():
            acc = res.get(m, 0) + sign * c
            if acc:
                res[m] = acc
            else:
                res.pop(m, None)
        return Polynomial._raw(self.table, res)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.table, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.table.zero()
            other = _exact(other)
            return Polynomial._raw(
                self.table, {m: _exact(c * other) for m, c in self._terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 + m2
                acc = res.get(m, 0) + c1 * c2
                if acc:
                    res[m] = acc
                else:
                    res.pop(m, None)
        return _checked(self.table, res)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("only nonnegative integer powers")
        result, base = self.table.one(), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no square past the last bit, which could pass the ceiling
                base = base * base
        return result

    def term_multiple(self, coeff, exps):
        """coeff * x^exps * self, in one pass."""
        return self._shifted(coeff, self.table._pack(exps))

    def _shifted(self, coeff, code):
        if coeff == 0:
            return self.table.zero()
        coeff = _exact(coeff)
        return _checked(
            self.table, {m + code: _exact(c * coeff) for m, c in self._terms.items()}
        )

    def substitute(self, mapping):
        """Replace variables (by name) with polynomials or constants.

        The mapping is classified first; the fields of the variables mapped
        to zero make one mask.  Then one pass over the terms fills one
        accumulator: a term that meets the mask is dropped, a constant scales
        the coefficient and a polynomial multiplies the term out.
        """
        table = self.table
        top = table._top
        zeros, mapped = 0, []
        for name, value in mapping.items():
            shift = top - _BITS * (table.index(name) + 1)
            if isinstance(value, Polynomial):
                if self._coerce(value):
                    mapped.append((shift, None, value))
                    continue
            elif value:
                mapped.append((shift, _exact(value), None))
                continue
            zeros |= _MASK << shift
        res = {}
        for code, coeff in self._terms.items():
            if code & zeros:
                continue
            factor = None
            for shift, scalar, value in mapped:
                e = code >> shift & _MASK
                if not e:
                    continue
                code -= e << top | e << shift
                if value is None:
                    coeff = coeff * scalar**e
                else:
                    power = value**e
                    factor = power if factor is None else factor * power
            if factor is None:
                products = ((code, coeff),)
            else:
                products = ((code + m, coeff * c) for m, c in factor._terms.items())
            for m, c in products:
                acc = res.get(m, 0) + c
                if acc:
                    res[m] = acc
                else:
                    res.pop(m, None)
        return _checked(table, res)

    def __repr__(self):
        return poly_text(self)


def _checked(table, terms):
    """The polynomial of canonical code terms, refused if a guard bit is set."""
    if terms and reduce(or_, terms) & table._guard:
        raise InputError(_RANGE)
    return Polynomial._raw(table, terms)


class WeightedOrder(NamedTuple("WeightedOrder", [("weights", tuple)])):
    """Weight-first comparison, degree-lexicographic tiebreak."""

    __slots__ = ()

    def __new__(cls, weights: tuple):
        if any(w < 0 for w in weights):
            raise InputError("weights must be nonnegative")
        return super().__new__(cls, weights)

    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def deglex(cls, nvars):
        return cls(weights=(0,) * nvars)

    def key(self, exps):
        return (sum(map(mul, self.weights, exps)), sum(exps), exps)


def _code_key(weights, table):
    """The code key sorting as ``WeightedOrder(weights).key``: None (int order)
    for the zero weight, else (w.m, code), reading the weighted fields only."""
    shifts = range(table._top - _BITS, -1, -_BITS)
    fields = [(shift, w) for shift, w in zip(shifts, weights) if w]

    def key(m):
        total = 0
        for shift, w in fields:
            total += w * (m >> shift & _MASK)
        return total, m

    return key if fields else None


def _lead(f, key):
    """(code, coefficient) of the largest term under a ``_code_key``."""
    if not f:
        raise InputError("zero polynomial has no leading term")
    m = max(f._terms, key=key)
    return m, f._terms[m]


def leading_term(f: Polynomial, order: WeightedOrder):
    """(exponent tuple, coefficient) of the order-largest term.

    No request calls it: it is public as part of the Groebner API that the
    tests' Buchberger and sympy oracles import from this module."""
    m, c = _lead(f, _code_key(order.weights, f.table))
    return f.table._unpack(m), c


def monic(f: Polynomial, order: WeightedOrder) -> Polynomial:
    _, c = _lead(f, _code_key(order.weights, f.table))
    if c == 1:
        return f
    return f * _quotient(1, c)


def normal_form(f: Polynomial, basis, order: WeightedOrder) -> Polynomial:
    """Remainder of f under division by basis; no remainder term is
    divisible by a basis leading term, and f - remainder lies in the ideal.

    Monomials are consumed in descending order off a heap; a reduction step
    only introduces strictly smaller monomials, so each is settled once.
    x^g divides x^m iff m - g >= 0 has no guard bit set (a borrow out of a
    field sets its guard); a term past the ceiling lands in the remainder.
    """
    basis = [g for g in basis if g]
    if not basis:
        raise InputError("empty basis")
    table, guard = f.table, f.table._guard
    key = _code_key(order.weights, table)
    rank = neg if key is None else (lambda m: (-key(m)[0], -m))
    binfo = []
    for g in basis:
        gm, gc = _lead(g, key)
        binfo.append((gm, gc, list(g._terms.items())))
    terms = dict(f._terms)
    heap = [(rank(m), m) for m in terms]
    heapify(heap)
    heappush_, heappop_ = heappush, heappop
    remainder = {}
    while heap:
        _, m = heappop_(heap)
        c = terms.get(m)
        if not c:
            continue
        for gm, gc, gterms in binfo:
            shift = m - gm
            if shift >= 0 and not shift & guard:
                factor = _quotient(c, gc)
                for gm2, gc2 in gterms:
                    mm = gm2 + shift
                    acc = terms.get(mm, 0) - factor * gc2
                    if acc:
                        if mm not in terms:
                            heappush_(heap, (rank(mm), mm))
                        terms[mm] = acc
                    else:
                        terms.pop(mm, None)
                break
        else:
            remainder[m] = c
            del terms[m]
    return _checked(table, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: WeightedOrder) -> Polynomial:
    key = _code_key(order.weights, f.table)
    fm, fc = _lead(f, key)
    gm, gc = _lead(g, key)
    lcm = f.table._lcm(fm, gm)
    return f._shifted(_quotient(1, fc), lcm - fm) - g._shifted(_quotient(1, gc), lcm - gm)


def _reduce_basis(basis, order):
    """Minimalize and tail-reduce to the unique reduced monic basis.

    Only valid on a Groebner basis: dropping an element whose leading
    monomial is divisible by another's keeps both the basis property and
    the ideal there.
    """
    basis = [monic(g, order) for g in basis if g]
    key = _code_key(order.weights, basis[0].table)
    guard = basis[0].table._guard
    lts = [_lead(g, key)[0] for g in basis]
    keep = []
    for i, m in enumerate(lts):
        if any(
            j != i and m >= lt and not (m - lt) & guard and (lt != m or j < i)
            for j, lt in enumerate(lts)
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
    return sorted(reduced, key=lambda g: (key or int)(_lead(g, key)[0]))


def buchberger(gens, order: WeightedOrder):
    """The reduced Groebner basis of the ideal generated by gens.

    Normal selection strategy (lowest lcm degree first) with the coprime
    leading-term criterion; plenty at this problem's scale.

    No request calls it: it is public as the tests' Buchberger oracle for
    the Groebner cones and the versal base ideal.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise InputError("no nonzero generators")
    table = gens[0].table
    key = _code_key(order.weights, table)
    G, lms, heap = [], [], []

    def add(g):
        # pairs (k, new) pop by lcm degree, then in the order they were made
        G.append(monic(g, order))
        lms.append(_lead(g, key)[0])
        new = len(G) - 1
        for k in range(new):
            heappush(heap, (table._lcm(lms[k], lms[new]) >> table._top, new, k))

    for g in gens:
        add(g)
    while heap:
        _, j, i = heappop(heap)
        if table._lcm(lms[i], lms[j]) != lms[i] + lms[j]:  # skip coprime leading terms
            r = normal_form(s_polynomial(G[i], G[j], order), G, order)
            if r:
                add(r)
    return _reduce_basis(G, order)


def poly_text(f: Polynomial, order: WeightedOrder | None = None) -> str:
    """Canonical text: terms by descending order, rational coefficients.  The
    nonzero fields are found by ``bit_length``, most significant first.

    One list takes every piece of the text: each term's sign, then its
    coefficient and its factors (a name and its ``^e``), each closed by a
    ``*``.  The ``*`` after a term's last piece is popped, the first sign
    loses its spaces, and the list is joined once."""
    if not f:
        return "0"
    table = f.table
    names, last, fields, terms = table.names, len(table.names) - 1, table._fields, f._terms
    key = None if order is None else _code_key(order.weights, table)
    pieces = []
    append = pieces.append
    for m in sorted(terms, key=key, reverse=True):
        c = terms[m]
        if c < 0:
            append(" - ")
            c = -c
        else:
            append(" + ")
        m &= fields
        if c != 1 or not m:
            append(str(c))
            append("*")
        while m:
            shift = (m.bit_length() - 1) & -_BITS
            e = m >> shift
            m ^= e << shift
            append(names[last - shift // _BITS])
            if e != 1:
                append(f"^{e}")
            append("*")
        pieces.pop()
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)
