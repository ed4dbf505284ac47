import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from cqsing import cli, gfan, polyring, toric
from cqsing.cfrac import Singularity, curve_count
from cqsing.errors import ConsistencyError, InputError
from cqsing.gfan import (
    certify_basis,
    fans_equal,
    groebner_fan,
)
from cqsing.mckay import g_clusters
from cqsing.polyring import (
    _BITS,
    _MASK,
    Polynomial,
    WeightedOrder,
    buchberger,
    leading_term,
    normal_form,
    poly_text,
    s_polynomial,
)
from cqsing.toric import resolution_fan

from conftest import (
    XY,
    BoundaryWeightError,
    cone_of_weight,
    coprime_pairs,
    orbit_gens,
    row_poly,
    row_polys,
)


def term_map(poly):
    return dict(poly.terms)


def standard_count_by_columns(leads):
    """Oracle for ``gfan._standard_count``: the staircase summed column by
    column, O(width * #leads)."""
    width = min((a for a, b in leads if b == 0), default=None)
    if width is None or all(a for a, _ in leads):
        return None
    return sum(min(b for a, b in leads if a <= col) for col in range(width))


def cone_rays_by_search(inequalities):
    """Oracle for the rays ``gfan._certified_cone`` reads off a cluster's
    corners: the boundary rays of {w >= 0 componentwise, d.w >= 0 for all
    d}, found among the lines d.w = 0 and the axes, ordered by slope."""

    def primitive(v):
        g = gcd(abs(v[0]), abs(v[1]))
        return (v[0] // g, v[1] // g)

    candidates = {(1, 0), (0, 1)}
    for d in inequalities:
        candidates.add((d[1], -d[0]))
        candidates.add((-d[1], d[0]))
    feasible = [
        c
        for c in candidates
        if c[0] >= 0 and c[1] >= 0 and (c[0] or c[1])
        and all(d[0] * c[0] + d[1] * c[1] >= 0 for d in inequalities)
    ]
    assert feasible, "cone has no boundary rays"
    feasible = sorted(
        {primitive(c) for c in feasible},
        key=lambda c: (1, 0) if c[0] == 0 else (0, Fraction(c[1], c[0])),
    )
    return feasible[0], feasible[-1]


def certify_basis_by_codes(basis, s, w):
    """Oracle for ``certify_basis`` over polynomials: steps 2-3 of the gfan
    module docstring decoded from polyring's codes.  One pass over each
    element's codes decodes x^a y^b (a in the field at bit _BITS, b in the
    field at bit 0), keeps the larger (w.m, code) as the lead (the order of
    ``WeightedOrder(w)``) and sums the coefficients per residue
    a + q*b (mod n); the leads must leave n standard monomials."""
    n, q = s.n, s.q
    w0, w1 = w
    if w0 < 0 or w1 < 0:
        raise InputError("weights must be nonnegative")
    leads = []
    vanishes = True
    for g in basis:
        top = -1
        sums = {}
        for m, c in g._terms.items():
            a, b = m >> _BITS & _MASK, m & _MASK
            v = w0 * a + w1 * b
            if v > top or (v == top and m > code):
                top, code, lead = v, m, (a, b)
            r = (a + q * b) % n
            sums[r] = sums.get(r, 0) + c
        if top < 0:
            raise ConsistencyError("a candidate basis element is zero")
        leads.append(lead)
        if vanishes and any(sums.values()):
            vanishes = False
    if gfan._standard_count(leads) != n:
        raise ConsistencyError(f"candidate basis does not have {n} standard monomials")
    if not vanishes:
        raise ConsistencyError("a candidate basis element does not vanish on the orbit")


def certify_basis_by_tuples(basis, s, w):
    """Oracle for ``certify_basis`` over polynomials: the checks of
    ``certify_basis_by_codes``, standard count, then vanishing on the orbit,
    read off the decoded exponent tuples of ``leading_term`` under
    ``WeightedOrder(w)`` and ``Polynomial.terms`` instead of the codes."""
    n, q = s.n, s.q
    order = WeightedOrder(weights=w)
    leads = [leading_term(g, order)[0] for g in basis]
    if gfan._standard_count(leads) != n:
        raise ConsistencyError(f"candidate basis does not have {n} standard monomials")
    for g in basis:
        sums = {}
        for (a, b), c in g.terms.items():
            r = (a + q * b) % n
            sums[r] = sums.get(r, 0) + c
        if any(sums.values()):
            raise ConsistencyError(
                "a candidate basis element does not vanish on the orbit"
            )


# the two oracles of the row certificate that read polynomials
POLY_CERTIFICATES = (certify_basis_by_codes, certify_basis_by_tuples)


def certify_by_division(basis, known, order, colength):
    """Oracle for ``certify_basis``: the division certificate.  Raise
    ConsistencyError unless the leading terms leave ``colength`` standard
    monomials, every S-pair reduces to 0 (a Groebner basis of the ideal J it
    generates) and every polynomial of ``known`` reduces to 0 (it lies in J).
    With ``known`` the orbit generators, J contains the orbit ideal and has
    its colength, so the two are equal."""
    leads = [leading_term(g, order)[0] for g in basis]
    if standard_count_by_columns(leads) != colength:
        raise ConsistencyError(f"candidate basis does not have {colength} standard monomials")
    for i in range(len(basis)):
        for j in range(i):
            if normal_form(s_polynomial(basis[i], basis[j], order), basis, order):
                raise ConsistencyError("an S-pair of the candidate basis is nonzero")
    for f in known:
        if normal_form(f, basis, order):
            raise ConsistencyError("the candidate basis misses part of the ideal")


def standard_boxes(n, leads):
    """The exponents (a, b) with a, b < n that no lead divides."""
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if not any(a >= la and b >= lb for la, lb in leads)
    ]


def mutations(s, basis, order):
    """(label, basis, colength) per mutation of a certified cone basis, as
    polynomials; each is no reduced Groebner basis of the orbit ideal of
    that colength."""
    n, q = s.n, s.q
    leads = [leading_term(g, order)[0] for g in basis]
    boxes = standard_boxes(n, leads)
    out = [("colength n + 1", basis, n + 1)]
    for k, g in enumerate(basis):
        def replaced(terms):
            return basis[:k] + (XY.poly(terms),) + basis[k + 1 :]

        out.append((f"drop {k}", basis[:k] + basis[k + 1 :], n))
        terms = dict(g.terms)
        lead = leads[k]
        tail = min(terms, key=order.key)
        out.append((f"double tail {k}", replaced({**terms, tail: 2 * terms[tail]}), n))
        weight = (tail[0] + q * tail[1]) % n
        other = min(
            (t for t in boxes if (t[0] + q * t[1]) % n != weight), key=order.key
        )
        out.append((f"swap tail {k}", replaced({lead: terms[lead], other: terms[tail]}), n))
    return out


ROW_MESSAGES = {
    "residue": "a candidate basis element does not vanish on the orbit",
    "drop": "candidate basis does not have {n} standard monomials",
    "swap": "weight {w} is not inside the cone of its cluster",
    "zero": "a candidate basis element is zero",
    "boundary": "weight {w} lies on a boundary of the cone of its cluster",
}


def row_mutations(s, cone):
    """(kind, rows, weight) per mutation of a cone's certified rows:
    a tail of another residue (of lower weight, so the margin stays
    positive), a dropped row, a lead and tail swapped, a lead equal to its
    tail, and the rows at each ray of the cone off the axes, on its
    boundary.  ``certify_basis`` rejects each kind with its own message."""
    n, q = s.n, s.q
    basis, w = cone.basis, cone.weight
    boxes = standard_boxes(n, [m for m, _ in basis])

    def dot(v):
        return w[0] * v[0] + w[1] * v[1]

    out = []
    for k, (m, t) in enumerate(basis):
        def replaced(row):
            return basis[:k] + (row,) + basis[k + 1 :]

        residue = (m[0] + q * m[1]) % n
        other = min(
            (b for b in boxes if (b[0] + q * b[1]) % n != residue), key=lambda b: (dot(b), b)
        )
        assert dot(other) < dot(m)
        out.append(("residue", replaced((m, other)), w))
        out.append(("drop", basis[:k] + basis[k + 1 :], w))
        out.append(("swap", replaced((t, m)), w))
        out.append(("zero", replaced((m, m)), w))
    for ray in (cone.lower_ray, cone.upper_ray):
        if all(ray):
            out.append(("boundary", basis, ray))
    return out


def rows_of(basis, order):
    """The rows (m, m') of a basis of binomials x^m - x^m', m leading under
    ``order``."""
    rows = []
    for g in basis:
        m, c = leading_term(g, order)
        ((t, d),) = [(t, d) for t, d in g.terms.items() if t != m]
        assert (c, d) == (1, -1)
        rows.append((m, t))
    return tuple(rows)


class TestOrbitIdeal:
    def test_11_7(self):
        s = Singularity(11, 7)
        expected = [
            {(11, 0): 1, (0, 0): -1},
            {(4, 1): 1, (0, 0): -1},
            {(1, 3): 1, (0, 0): -1},
            {(0, 11): 1, (0, 0): -1},
        ]
        assert [term_map(g) for g in orbit_gens(s)] == [
            {k: Fraction(v) for k, v in t.items()} for t in expected
        ]

    def test_2_1(self):
        s = Singularity(2, 1)
        assert [sorted(g.terms) for g in orbit_gens(s)] == [
            [(0, 0), (2, 0)], [(0, 0), (1, 1)], [(0, 0), (0, 2)],
        ]

    def test_5_3(self):
        s = Singularity(5, 3)
        assert [max(g.terms, key=sum) for g in orbit_gens(s)] == [
            (5, 0), (2, 1), (1, 3), (0, 5),
        ]


GOLDEN_BASES_11_7 = {
    (1, 11): [
        {(0, 1): 1, (7, 0): -1},  # y - x^7
        {(11, 0): 1, (0, 0): -1},  # x^11 - 1
    ],
    (2, 7): [
        {(0, 2): 1, (3, 0): -1},  # y^2 - x^3
        {(7, 0): 1, (0, 1): -1},  # x^7 - y
        {(4, 1): 1, (0, 0): -1},  # x^4*y - 1
    ],
    (3, 3): [
        {(3, 0): 1, (0, 2): -1},  # x^3 - y^2
        {(1, 3): 1, (0, 0): -1},  # x*y^3 - 1
        {(0, 5): 1, (2, 0): -1},  # y^5 - x^2
    ],
    (6, 2): [
        {(2, 0): 1, (0, 5): -1},  # x^2 - y^5
        {(1, 3): 1, (0, 0): -1},  # x*y^3 - 1
        {(0, 8): 1, (1, 0): -1},  # y^8 - x
    ],
    (9, 1): [
        {(1, 0): 1, (0, 8): -1},  # x - y^8
        {(0, 11): 1, (0, 0): -1},  # y^11 - 1
    ],
}

GOLDEN_CONES_11_7 = {
    (1, 11): ((1, 7), (0, 1)),
    (2, 7): ((2, 3), (1, 7)),
    (3, 3): ((5, 2), (2, 3)),
    (6, 2): ((8, 1), (5, 2)),
    (9, 1): ((1, 0), (8, 1)),
}


class TestConeOfWeight:
    @pytest.mark.parametrize("w", sorted(GOLDEN_BASES_11_7))
    def test_golden_bases(self, w):
        s = Singularity(11, 7)
        cone = cone_of_weight(s, w)
        got = [term_map(g) for g in row_polys(cone.basis)]
        expected = [
            {k: Fraction(v) for k, v in t.items()} for t in GOLDEN_BASES_11_7[w]
        ]
        assert got == expected
        assert (cone.lower_ray, cone.upper_ray) == GOLDEN_CONES_11_7[w]

    def test_upper_cone_inequality(self):
        s = Singularity(11, 7)
        cone = cone_of_weight(s, (1, 11))
        assert (-7, 1) in cone.inequalities  # y >= 7x

    def test_2_1_sector(self):
        s = Singularity(2, 1)
        cone = cone_of_weight(s, (1, 2))
        assert (-1, 1) in cone.inequalities  # y >= x
        assert (cone.lower_ray, cone.upper_ray) == ((1, 1), (0, 1))

    def test_representative_weight_is_interior(self):
        s = Singularity(11, 7)
        for w in GOLDEN_BASES_11_7:
            cone = cone_of_weight(s, w)
            for d in cone.inequalities:
                assert d[0] * w[0] + d[1] * w[1] >= 0

    def test_boundary_weight_detected(self):
        # every ray between two cones, taken from the toric fan
        for n, q in [(11, 7), (12, 5)]:
            s = Singularity(n, q)
            rays = [toric.primitive(r) for r in resolution_fan(s).rays[1:-1]]
            assert rays
            for ray in rays:
                with pytest.raises(BoundaryWeightError):
                    cone_of_weight(s, ray)

    def test_same_basis_across_interior_weights(self):
        rng = random.Random(2)
        s = Singularity(7, 5)
        _, cones = groebner_fan(s)
        for cone in cones:
            for _ in range(3):
                p, q = rng.randint(1, 9), rng.randint(1, 9)
                w = (
                    p * cone.lower_ray[0] + q * cone.upper_ray[0],
                    p * cone.lower_ray[1] + q * cone.upper_ray[1],
                )
                assert set(cone_of_weight(s, w).basis) == set(cone.basis)

    def test_adjacent_cones_have_distinct_leading_terms(self):
        for n, q in [(11, 7), (5, 3), (12, 5)]:
            _, cones = groebner_fan(Singularity(n, q))
            for c1, c2 in zip(cones, cones[1:]):
                lt1 = {
                    leading_term(g, WeightedOrder(weights=c1.weight))[0]
                    for g in row_polys(c1.basis)
                }
                lt2 = {
                    leading_term(g, WeightedOrder(weights=c2.weight))[0]
                    for g in row_polys(c2.basis)
                }
                assert lt1 != lt2


class TestCertificate:
    def test_cone_bases_match_buchberger(self):
        # the rows, as polynomials, are Buchberger's reduced basis and pass
        # the code-decoding certificate
        for n, q in coprime_pairs(20):
            s = Singularity(n, q)
            gens = orbit_gens(s)
            for cone in groebner_fan(s)[1]:
                oracle = buchberger(list(gens), WeightedOrder(weights=cone.weight))
                basis = row_polys(cone.basis)
                assert list(basis) == oracle, (n, q, cone.weight)
                certify_basis_by_codes(basis, s, cone.weight)

    def test_altered_coefficient_rejected(self):
        s = Singularity(11, 7)
        # a coefficient other than -1 has no row: the oracles over
        # polynomials refuse it
        for w in GOLDEN_BASES_11_7:
            rows = cone_of_weight(s, w).basis
            certify_basis(rows, s, w)
            basis = row_polys(rows)
            order = WeightedOrder(weights=w)
            for k, g in enumerate(basis):
                terms = dict(g.terms)
                tail = min(terms, key=order.key)
                terms[tail] *= 2
                altered = basis[:k] + (XY.poly(terms),) + basis[k + 1 :]
                for certify in POLY_CERTIFICATES:
                    with pytest.raises(ConsistencyError, match="does not vanish"):
                        certify(altered, s, w)

    def test_wrong_colength_rejected(self):
        s = Singularity(11, 7)
        cone = cone_of_weight(s, (3, 3))
        cases = [(certify_basis, cone.basis[:-1])]
        cases += [(certify, row_polys(cone.basis[:-1])) for certify in POLY_CERTIFICATES]
        for certify, basis in cases:
            with pytest.raises(ConsistencyError, match="does not have 11 standard monomials"):
                certify(basis, s, (3, 3))

    def test_smaller_ideal_of_colength_12_rejected(self):
        # I (x, y) = I meet (x, y): it vanishes on the orbit and has a
        # Groebner basis with 12 standard monomials, but it is not I
        s = Singularity(11, 7)
        x, y = XY.var("x"), XY.var("y")
        order = WeightedOrder(weights=(3, 3))
        gens = orbit_gens(s)
        smaller = buchberger([v * g for g in gens for v in (x, y)], order)
        leads = [leading_term(g, order)[0] for g in smaller]
        assert gfan._standard_count(leads) == 12
        cases = [(certify_basis, rows_of(smaller, order))]
        cases += [(certify, smaller) for certify in POLY_CERTIFICATES]
        for certify, basis in cases:
            with pytest.raises(ConsistencyError, match="does not have 11 standard monomials"):
                certify(basis, s, order.weights)
        with pytest.raises(ConsistencyError):
            certify_by_division(smaller, gens, order, 12)

    def test_division_oracle_accepts_every_cone(self):
        for n, q in coprime_pairs(30):
            s = Singularity(n, q)
            gens = orbit_gens(s)
            for cone in groebner_fan(s)[1]:
                order = WeightedOrder(weights=cone.weight)
                certify_by_division(row_polys(cone.basis), gens, order, s.n)

    def test_mutations_rejected_by_both_certificates(self):
        cases = [(Singularity(11, 7), sorted(GOLDEN_BASES_11_7))]
        cases += [(Singularity(n, q), None) for n, q in coprime_pairs(9)]
        rejected = dict.fromkeys(["colength", "drop", "double", "swap"], 0)
        for s, weights in cases:
            gens = orbit_gens(s)
            if weights is None:
                weights = [c.weight for c in groebner_fan(s)[1]]
            for w in weights:
                cone = cone_of_weight(s, w)
                certify_basis(cone.basis, s, w)
                for kind, rows, at in row_mutations(s, cone):
                    with pytest.raises(ConsistencyError):
                        certify_basis(rows, s, at)
                basis = row_polys(cone.basis)
                order = WeightedOrder(weights=w)
                certify_by_division(basis, gens, order, s.n)
                for label, altered, colength in mutations(s, basis, order):
                    if colength == s.n:  # the certificates read n off the ideal
                        for certify in POLY_CERTIFICATES:
                            with pytest.raises(ConsistencyError):
                                certify(altered, s, w)
                    with pytest.raises(ConsistencyError):
                        certify_by_division(altered, gens, order, colength)
                    rejected[label.split(" ")[0]] += 1
        assert min(rejected.values()) > 0, rejected

    def test_tuple_oracle_accepts_every_cone(self):
        # every cone of n <= 60; groebner_fan has run certify_basis on each
        # already
        count = 0
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            for cone in groebner_fan(s)[1]:
                certify_basis(cone.basis, s, cone.weight)
                basis = row_polys(cone.basis)
                for certify in POLY_CERTIFICATES:
                    certify(basis, s, cone.weight)
                count += 1
        assert count == 8951

    def test_zero_element_is_inconsistent(self):
        # a zero element has no lead: ConsistencyError (exit 3), not the
        # InputError of polyring's leading term; as a row its lead is its
        # tail
        s = Singularity(11, 7)
        for w in GOLDEN_BASES_11_7:
            rows = cone_of_weight(s, w).basis
            basis = row_polys(rows)
            for k in range(len(basis) + 1):
                for m in ((0, 0), (1, 1), rows[0][0]):
                    with pytest.raises(ConsistencyError, match="element is zero"):
                        certify_basis(rows[:k] + ((m, m),) + rows[k:], s, w)
                candidate = basis[:k] + (XY.zero(),) + basis[k:]
                with pytest.raises(ConsistencyError, match="element is zero"):
                    certify_basis_by_codes(candidate, s, w)

    def test_negative_weight_rejected(self):
        s = Singularity(11, 7)
        rows = cone_of_weight(s, (3, 3)).basis
        with pytest.raises(InputError, match="nonnegative"):
            certify_basis(rows, s, (3, -3))
        with pytest.raises(InputError, match="nonnegative"):
            certify_basis_by_codes(row_polys(rows), s, (3, -3))

    def test_coefficients_are_exact(self):
        # every element is a row (m, m') of int exponent pairs, the binomial
        # x^m - x^m' whose lead is m under the cone's order, with int
        # coefficients as a polynomial
        for n, q in coprime_pairs(15):
            for cone in groebner_fan(Singularity(n, q))[1]:
                order = WeightedOrder(weights=cone.weight)
                for row in cone.basis:
                    assert all(type(e) is int and e >= 0 for v in row for e in v), row
                    m, one = leading_term(row_poly(row), order)
                    (c,) = [c for t, c in row_poly(row).terms.items() if t != m]
                    assert m == row[0]
                    assert type(one) is int and one == 1
                    assert type(c) is int and c == -1

    def test_no_reduction_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a normal form or S-polynomial was computed")

        monkeypatch.setattr(polyring, "normal_form", refuse)
        monkeypatch.setattr(polyring, "s_polynomial", refuse)
        for n, q in coprime_pairs(25):
            groebner_fan(Singularity(n, q))
        s = Singularity(11, 7)
        for w in GOLDEN_BASES_11_7:
            cone_of_weight(s, w)
        source = Path(gfan.__file__).read_text()
        assert "normal_form" not in source and "s_polynomial" not in source

    def test_cluster_with_wrong_partner_rejected(self, monkeypatch):
        # pair the pure x-power of one cluster with 1 instead of its
        # partner y^{j_k}: the margin stays positive, so the sweep reaches
        # the cluster and the orbit check must refuse it.  A GCluster derives
        # its partners from its corners, so the stand-in carries them.  The
        # same candidate, built in tuple space, fails the tuple oracle too.
        s = Singularity(11, 7)
        clusters = g_clusters(s)
        _, cones = groebner_fan(s)
        for k, cluster in enumerate(clusters[:-1]):
            assert cluster.partners[0] != (0, 0)
            bad = SimpleNamespace(
                ideal=cluster.ideal, partners=((0, 0),) + cluster.partners[1:]
            )
            candidate = [row_poly(row) for row in zip(bad.ideal, bad.partners)]
            with pytest.raises(ConsistencyError, match="does not vanish on the orbit"):
                certify_basis_by_tuples(candidate, s, cones[k].weight)
            patched = clusters[:k] + (bad,) + clusters[k + 1:]
            monkeypatch.setattr(gfan, "g_clusters", lambda s: patched)
            with pytest.raises(ConsistencyError, match="does not vanish on the orbit"):
                groebner_fan(s)


    def test_weight_outside_the_cluster_cone_rejected(self):
        # the pairs of cluster k at the weight of another cone: some margin
        # w.(m - m') is not positive, so x^m would not lead its binomial
        s = Singularity(11, 7)
        clusters = g_clusters(s)
        _, cones = groebner_fan(s)
        for k, cluster in enumerate(clusters):
            for other in cones[:k] + cones[k + 1 :]:
                with pytest.raises(ConsistencyError, match="is not inside the cone"):
                    gfan._certified_cone(cluster, other.weight, s)


class TestRowCertificate:
    def test_each_mutation_rejected_with_its_own_message(self):
        # every cone of n <= 12: a tail of another residue, a dropped row, a
        # lead and tail swapped, a lead equal to its tail and a weight on a
        # ray of the cone each fail their own step
        seen = dict.fromkeys(ROW_MESSAGES, 0)
        for n, q in coprime_pairs(12):
            s = Singularity(n, q)
            for cone in groebner_fan(s)[1]:
                for kind, rows, w in row_mutations(s, cone):
                    with pytest.raises(ConsistencyError) as caught:
                        certify_basis(rows, s, w)
                    assert str(caught.value) == ROW_MESSAGES[kind].format(n=n, w=w), (
                        n, q, cone.weight, kind,
                    )
                    seen[kind] += 1
        assert min(seen.values()) > 0, seen
        messages = [m.format(n=11, w=(3, 3)) for m in ROW_MESSAGES.values()]
        assert len(set(messages)) == len(messages)


class TestNoPolynomial:
    @pytest.fixture
    def refuse_polynomials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Polynomial was constructed")

        monkeypatch.setattr(polyring.Polynomial, "__init__", refuse)
        monkeypatch.setattr(polyring.Polynomial, "_raw", classmethod(refuse))

    def test_groebner_fan_builds_no_polynomial(self, refuse_polynomials):
        for n, q in coprime_pairs(25) + [(2000, 1999), (1999, 1)]:
            groebner_fan(Singularity(n, q))
        with pytest.raises(AssertionError, match="Polynomial was constructed"):
            XY.poly({(1, 0): 1})

    def test_gfan_request_builds_no_polynomial(self, refuse_polynomials, capsys):
        for argv in (["gfan", "11", "7"], ["gfan", "20", "19", "--format", "json"]):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out

    def test_gfan_imports_only_the_ceiling_from_polyring(self):
        tree = ast.parse(Path(gfan.__file__).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "polyring"
            for alias in node.names
        }
        assert imported == {"_LIMIT", "_RANGE"}


def sympy_groebner(polys):
    """sympy's reduced grevlex basis of the ideal ``polys`` generate, and
    the exponent tuples of its leading terms: an oracle with no code in
    common with ``polyring``."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    exprs = [
        sympy.Add(*[c * x**a * y**b for (a, b), c in g.terms.items()]) for g in polys
    ]
    basis = sympy.groebner(exprs, x, y, order="grevlex")
    leads = [sympy.Poly(g, x, y).monoms(order="grevlex")[0] for g in basis.exprs]
    return basis, leads


class TestSympyOracle:
    def test_every_cone_generates_the_orbit_ideal(self):
        # J = I by sympy alone: the cone basis and the orbit generators have
        # the same reduced grevlex basis, whose staircase has n boxes, and
        # the cone's own leads leave n boxes, so they generate in_w(I)
        count = 0
        for n, q in coprime_pairs(20):
            s = Singularity(n, q)
            orbit, leads = sympy_groebner(orbit_gens(s))
            assert standard_count_by_columns(leads) == n, (n, q)
            for cone in groebner_fan(s)[1]:
                basis = row_polys(cone.basis)
                assert sympy_groebner(basis)[0] == orbit, (n, q, cone.weight)
                order = WeightedOrder(weights=cone.weight)
                cone_leads = [leading_term(g, order)[0] for g in basis]
                assert standard_count_by_columns(cone_leads) == n, (n, q, cone.weight)
                count += 1
        assert count == 670

    def test_doubled_tail_changes_the_ideal(self):
        s = Singularity(11, 7)
        orbit, _ = sympy_groebner(orbit_gens(s))
        caught = 0
        for cone in groebner_fan(s)[1]:
            order = WeightedOrder(weights=cone.weight)
            for label, altered, _ in mutations(s, row_polys(cone.basis), order):
                if label.startswith("double"):
                    assert sympy_groebner(altered)[0] != orbit, (cone.weight, label)
                    caught += 1
        assert caught == 13


def tail_first(basis):
    """``basis`` with each element's dict listing its terms in reverse."""
    return tuple(Polynomial._raw(g.table, dict(reversed(g._terms.items()))) for g in basis)


class TestBinomialText:
    def test_matches_poly_text_on_every_cone(self):
        # the report writes each row (m, m') as poly_text writes x^m - x^m'
        count = 0
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            printed = cli.run_gfan(s).payload["cones"]
            _, cones = groebner_fan(s)
            assert len(printed) == len(cones)
            for entry, cone in zip(printed, cones):
                order = WeightedOrder(weights=cone.weight)
                expected = [poly_text(g, order) for g in row_polys(cone.basis)]
                assert entry["basis"] == expected, (n, q)
                count += 1
        assert count == 8951

    def test_tail_first_dicts_print_and_certify_the_same(self):
        # the oracles over polynomials and poly_text never read dict order
        for n, q in coprime_pairs(15):
            s = Singularity(n, q)
            for cone in groebner_fan(s)[1]:
                w = cone.weight
                order = WeightedOrder(weights=w)
                basis = row_polys(cone.basis)
                flipped = tail_first(basis)
                assert [list(g._terms) for g in flipped] == [
                    list(g._terms)[::-1] for g in basis
                ]
                assert flipped == basis
                assert [poly_text(g, order) for g in flipped] == [
                    poly_text(g, order) for g in basis
                ]
                for certify in POLY_CERTIFICATES:
                    certify(flipped, s, w)
                    for label, altered, colength in mutations(s, basis, order):
                        if colength != n:
                            continue
                        messages = []
                        for candidate in (altered, tail_first(altered)):
                            with pytest.raises(ConsistencyError) as caught:
                                certify(candidate, s, w)
                            messages.append(str(caught.value))
                        assert messages[0] == messages[1], label


class TestConeRays:
    def test_corner_rays_match_search_oracle(self):
        count = 0
        for n, q in coprime_pairs(60):
            for cone in groebner_fan(Singularity(n, q))[1]:
                rays = cone_rays_by_search(cone.inequalities)
                assert (cone.lower_ray, cone.upper_ray) == rays, (n, q, cone.weight)
                count += 1
        assert count == 8951

    def test_corners_that_disagree_with_the_pairs_rejected(self):
        # the pairs of cluster k, which certify, with the corners of a
        # neighbour (one ray falls outside cone k) or with the lower corner
        # moved by the upper one (the lower ray falls inside cone k)
        s = Singularity(11, 7)
        clusters = g_clusters(s)
        _, cones = groebner_fan(s)
        for k, cluster in enumerate(clusters):
            neighbour = clusters[k + 1 if k + 1 < len(clusters) else k - 1]
            inside = cluster._replace(
                i_next=cluster.i_next + cluster.i,
                j_next=cluster.j_next + cluster.j,
            )
            for corners in (neighbour, inside):
                stand_in = SimpleNamespace(
                    ideal=cluster.ideal, partners=cluster.partners, **corners._asdict()
                )
                with pytest.raises(ConsistencyError, match="does not bound the cone"):
                    gfan._certified_cone(stand_in, cones[k].weight, s)


class TestStandardCount:
    def test_matches_column_sum_on_every_cone(self):
        for n, q in coprime_pairs(40):
            for cone in groebner_fan(Singularity(n, q))[1]:
                order = WeightedOrder(weights=cone.weight)
                leads = [leading_term(g, order)[0] for g in row_polys(cone.basis)]
                assert leads == [m for m, _ in cone.basis]
                assert gfan._standard_count(leads) == standard_count_by_columns(leads) == n

    def test_infinite_staircases(self):
        for leads in [[], [(0, 3), (2, 1)], [(3, 0), (1, 2)], [(2, 2)], [(1, 0)], [(0, 1)]]:
            assert gfan._standard_count(leads) is None
            assert standard_count_by_columns(leads) is None

    def test_matches_column_sum_on_random_leads(self):
        rng = random.Random(9)
        for _ in range(300):
            leads = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.7:
                leads += [(rng.randint(0, 9), 0), (0, rng.randint(0, 9))]
            rng.shuffle(leads)
            assert gfan._standard_count(leads) == standard_count_by_columns(leads), leads


class TestGroebnerFan:
    def test_11_7_rays(self):
        fan, cones = groebner_fan(Singularity(11, 7))
        assert list(fan.rays) == [
            (11, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 11),
        ]
        assert len(cones) == 5

    def test_2_1(self):
        fan, cones = groebner_fan(Singularity(2, 1))
        assert list(fan.rays) == [(2, 0), (1, 1), (0, 2)]
        assert len(cones) == 2

    def test_n_1_has_two_cones(self):
        for n in (3, 5, 8):
            fan, cones = groebner_fan(Singularity(n, 1))
            assert len(cones) == 2
            assert curve_count(Singularity(n, 1)) == 1

    def test_matches_toric_sweep(self):
        for n, q in coprime_pairs(25):
            s = Singularity(n, q)
            fan, _ = groebner_fan(s)
            assert fans_equal(fan, resolution_fan(s)), (n, q)

    def test_exponent_past_the_ceiling_rejected(self):
        # the first cone holds x^n; from 2**16 on, x^n would carry out of its
        # field, past any guard bit
        for n in (32768, 65536, 70001):
            s = Singularity(n, 1)
            with pytest.raises(InputError, match="0..32767"):
                groebner_fan(s)

    def test_groebner_fan_checks_the_ceiling_before_any_cluster(self):
        # every corner and partner exponent is at most n, so the cones need
        # no check of their own, and a refused pair derives no cluster
        for n in (32768, 1000000007):
            s = Singularity(n, n - 1)
            with pytest.raises(InputError) as info:
                groebner_fan(s)
            assert str(info.value) == polyring._RANGE
            assert g_clusters.__wrapped__ not in vars(s)
        s = Singularity(32767, 1)
        assert len(groebner_fan(s)[1]) == 2
        assert g_clusters.__wrapped__ in vars(s)

    def test_cones_tile(self):
        _, cones = groebner_fan(Singularity(11, 7))
        assert cones[0].lower_ray == (1, 0)
        assert cones[-1].upper_ray == (0, 1)
        for c1, c2 in zip(cones, cones[1:]):
            assert c1.upper_ray == c2.lower_ray


class TestDrawnPairs:
    def test_cones_certify_and_doubled_tails_fail(self):
        # drawn pairs with n <= 2000, the chain q = n - 1 of 2000 cones among
        # them: every cone passes both certificates, the fan is toric's, and
        # doubling the tail of a drawn element fails both
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def pairs(draw, max_n=2000):
            n = draw(st.integers(2, max_n))
            q = draw(st.integers(1, n - 1).filter(lambda q: gcd(n, q) == 1))
            return Singularity(n, q)

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(pairs(), st.data())
        @hypothesis.example(Singularity(2000, 1999), None)
        @hypothesis.example(Singularity(1999, 1), None)
        def check(s, data):
            fan, cones = groebner_fan(s)
            assert fans_equal(fan, resolution_fan(s))
            for cone in cones:
                certify_basis(cone.basis, s, cone.weight)
                certify_basis_by_tuples(row_polys(cone.basis), s, cone.weight)
            if data is None:
                return
            cone = data.draw(st.sampled_from(cones))
            k = data.draw(st.integers(0, len(cone.basis) - 1))
            basis = row_polys(cone.basis)
            g = basis[k]
            lead = leading_term(g, WeightedOrder(weights=cone.weight))[0]
            terms = {t: c if t == lead else 2 * c for t, c in g.terms.items()}
            altered = basis[:k] + (XY.poly(terms),) + basis[k + 1 :]
            for certify in POLY_CERTIFICATES:
                with pytest.raises(ConsistencyError, match="does not vanish"):
                    certify(altered, s, cone.weight)

        check()


class TestFansEqual:
    def test_different_fans(self):
        assert not fans_equal(
            resolution_fan(Singularity(11, 7)), resolution_fan(Singularity(11, 4))
        )

    def test_cross_module(self):
        s = Singularity(7, 5)
        fan, _ = groebner_fan(s)
        assert fans_equal(fan, resolution_fan(s))


class TestMembershipOracle:
    def test_normal_form_agrees_with_orbit_values(self):
        # a polynomial reduces to zero iff it vanishes on the whole orbit
        s = Singularity(11, 7)
        order = WeightedOrder(weights=(3, 3))
        from cqsing.polyring import buchberger

        basis = buchberger(list(orbit_gens(s)), order)
        samples = [
            XY.poly({(7, 1): 1, (0, 0): -1}),  # not invariant: stays out
            XY.poly({(4, 1): 1, (0, 0): -1}),  # generator: reduces to 0
            XY.poly({(15, 1): 1, (0, 0): -1}),  # x^15*y = x^11 * x^4*y
        ]
        for f in samples:
            residue = [Fraction(0)] * 11
            for (a, b), c in f.terms.items():
                residue[(a + 7 * b) % 11] += c
            assert (not normal_form(f, basis, order)) == (not any(residue))
