import random
from fractions import Fraction

import pytest

from cqsing import gfan
from cqsing.cfrac import Singularity, curve_count
from cqsing.errors import ConsistencyError, InputError
from cqsing.gfan import (
    BoundaryWeightError,
    certify_basis,
    cone_of_weight,
    fans_equal,
    groebner_fan,
    orbit_ideal,
)
from cqsing.mckay import GCluster
from cqsing.polyring import WeightedOrder, buchberger, leading_term, normal_form
from cqsing.toric import resolution_fan

from conftest import coprime_pairs


def term_map(poly):
    return dict(poly.terms)


def xy_poly(table, terms):
    return table.poly(terms)


class TestOrbitIdeal:
    def test_11_7(self):
        ideal = orbit_ideal(Singularity(11, 7))
        expected = [
            {(11, 0): 1, (0, 0): -1},
            {(4, 1): 1, (0, 0): -1},
            {(1, 3): 1, (0, 0): -1},
            {(0, 11): 1, (0, 0): -1},
        ]
        assert [term_map(g) for g in ideal.gens] == [
            {k: Fraction(v) for k, v in t.items()} for t in expected
        ]

    def test_2_1(self):
        ideal = orbit_ideal(Singularity(2, 1))
        assert [sorted(g.terms) for g in ideal.gens] == [
            [(0, 0), (2, 0)], [(0, 0), (1, 1)], [(0, 0), (0, 2)],
        ]

    def test_5_3(self):
        ideal = orbit_ideal(Singularity(5, 3))
        assert [max(g.terms, key=sum) for g in ideal.gens] == [
            (5, 0), (2, 1), (1, 3), (0, 5),
        ]

    def test_general_point(self):
        ideal = orbit_ideal(Singularity(2, 1), point=(2, Fraction(1, 3)))
        assert term_map(ideal.gens[0]) == {(2, 0): Fraction(1), (0, 0): Fraction(-4)}

    def test_zero_coordinate_rejected(self):
        with pytest.raises(InputError):
            orbit_ideal(Singularity(2, 1), point=(1, 0))


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
        ideal = orbit_ideal(Singularity(11, 7))
        cone = cone_of_weight(ideal, w)
        got = [term_map(g) for g in cone.basis]
        expected = [
            {k: Fraction(v) for k, v in t.items()} for t in GOLDEN_BASES_11_7[w]
        ]
        assert got == expected
        assert (cone.lower_ray, cone.upper_ray) == GOLDEN_CONES_11_7[w]

    def test_upper_cone_inequality(self):
        ideal = orbit_ideal(Singularity(11, 7))
        cone = cone_of_weight(ideal, (1, 11))
        assert (-7, 1) in cone.inequalities  # y >= 7x

    def test_2_1_sector(self):
        ideal = orbit_ideal(Singularity(2, 1))
        cone = cone_of_weight(ideal, (1, 2))
        assert (-1, 1) in cone.inequalities  # y >= x
        assert (cone.lower_ray, cone.upper_ray) == ((1, 1), (0, 1))

    def test_representative_weight_is_interior(self):
        ideal = orbit_ideal(Singularity(11, 7))
        for w in GOLDEN_BASES_11_7:
            cone = cone_of_weight(ideal, w)
            for d in cone.inequalities:
                assert d[0] * w[0] + d[1] * w[1] >= 0

    def test_boundary_weight_detected(self):
        # every ray between two cones, taken from the toric fan
        for n, q in [(11, 7), (12, 5)]:
            s = Singularity(n, q)
            ideal = orbit_ideal(s)
            rays = [r.primitive for r in resolution_fan(s).rays[1:-1]]
            assert rays
            for ray in rays:
                with pytest.raises(BoundaryWeightError):
                    cone_of_weight(ideal, ray)

    def test_same_basis_across_interior_weights(self):
        rng = random.Random(2)
        s = Singularity(7, 5)
        ideal = orbit_ideal(s)
        _, cones = groebner_fan(s)
        for cone in cones:
            for _ in range(3):
                p, q = rng.randint(1, 9), rng.randint(1, 9)
                w = (
                    p * cone.lower_ray[0] + q * cone.upper_ray[0],
                    p * cone.lower_ray[1] + q * cone.upper_ray[1],
                )
                assert set(cone_of_weight(ideal, w).basis) == set(cone.basis)

    def test_adjacent_cones_have_distinct_leading_terms(self):
        for n, q in [(11, 7), (5, 3), (12, 5)]:
            _, cones = groebner_fan(Singularity(n, q))
            for c1, c2 in zip(cones, cones[1:]):
                lt1 = {
                    leading_term(g, WeightedOrder(weights=c1.weight))[0]
                    for g in c1.basis
                }
                lt2 = {
                    leading_term(g, WeightedOrder(weights=c2.weight))[0]
                    for g in c2.basis
                }
                assert lt1 != lt2


class TestCertificate:
    def test_cone_bases_match_buchberger(self):
        cases = [(Singularity(n, q), (1, 1)) for n, q in coprime_pairs(20)]
        cases.append((Singularity(11, 7), (2, Fraction(1, 3))))
        for s, point in cases:
            ideal = orbit_ideal(s, point)
            _, cones = groebner_fan(s, point)
            for cone in cones:
                oracle = buchberger(list(ideal.gens), WeightedOrder(weights=cone.weight))
                assert list(cone.basis) == oracle, (s, point, cone.weight)

    def test_altered_coefficient_rejected(self):
        ideal = orbit_ideal(Singularity(11, 7))
        for w in GOLDEN_BASES_11_7:
            basis = cone_of_weight(ideal, w).basis
            order = WeightedOrder(weights=w)
            certify_basis(basis, ideal.gens, order, 11)
            for k, g in enumerate(basis):
                terms = dict(g.terms)
                tail = min(terms, key=order.key)
                terms[tail] *= 2
                altered = basis[:k] + (ideal.table.poly(terms),) + basis[k + 1 :]
                with pytest.raises(ConsistencyError):
                    certify_basis(altered, ideal.gens, order, 11)

    def test_wrong_colength_rejected(self):
        ideal = orbit_ideal(Singularity(11, 7))
        cone = cone_of_weight(ideal, (3, 3))
        order = WeightedOrder(weights=(3, 3))
        with pytest.raises(ConsistencyError):
            certify_basis(cone.basis, ideal.gens, order, 12)
        with pytest.raises(ConsistencyError):
            certify_basis(cone.basis[:-1], ideal.gens, order, 11)

    def test_cluster_without_weight_bijection_rejected(self, monkeypatch):
        # 11 boxes: column 0 of height 6 carries the weights 0, 7, 3, 10,
        # 6, 2 and the rest of row 0 carries 1..5, so 2 and 3 repeat
        bad = GCluster(heights=(6, 1, 1, 1, 1, 1), ideal=((6, 0), (1, 1), (0, 6)))
        monkeypatch.setattr(gfan, "g_clusters", lambda s: [bad])
        with pytest.raises(ConsistencyError, match="do not carry each weight once"):
            groebner_fan(Singularity(11, 7))


class TestGroebnerFan:
    def test_11_7_rays(self):
        fan, cones = groebner_fan(Singularity(11, 7))
        assert [r.scaled for r in fan.rays] == [
            (11, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 11),
        ]
        assert len(cones) == 5

    def test_2_1(self):
        fan, cones = groebner_fan(Singularity(2, 1))
        assert [r.scaled for r in fan.rays] == [(2, 0), (1, 1), (0, 2)]
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

    def test_base_point_does_not_move_rays(self):
        for n, q in [(11, 7), (5, 2), (7, 4)]:
            s = Singularity(n, q)
            fan_default, _ = groebner_fan(s)
            fan_other, _ = groebner_fan(s, point=(2, 3))
            assert fans_equal(fan_default, fan_other)

    def test_cones_tile(self):
        _, cones = groebner_fan(Singularity(11, 7))
        assert cones[0].lower_ray == (1, 0)
        assert cones[-1].upper_ray == (0, 1)
        for c1, c2 in zip(cones, cones[1:]):
            assert c1.upper_ray == c2.lower_ray


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
        ideal = orbit_ideal(s)
        order = WeightedOrder(weights=(3, 3))
        from cqsing.polyring import buchberger

        basis = buchberger(list(ideal.gens), order)
        table = ideal.table
        samples = [
            table.poly({(7, 1): 1, (0, 0): -1}),  # not invariant: stays out
            table.poly({(4, 1): 1, (0, 0): -1}),  # generator: reduces to 0
            table.poly({(15, 1): 1, (0, 0): -1}),  # x^15*y = x^11 * x^4*y
        ]
        for f in samples:
            residue = [Fraction(0)] * 11
            for (a, b), c in f.terms.items():
                residue[(a + 7 * b) % 11] += c
            assert (not normal_form(f, basis, order)) == (not any(residue))
