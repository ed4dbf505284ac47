import pytest

from cqsing.cfrac import Singularity, curve_count, embedding_dimension, hj_expand
from cqsing.errors import InputError
from cqsing.invariant_ring import generators
from cqsing import toric
from cqsing.toric import (
    Fan2D,
    RationalRay,
    hilbert_basis_dual,
    resolution_fan,
    self_intersections,
)

from conftest import coprime_pairs


def fan_matches_expansion(s):
    return self_intersections(resolution_fan(s)) == hj_expand(s.n, s.q)


def recursion_rays(n, q):
    """Oracle: build the scaled rays from the expansion recursion
    v_{k+1} = b_k * v_k - v_{k-1}, seeded at the y-axis with (0, n), (1, q)."""
    b = hj_expand(n, q)
    rays = [(0, n), (1, q)]
    for bk in b:
        prev, cur = rays[-2], rays[-1]
        rays.append((bk * cur[0] - prev[0], bk * cur[1] - prev[1]))
    assert rays[-1] == (n, 0)
    return list(reversed(rays))


def hull_boundary_two_pass(staircase):
    """Oracle for ``toric._hull_boundary``: the hull corners first, popping
    collinear points too, then a second walk that keeps every staircase
    point on a corner or on the line of the hull edge above its column."""

    def cross(o, p, r):
        return (p[0] - o[0]) * (r[1] - o[1]) - (p[1] - o[1]) * (r[0] - o[0])

    hull = []
    for p in staircase:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    points = []
    corner = 0
    for p in staircase:
        while corner + 1 < len(hull) and hull[corner + 1][0] < p[0]:
            corner += 1
        if p == hull[corner] or (
            corner + 1 < len(hull) and cross(hull[corner], hull[corner + 1], p) == 0
        ):
            points.append(p)
    return points


class TestHullBoundary:
    def test_one_pass_matches_two_pass_oracle(self):
        # q -> -q^{-1} (mod n) permutes the units mod n, so the fan
        # staircases (slope q) include every Hilbert-basis staircase
        for n, q in coprime_pairs(150):
            staircase = toric._staircase(n, q)
            assert toric._hull_boundary(staircase) == hull_boundary_two_pass(
                staircase
            ), (n, q)


class TestResolutionFan:
    def test_11_7_rays(self):
        fan = resolution_fan(Singularity(11, 7))
        assert [r.scaled for r in fan.rays] == [
            (11, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 11),
        ]

    def test_2_1(self):
        fan = resolution_fan(Singularity(2, 1))
        assert [r.scaled for r in fan.rays] == [(2, 0), (1, 1), (0, 2)]

    def test_5_3(self):
        fan = resolution_fan(Singularity(5, 3))
        assert [r.scaled for r in fan.rays] == [(5, 0), (2, 1), (1, 3), (0, 5)]

    def test_against_recursion_oracle(self):
        for n, q in coprime_pairs(60):
            fan = resolution_fan(Singularity(n, q))
            assert [r.scaled for r in fan.rays] == recursion_rays(n, q)

    def test_counts(self):
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            fan = resolution_fan(s)
            assert len(fan.rays[1:-1]) == curve_count(s)
            assert len(fan.maximal_cones) == curve_count(s) + 1

    def test_unimodularity_sweep(self):
        for n, q in coprime_pairs(120):
            fan = resolution_fan(Singularity(n, q))
            for r1, r2 in fan.maximal_cones:
                (a1, b1), (a2, b2) = r1.scaled, r2.scaled
                assert abs(a1 * b2 - b1 * a2) == n


class TestSelfIntersections:
    def test_round_trip_11_7(self):
        fan = resolution_fan(Singularity(11, 7))
        assert self_intersections(fan) == (2, 3, 2, 2)

    def test_2_1(self):
        assert self_intersections(resolution_fan(Singularity(2, 1))) == (2,)

    def test_round_trip_sweep(self):
        for n, q in coprime_pairs(120):
            assert fan_matches_expansion(Singularity(n, q)), (n, q)

    def test_malformed_fan_rejected(self):
        from cqsing.errors import ConsistencyError

        bad = Fan2D(
            rays=(
                RationalRay((3, 0)),
                RationalRay((2, 1)),
                RationalRay((0, 3)),
            ),
            den=3,
        )
        with pytest.raises(ConsistencyError):
            self_intersections(bad)


def hilbert_basis_box_oracle(n, q):
    """Box search: every irreducible has both coordinates <= n, so test each
    invariant exponent in the box for a decomposition into two others."""
    members = {
        (a, b)
        for a in range(n + 1)
        for b in range(n + 1)
        if (a or b) and (a + q * b) % n == 0
    }
    basis = [
        (a, b)
        for a, b in members
        if not any(
            (a - c, b - d) in members
            for c, d in members
            if c <= a and d <= b and (c, d) != (a, b)
        )
    ]
    return sorted(basis, key=lambda p: (-p[0], p[1]))


class TestHilbertBasis:
    def test_hull_matches_box_oracle(self):
        for n, q in coprime_pairs(80):
            assert hilbert_basis_dual(Singularity(n, q)) == hilbert_basis_box_oracle(n, q)


    def test_11_7(self):
        assert hilbert_basis_dual(Singularity(11, 7)) == [
            (11, 0), (4, 1), (1, 3), (0, 11),
        ]

    def test_chain(self):
        for n in range(2, 10):
            assert hilbert_basis_dual(Singularity(n, n - 1)) == [
                (n, 0), (1, 1), (0, n),
            ]

    def test_5_1(self):
        assert hilbert_basis_dual(Singularity(5, 1)) == [
            (5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5),
        ]

    def test_matches_generators(self):
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            basis = hilbert_basis_dual(s)
            assert len(basis) == embedding_dimension(s)
            assert basis == [g.exponents for g in generators(s)]


class TestFanType:
    @pytest.mark.parametrize(
        "rays",
        [
            [(0, 2), (2, 0)],
            [(2, 0), (2, 0), (0, 2)],
            [(2, 0), (1, 1), (2, 2), (0, 2)],
        ],
        ids=["reversed", "repeated", "collinear"],
    )
    def test_rays_must_be_sorted(self, rays):
        with pytest.raises(InputError):
            Fan2D(rays=tuple(RationalRay(r) for r in rays), den=2)

    def test_serialize(self):
        fan = resolution_fan(Singularity(2, 1))
        assert fan.serialize() == {"den": 2, "rays": [[2, 0], [1, 1], [0, 2]]}
