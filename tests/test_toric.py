import pytest

from cqsing.cfrac import Singularity, curve_count, embedding_dimension, hj_expand
from cqsing.errors import ConsistencyError, InputError
from cqsing.invariant_ring import generators
from cqsing import toric
from cqsing.toric import (
    Fan2D,
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


def staircase(n, slope):
    """For each A in 0..n the lowest point (A, B) of the lattice
    {(A, B) : B = slope*A (mod n)} in the quadrant, the origin excluded."""
    return [(0, n)] + [(a, slope * a % n) for a in range(1, n + 1)]


def hull_boundary(points):
    """Oracle for the closed forms of ``toric``: the staircase points on the
    boundary of the convex hull of the lattice points above it, the hull
    corners and the lattice points inside hull edges, in staircase order
    (from the y-axis down to the x-axis).  One monotone-chain pass drops a
    point only at a strict clockwise turn, so the points inside an edge
    stay."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                break
            hull.pop()
        hull.append(p)
    return hull


def check_unimodular(fan):
    """Consecutive rays span the working lattice: |det| = n in scaled
    coordinates."""
    for (a1, b1), (a2, b2) in fan.maximal_cones:
        if abs(a1 * b2 - b1 * a2) != fan.den:
            raise ConsistencyError("fan cone is not unimodular in the lattice")


def hull_boundary_two_pass(staircase):
    """Oracle for ``hull_boundary``: the hull corners first, popping
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
            points = staircase(n, q)
            assert hull_boundary(points) == hull_boundary_two_pass(points), (n, q)

    def test_closed_forms_match_the_hull_walk(self):
        for n, q in coprime_pairs(150):
            s = Singularity(n, q)
            assert list(resolution_fan(s).rays) == hull_boundary(staircase(n, q))[::-1]
            dual = hull_boundary(staircase(n, -pow(q, -1, n)))[::-1]
            assert list(hilbert_basis_dual(s)) == dual, (n, q)


class TestCertificate:
    """``toric._certify_boundary`` on mutations of valid boundaries: each
    breaks one of the four rules of the module docstring."""

    N, Q = 11, 7
    RAYS = [(11, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 11)]  # resolution_fan(11, 7)

    def certify(self, points):
        toric._certify_boundary(points, self.N, self.Q)

    def test_accepts_the_fan_and_the_hilbert_basis(self):
        self.certify(self.RAYS)
        toric._certify_boundary([(11, 0), (4, 1), (1, 3), (0, 11)], 11, -pow(7, -1, 11))

    def test_rejects_a_dropped_interior_point(self):
        with pytest.raises(ConsistencyError, match="do not span"):
            self.certify(self.RAYS[:2] + self.RAYS[3:])

    def test_rejects_two_swapped_points(self):
        rays = list(self.RAYS)
        rays[2], rays[3] = rays[3], rays[2]
        with pytest.raises(ConsistencyError, match="do not span"):
            self.certify(rays)

    def test_rejects_a_point_off_the_lattice(self):
        rays = list(self.RAYS)
        rays[2] = (6, 2)
        with pytest.raises(ConsistencyError, match="off the lattice"):
            self.certify(rays)

    def test_rejects_a_turn_with_c_1(self):
        # the blow-up point v_1 + v_2 keeps every point on the lattice and
        # every det at n, but the boundary bends away from the origin there
        rays = list(self.RAYS)
        rays.insert(2, (rays[1][0] + rays[2][0], rays[1][1] + rays[2][1]))
        with pytest.raises(ConsistencyError, match="convexly at \\(13, 3\\)"):
            self.certify(rays)

    @pytest.mark.parametrize(
        "points",
        [RAYS[:-1], RAYS[1:], RAYS[:-1] + [(0, 22)]],
        ids=["short-of-the-y-axis", "off-the-x-axis", "past-the-first-point"],
    )
    def test_rejects_a_wrong_end_point(self, points):
        with pytest.raises(ConsistencyError, match="does not run from"):
            self.certify(points)


class TestResolutionFan:
    def test_11_7_rays(self):
        fan = resolution_fan(Singularity(11, 7))
        assert list(fan.rays) == [
            (11, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 11),
        ]

    def test_2_1(self):
        fan = resolution_fan(Singularity(2, 1))
        assert list(fan.rays) == [(2, 0), (1, 1), (0, 2)]

    def test_5_3(self):
        fan = resolution_fan(Singularity(5, 3))
        assert list(fan.rays) == [(5, 0), (2, 1), (1, 3), (0, 5)]

    def test_against_recursion_oracle(self):
        for n, q in coprime_pairs(60):
            fan = resolution_fan(Singularity(n, q))
            assert list(fan.rays) == recursion_rays(n, q)

    def test_counts(self):
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            fan = resolution_fan(s)
            assert len(fan.rays[1:-1]) == curve_count(s)
            assert len(fan.maximal_cones) == curve_count(s) + 1

    def test_unimodularity_sweep(self):
        for n, q in coprime_pairs(120):
            check_unimodular(resolution_fan(Singularity(n, q)))


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
        bad = Fan2D(rays=((3, 0), (2, 1), (0, 3)), den=3)
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
            assert list(hilbert_basis_dual(Singularity(n, q))) == hilbert_basis_box_oracle(n, q)


    def test_11_7(self):
        assert hilbert_basis_dual(Singularity(11, 7)) == (
            (11, 0), (4, 1), (1, 3), (0, 11),
        )

    def test_chain(self):
        for n in range(2, 10):
            assert hilbert_basis_dual(Singularity(n, n - 1)) == (
                (n, 0), (1, 1), (0, n),
            )

    def test_5_1(self):
        assert hilbert_basis_dual(Singularity(5, 1)) == (
            (5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5),
        )

    def test_matches_generators(self):
        # one tuple per pair: the certified basis is the generators' tuple
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            basis = hilbert_basis_dual(s)
            assert len(basis) == embedding_dimension(s)
            assert basis is generators(s)


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
            Fan2D(rays=tuple(rays), den=2)

    def test_serialize(self):
        fan = resolution_fan(Singularity(2, 1))
        assert fan.serialize() == {"den": 2, "rays": ((2, 0), (1, 1), (0, 2))}
