from cqsing.cfrac import Singularity, curve_count
from cqsing.mckay import (
    GCluster,
    cluster_weight_check,
    curve_rep_assignment,
    g_basis,
    g_clusters,
    mckay_quiver,
    special_reps,
)

from conftest import coprime_pairs, staircase_boxes


def invariant_monomials(n, q, bound):
    return {
        (a, b)
        for a in range(bound + 1)
        for b in range(bound + 1)
        if (a or b) and (a + q * b) % n == 0
    }


def g_basis_oracle(n, q):
    """Brute force: check divisibility against every invariant monomial."""
    invariants = invariant_monomials(n, q, n)
    out = []
    for a in range(n):
        for b in range(n):
            if not any(c <= a and d <= b for c, d in invariants):
                out.append((a, b))
    return out


def g_basis_sweep_oracle(n, q):
    """Two-direction sweep over the n x n box: (a, b) has an invariant
    divisor if it is invariant itself or (a-1, b) or (a, b-1) has one."""
    has_divisor = [[False] * n for _ in range(n)]
    basis = []
    for a in range(n):
        row = has_divisor[a]
        for b in range(n):
            d = ((a or b) and (a + q * b) % n == 0) or (
                a > 0 and has_divisor[a - 1][b]
            ) or (b > 0 and row[b - 1])
            row[b] = d
            if not d:
                basis.append((a, b))
    return basis


def _special_reps_by_scan(s):
    """Nontrivial classes that no mixed monomial x^a y^b (a, b > 0) of the
    basis carries: the L-shaped set, read off a scan of g_basis."""
    mixed_weights = {
        weight(s, a, b) for a, b in staircase_boxes(g_basis(s)) if a > 0 and b > 0
    }
    return {k for k in range(1, s.n) if k not in mixed_weights}


def weight(s, a, b):
    return (a + s.q * b) % s.n


def boxes_by_weight(s, cluster):
    """The box of each residue a + q*b (mod n) of the cluster, or None unless
    its boxes carry each residue exactly once."""
    heights = cluster.heights
    by_weight = {
        weight(s, a, b): (a, b) for a, h in enumerate(heights) for b in range(h)
    }
    if len(by_weight) != s.n or sum(heights) != s.n:
        return None
    return by_weight


def cluster_weight_check_by_box(s, clusters):
    """r + 1 clusters, each whose per-box weights make up all of Z/n and
    whose generators' partners are the boxes of their weights."""
    if len(clusters) != curve_count(s) + 1:
        return False
    for c in clusters:
        by_weight = boxes_by_weight(s, c)
        if by_weight is None or list(c.partners) != [
            by_weight[weight(s, a, b)] for a, b in c.ideal
        ]:
            return False
    return True


def corrupted(s, clusters):
    """Each cluster of the list spoilt in turn, as (index, bad cluster):
    its two column runs swapped in length; each corner coordinate moved by
    one either way; one corner moved by the other, a lattice vector
    (i_next < 0 or j < 0, all else valid); and its outer corner joined to the
    inner corner of the next series cluster (det b*n, all else valid).
    Then, in place of the first cluster, two weight-zero corner pairs of det
    n out of order: i = i_next, and j = j_next."""
    n, q = s.n, s.q
    for k, c in enumerate(clusters):
        yield k, GCluster(c.i, c.j, c.i - c.i_next, c.j_next)
        corners = [c.i, c.j, c.i_next, c.j_next]
        for slot in range(4):
            for step in (-1, 1):
                moved = list(corners)
                moved[slot] += step
                yield k, GCluster(*moved)
        yield k, GCluster(c.i, c.j, c.i_next - c.i, c.j_next - c.j)
        yield k, GCluster(c.i - c.i_next, c.j - c.j_next, c.i_next, c.j_next)
        if k:  # clusters[k - 1] is series cluster k + 1 of c's series k
            nxt = clusters[k - 1]
            yield k, GCluster(c.i, c.j, nxt.i_next, nxt.j_next)
    q_inv = pow(q, -1, n)
    yield 0, GCluster(1, q_inv, 1, q_inv + n)
    yield 0, GCluster(q + n, 1, q, 1)


def partitions(total, cap=None):
    if total == 0:
        yield ()
        return
    cap = total if cap is None else min(cap, total)
    for first in range(cap, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def clusters_oracle(n, q):
    """Brute force over all partitions of n as column heights."""
    kept = []
    for heights in partitions(n):
        ws = {
            (a + q * b) % n
            for a, h in enumerate(heights)
            for b in range(h)
        }
        if len(ws) == n:
            kept.append(heights)
    return sorted(kept, key=len)


def clusters_dfs_oracle(n, q):
    """Torus-fixed cluster search: column heights left to right, cutting a
    column as soon as its weight repeats (it only gets worse as it grows).
    Returns the height tuples ordered by width."""
    found = []

    def extend(col, prev_h, remaining, mask, heights):
        base = col % n
        col_mask = 0
        for h in range(1, min(prev_h, remaining) + 1):
            bit = 1 << ((base + q * (h - 1)) % n)
            if (mask | col_mask) & bit:
                break
            col_mask |= bit
            rest = remaining - h
            if rest == 0:
                found.append(tuple(heights + [h]))
            else:
                extend(col + 1, h, rest, mask | col_mask, heights + [h])

    extend(0, n, n, 0, [])
    return sorted(found, key=len)


def corner_ideal_oracle(heights):
    """Minimal monomials outside the diagram, largest x-power first."""
    boxes = {(a, b) for a, h in enumerate(heights) for b in range(h)}

    def inside(a, b):
        return a < 0 or b < 0 or (a, b) in boxes

    corners = [
        (a, b)
        for a in range(len(heights) + 1)
        for b in range(heights[0] + 1)
        if not inside(a, b) and inside(a - 1, b) and inside(a, b - 1)
    ]
    return tuple(sorted(corners, reverse=True))


class TestQuiver:
    def test_11_7(self):
        quiver = mckay_quiver(Singularity(11, 7))
        assert len(quiver.vertices) == 11
        assert len(quiver.arrows) == 22
        assert (0, 1, "x") in quiver.arrows
        assert (0, 7, "y") in quiver.arrows
        assert (10, 0, "x") in quiver.arrows

    def test_2_1_parallel_arrows(self):
        quiver = mckay_quiver(Singularity(2, 1))
        assert quiver.arrows == ((0, 1, "x"), (0, 1, "y"), (1, 0, "x"), (1, 0, "y"))

    def test_dual_quiver(self):
        quiver = mckay_quiver(Singularity(11, 4))
        assert (0, 4, "y") in quiver.arrows
        assert len(quiver.arrows) == 22


class TestGBasis:
    def test_11_7_table(self):
        expected = {(a, 0) for a in range(11)}
        expected |= {(0, b) for b in range(11)}
        expected |= {(a, b) for a in range(1, 4) for b in (1, 2)}
        assert set(staircase_boxes(g_basis(Singularity(11, 7)))) == expected

    def test_chain(self):
        for n in range(2, 8):
            basis = set(staircase_boxes(g_basis(Singularity(n, n - 1))))
            expected = {(a, 0) for a in range(n)} | {(0, b) for b in range(n)}
            assert basis == expected

    def test_staircase_matches_sweep_oracle(self):
        for n, q in coprime_pairs(80):
            basis, oracle = g_basis(Singularity(n, q)), g_basis_sweep_oracle(n, q)
            assert staircase_boxes(basis) == oracle and sum(basis.heights) == len(oracle)

    def test_against_brute_force(self):
        for n, q in coprime_pairs(20):
            boxes = staircase_boxes(g_basis(Singularity(n, q)))
            assert sorted(boxes) == sorted(g_basis_oracle(n, q))


class TestSpecialReps:
    def test_11_7(self):
        assert special_reps(Singularity(11, 7)) == {1, 2, 3, 7}

    def test_chain_all_special(self):
        for n in range(2, 51):
            assert special_reps(Singularity(n, n - 1)) == set(range(1, n))

    def test_5_3_size_is_r(self):
        assert len(special_reps(Singularity(5, 3))) == 2

    def test_count_is_r_sweep(self):
        for n, q in coprime_pairs(80):
            s = Singularity(n, q)
            assert len(special_reps(s)) == curve_count(s), (n, q)

    def test_closed_form_matches_scan_oracle(self):
        pairs = coprime_pairs(100)
        assert len(pairs) == 3043
        for n, q in pairs:
            s = Singularity(n, q)
            assert special_reps(s) == _special_reps_by_scan(s), (n, q)

    def test_duality(self):
        for n, q in coprime_pairs(40):
            q_inv = pow(q, -1, n)
            mapped = {(q_inv * k) % n for k in special_reps(Singularity(n, q))}
            assert mapped == special_reps(Singularity(n, q_inv))


class TestClusters:
    def test_11_7_ideals(self):
        clusters = g_clusters(Singularity(11, 7))
        assert [c.ideal for c in clusters] == [
            ((1, 0), (0, 11)),
            ((2, 0), (1, 3), (0, 8)),
            ((3, 0), (1, 3), (0, 5)),
            ((7, 0), (4, 1), (0, 2)),
            ((11, 0), (0, 1)),
        ]

    def test_2_1(self):
        clusters = g_clusters(Singularity(2, 1))
        assert [c.ideal for c in clusters] == [((1, 0), (0, 2)), ((2, 0), (0, 1))]

    def test_3_2(self):
        clusters = g_clusters(Singularity(3, 2))
        assert [c.ideal for c in clusters] == [
            ((1, 0), (0, 3)),
            ((2, 0), (1, 1), (0, 2)),
            ((3, 0), (0, 1)),
        ]

    def test_against_partition_oracle(self):
        for n, q in coprime_pairs(12):
            clusters = g_clusters(Singularity(n, q))
            assert [c.heights for c in clusters] == clusters_oracle(n, q)

    def test_count_and_regular_representation_sweep(self):
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            assert cluster_weight_check(s, g_clusters(s)), (n, q)

    def test_weight_check_matches_per_box_oracle(self):
        # each pair's own clusters, then lists that must fail: one cluster
        # short, and the clusters of the dual pair (n, n - q)
        for n, q in coprime_pairs(100):
            s = Singularity(n, q)
            clusters = g_clusters(s)
            for candidate in (clusters, clusters[:-1], g_clusters(Singularity(n, n - q))):
                assert cluster_weight_check(s, candidate) == cluster_weight_check_by_box(
                    s, candidate
                ), (n, q)
        # one cluster corrupted (see ``corrupted``)
        verdicts = set()
        for n, q in coprime_pairs(30):
            s = Singularity(n, q)
            clusters = g_clusters(s)
            for k, bad in corrupted(s, clusters):
                candidate = clusters[:k] + (bad,) + clusters[k + 1:]
                verdict = cluster_weight_check(s, candidate)
                assert verdict == cluster_weight_check_by_box(s, candidate), (
                    n, q, bad,
                )
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_boxes_by_weight(self):
        s = Singularity(11, 7)
        for c in g_clusters(s):
            by_weight = boxes_by_weight(s, c)
            assert sorted(by_weight) == list(range(11))
            assert all(weight(s, a, b) == k for k, (a, b) in by_weight.items())
        # a weight twice: (0, 0) and (0, 11) both have weight 0
        assert boxes_by_weight(s, GCluster(i=1, j=8, i_next=0, j_next=12)) is None
        # too few boxes
        assert boxes_by_weight(s, GCluster(i=1, j=8, i_next=0, j_next=10)) is None

    def test_partners_match_weight_lookup(self):
        # each generator's partner is the box of the cluster with its weight
        for n, q in coprime_pairs(80):
            s = Singularity(n, q)
            for c in g_clusters(s):
                by_weight = boxes_by_weight(s, c)
                assert len(c.partners) == len(c.ideal), (n, q)
                assert list(c.partners) == [
                    by_weight[weight(s, a, b)] for a, b in c.ideal
                ], (n, q, c.heights)

    def test_closed_form_matches_dfs_oracle(self):
        cliffs = [(101, 37), (96, 37), (88, 25), (80, 51)]
        for n, q in coprime_pairs(40) + cliffs:
            clusters = g_clusters(Singularity(n, q))
            expected = clusters_dfs_oracle(n, q)
            assert [c.heights for c in clusters] == expected, (n, q)
            assert [c.ideal for c in clusters] == [
                corner_ideal_oracle(h) for h in expected
            ], (n, q)

    def test_chain_staircases(self):
        for n in range(2, 12):
            clusters = g_clusters(Singularity(n, n - 1))
            assert len(clusters) == n
            for c in clusters:
                # hook shapes: one column of height b+1 plus a row of width a
                assert all(h == 1 for h in c.heights[1:])


class TestCurveAssignment:
    def test_11_7(self):
        s = Singularity(11, 7)
        assert curve_rep_assignment(s, g_clusters(s)) == [
            (1, 1), (2, 2), (3, 3), (4, 7),
        ]

    def test_chain_identity(self):
        for n in range(2, 20):
            s = Singularity(n, n - 1)
            assert curve_rep_assignment(s, g_clusters(s)) == [
                (k, k) for k in range(1, n)
            ]

    def test_bijection_onto_specials_sweep(self):
        for n, q in coprime_pairs(50):
            s = Singularity(n, q)
            assigned = curve_rep_assignment(s, g_clusters(s))
            assert {w for _, w in assigned} == special_reps(s)
            assert len(assigned) == curve_count(s)
