"""Acceptance gate: one test per criterion, each printing a pass line with
its runtime and asserting the stated time budget.  Run with -s to see the
lines as they complete."""

import json
import random
import time
from fractions import Fraction

from cqsing.cfrac import (
    Singularity,
    curve_count,
    embedding_dimension,
    hj_expand,
    identities,
    ij_series as generators,
)
from cqsing.cli import main
from cqsing.deform import dim_t1, versal_presentation
from cqsing.gfan import fans_equal, groebner_fan
from cqsing.invariant_ring import defining_equations
from cqsing.mckay import cluster_weight_check, g_clusters, special_reps
from cqsing.polyring import WeightedOrder, buchberger, normal_form, s_polynomial
from cqsing.reconstruct import (
    deformed_relations,
    quasidet_presentation,
    reconstruction_quiver,
)
from cqsing.toric import primitive, resolution_fan, self_intersections

from conftest import cone_of_weight, coprime_pairs, row_poly, specialized_relations


class _Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"{status} criterion {self.number} ({self.label}): "
            f"{elapsed:.2f}s of {self.seconds}s budget"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
            )
        return False


def test_criterion_1_fractions():
    with _Budget(1, "fractions", 1.0):
        assert hj_expand(11, 7) == (2, 3, 2, 2)
        assert hj_expand(11, 4) == (3, 4)
        assert identities(Singularity(11, 7)).e == 4
        for n, q in coprime_pairs(200):
            ids = identities(Singularity(n, q))  # raises on violation
            assert ids.sum_b == ids.sum_a


def test_criterion_2_invariant_ring():
    with _Budget(2, "invariant ring", 5.0):
        assert generators(Singularity(11, 7)) == ((11, 0), (4, 1), (1, 3), (0, 11))
        rels = {r.left: dict(r.right) for r in defining_equations(Singularity(11, 7))}
        assert rels[(1, 3)] == {2: 3}
        assert rels[(2, 4)] == {3: 4}
        from cqsing.invariant_ring import verify_presentation

        for n, q in coprime_pairs(120):
            s = Singularity(n, q)
            e = embedding_dimension(s)
            rels = defining_equations(s)
            assert len(rels) == (e - 1) * (e - 2) // 2
            assert verify_presentation(s, rels)


def test_criterion_3_special_representations():
    with _Budget(3, "special classes", 30.0):
        assert special_reps(Singularity(11, 7)) == {1, 2, 3, 7}
        for n in range(2, 51):
            assert special_reps(Singularity(n, n - 1)) == set(range(1, n))
        for n, q in coprime_pairs(80):
            s = Singularity(n, q)
            assert len(special_reps(s)) == curve_count(s)


def test_criterion_4_g_clusters():
    with _Budget(4, "clusters", 60.0):
        clusters = g_clusters(Singularity(11, 7))
        assert [c.ideal for c in clusters] == [
            ((1, 0), (0, 11)),
            ((2, 0), (1, 3), (0, 8)),
            ((3, 0), (1, 3), (0, 5)),
            ((7, 0), (4, 1), (0, 2)),
            ((11, 0), (0, 1)),
        ]
        for n, q in coprime_pairs(60):
            s = Singularity(n, q)
            assert cluster_weight_check(s, g_clusters(s)), (n, q)


GOLDEN_BASES = {
    (1, 11): [{(0, 1): 1, (7, 0): -1}, {(11, 0): 1, (0, 0): -1}],
    (2, 7): [
        {(0, 2): 1, (3, 0): -1},
        {(7, 0): 1, (0, 1): -1},
        {(4, 1): 1, (0, 0): -1},
    ],
    (3, 3): [
        {(3, 0): 1, (0, 2): -1},
        {(1, 3): 1, (0, 0): -1},
        {(0, 5): 1, (2, 0): -1},
    ],
    (6, 2): [
        {(2, 0): 1, (0, 5): -1},
        {(1, 3): 1, (0, 0): -1},
        {(0, 8): 1, (1, 0): -1},
    ],
    (9, 1): [{(1, 0): 1, (0, 8): -1}, {(0, 11): 1, (0, 0): -1}],
}


def test_criterion_5_groebner():
    with _Budget(5, "Groebner fan", 120.0):
        for w, expected in GOLDEN_BASES.items():
            cone = cone_of_weight(Singularity(11, 7), w)
            got = [dict(row_poly(row).terms) for row in cone.basis]
            assert got == [
                {m: Fraction(c) for m, c in t.items()} for t in expected
            ], w
        fan, cones = groebner_fan(Singularity(11, 7))
        assert {primitive(r) for r in fan.rays} == {
            (1, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 1),
        }
        assert len(cones) == 5
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            gfan_fan, _ = groebner_fan(s)
            assert fans_equal(gfan_fan, resolution_fan(s)), (n, q)


def test_criterion_6_deformation():
    with _Budget(6, "deformation", 60.0):
        assert dim_t1(Singularity(11, 4)) == 7  # dual expansion [2,3,2,2]
        assert dim_t1(Singularity(11, 7)) == 5
        assert dim_t1(Singularity(11, 7)) == deformed_relations(
            Singularity(11, 7)
        ).base_dimension

        pres = versal_presentation(Singularity(11, 4))
        v = pres.variables
        t = v.table
        z = {i: t.var(f"z{i}") for i in range(1, 7)}
        s2, s3a, s3b = t.var("s2(1)"), t.var("s3(1)"), t.var("s3(2)")
        s4, s5, t3, t4 = t.var("s4(1)"), t.var("s5(1)"), t.var("t3"), t.var("t4")
        golden = {
            (1, 3): z[1] * (z[3] + t3) - z[2] * (z[2] + s2),
            (2, 4): z[2] * (z[4] + t4)
            - (z[3] + t3) * (z[3] ** 2 + z[3] * s3a + s3b),
            (3, 5): z[3] * z[5] - (z[4] + t4) * (z[4] + s4),
            (4, 6): z[4] * z[6] - z[5] * (z[5] + s5),
            (2, 5): z[2] * z[5] - (z[3] + t3) * (z[3] + s3a) * (z[4] + s4),
            (2, 6): z[2] * z[6] - (z[3] + t3) * (z[3] + s3a) * (z[5] + s5),
            (3, 6): z[3] * z[6] - (z[4] + s4) * (z[5] + s5),
        }
        relmap = dict(zip(pres.pairs, pres.relations))
        for pair, expected in golden.items():
            assert relmap[pair] == expected, pair
        assert list(pres.base_ideal) == [
            t3 * s3b,
            t3 * s3a * s4,
            t3 * s3a * s5,
            t4 * s4,
            s4 * s5,
            s4 * s5 - t4 * s5,
        ]

        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            if embedding_dimension(s) < 4:
                continue
            p = versal_presentation(s)
            table = p.variables.table
            expected = {}
            for rel in defining_equations(s):
                i, j = rel.left
                rhs = table.one()
                for idx, exp in rel.right:
                    rhs = rhs * table.var(f"z{idx}", exp)
                expected[rel.left] = table.var(f"z{i}") * table.var(f"z{j}") - rhs
            got = dict(zip(p.pairs, specialized_relations(p)))
            assert got == expected, (n, q)


def test_criterion_7_reconstruction():
    with _Budget(7, "reconstruction", 1.0):
        quiver = reconstruction_quiver(Singularity(11, 7))
        assert {(r.vertex, r.text()) for r in quiver.relations} == {
            (0, "a01*a12*k2_1 - c04*a40"),
            (0, "c04*c43*c32*k2_1 - a01*c10"),
            (1, "c10*a01 - a12*c21"),
            (2, "k2_1*c04*c43*c32 - c21*a12"),
            (2, "k2_1*a01*a12 - a23*c32"),
            (3, "c32*a23 - a34*c43"),
            (4, "c43*a34 - a40*c04"),
        }
        pres = quasidet_presentation(Singularity(11, 7))
        t = pres.table
        v = {name: t.var(name) for name in t.names}
        assert list(pres.relations) == [
            v["z0_0"] * v["z2_1"] - v["z1_1"] * v["z1_0"],
            v["z0_0"] * v["z3_0"] - v["z1_1"] * v["z2_0"],
            v["z1_0"] * v["z3_0"] - v["z2_1"] * v["z2_0"],
        ]
        deformed = deformed_relations(Singularity(11, 7))
        assert tuple(len(g) for g in deformed.groups) == (3, 4)
        assert deformed.base_dimension == 5
        assert deformed.base_dimension == sum(len(g) - 1 for g in deformed.groups)
        plain = {(r.positive, r.negative) for r in quiver.relations}
        matched = set()
        for rel in deformed.relations:
            direct = (rel.positive, rel.negative)
            flipped = (rel.negative, rel.positive)
            assert direct in plain or flipped in plain
            matched.add(direct if direct in plain else flipped)
        assert matched == plain


def _random_poly(table, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(0, 4), rng.randint(0, 4))] = rng.randint(-5, 5)
    return table.poly(terms)


def test_criterion_8_property_suites(capsys):
    with _Budget(8, "property suites", 120.0):
        # Buchberger idempotence and S-pair reduction on random ideals
        from cqsing.polyring import VariableTable

        table = VariableTable(["x", "y"])
        rng = random.Random(42)
        order = WeightedOrder(weights=(2, 5))
        for _ in range(25):
            gens = [g for g in (_random_poly(table, rng) for _ in range(3)) if g]
            if not gens:
                continue
            basis = buchberger(gens, order)
            assert buchberger(basis, order) == basis
            for i in range(len(basis)):
                for j in range(i):
                    s_poly = s_polynomial(basis[i], basis[j], order)
                    if s_poly:
                        assert not normal_form(s_poly, basis, order)

        # fan unimodularity and expansion round trip up to 120
        for n, q in coprime_pairs(120):
            s = Singularity(n, q)
            fan = resolution_fan(s)  # construction asserts unimodularity
            assert self_intersections(fan) == hj_expand(n, q)

        # duality: inverse residue reverses the expansion
        for n, q in coprime_pairs(200):
            q_inv = pow(q, -1, n)
            assert hj_expand(n, q_inv) == tuple(reversed(hj_expand(n, q)))

        # CLI determinism, byte for byte
        for argv in (
            ["resolve", "11", "7", "--format", "json"],
            ["gfan", "11", "7", "--format", "json"],
            ["hilb", "11", "7", "--format", "text"],
            ["reconstruct", "11", "7", "--format", "dot"],
        ):
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            assert capsys.readouterr().out == first
            assert first
