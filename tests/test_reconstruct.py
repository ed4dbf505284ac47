import pytest

from cqsing import cfrac
from cqsing.cfrac import (
    Singularity,
    curve_count,
    dual_expand,
    embedding_dimension,
    ij_series,
)
from cqsing.cli import main
from cqsing.deform import dim_t1
from cqsing.errors import InputError, UnsupportedError
from cqsing.polyring import VariableTable, poly_text
from cqsing.reconstruct import (
    Arrow,
    DeformedRelations,
    Relation,
    deformed_relations,
    quasidet_presentation,
    quiver_from_fraction,
    reconstruction_quiver,
)

from conftest import coprime_pairs


def A(i, j):
    return Arrow(kind="a", tail=i, head=j)


def C(i, j):
    return Arrow(kind="c", tail=i, head=j)


K21 = Arrow(kind="k", tail=2, head=0, slot=1)


def deformed_relations_by_shape(s):
    """Oracle for ``deformed_relations``: the deformed relations written out
    per supported shape (all weights 2, or a single 3 at vertex m)."""
    quiver = reconstruction_quiver(s)
    if quiver.relations is None:
        raise UnsupportedError(quiver.unsupported_reason)
    fraction = quiver.fraction
    r = len(fraction)
    count = r + 1
    dual = dual_expand(s)
    heavy = [i for i, b in enumerate(fraction, start=1) if b > 2]

    def a(i):
        return A(i, (i + 1) % count)

    def c(i):
        return C(i, (i - 1) % count)

    def left(v):
        return (c(v), a((v - 1) % count))

    def right(v):
        return (a(v), c((v + 1) % count))

    def forward(m):
        return tuple(a(i) for i in range(m))

    def backward(m):
        return (c(0),) + tuple(c(i) for i in range(r, m, -1))

    if not heavy:
        relations = [Relation(v, right(v), left(v), f"t1_{v}") for v in range(count)]
        groups = (tuple(f"t1_{v}" for v in range(count)),)
    else:
        m = heavy[0]
        k = Arrow(kind="k", tail=m, head=0, slot=1)
        group1 = [Relation(0, right(0), backward(m) + (k,), "t1_0")]
        group1 += [Relation(v, right(v), left(v), f"t1_{v}") for v in range(1, m)]
        group1.append(Relation(m, (k,) + backward(m), left(m), f"t1_{m}"))
        group2 = [
            Relation(0, forward(m) + (k,), left(0), "t2_0"),
            Relation(m, right(m), (k,) + forward(m), "t2_1"),
        ]
        group2 += [
            Relation(v, right(v), left(v), f"t2_{j}")
            for j, v in enumerate(range(m + 1, r + 1), start=2)
        ]
        relations = sorted(group1 + group2, key=lambda rel: (rel.vertex, rel.parameter))
        groups = (
            tuple(rel.parameter for rel in group1),
            tuple(rel.parameter for rel in group2),
        )
    return DeformedRelations(
        relations=tuple(relations),
        groups=groups,
        base_dimension=sum(a - 1 for a in dual),
    )


def supported_pairs(max_n):
    """Coprime pairs n <= max_n with r >= 2 whose relations are emitted."""
    return [
        (n, q)
        for n, q in coprime_pairs(max_n)
        if curve_count(Singularity(n, q)) >= 2
        and reconstruction_quiver(Singularity(n, q)).relations is not None
    ]


class TestQuiverStructure:
    def test_11_7(self):
        quiver = reconstruction_quiver(Singularity(11, 7))
        assert quiver.vertices == ("b0", "b1", "b2", "b3", "b4")
        labels = sorted(a.label for a in quiver.arrows)
        assert labels == sorted(
            ["a01", "a12", "a23", "a34", "a40",
             "c04", "c10", "c21", "c32", "c43", "k2_1"]
        )
        assert len(quiver.arrows) == 11

    def test_chain_doubled_cycle(self):
        quiver = reconstruction_quiver(Singularity(6, 5))
        assert len(quiver.vertices) == 6
        assert len(quiver.arrows) == 12
        assert all(a.kind in "ac" for a in quiver.arrows)

    def test_5_3_k_arrow(self):
        quiver = reconstruction_quiver(Singularity(5, 3))
        ks = [a for a in quiver.arrows if a.kind == "k"]
        assert ks == [Arrow(kind="k", tail=2, head=0, slot=1)]

    def test_r1_rejected(self):
        # a valid pair with r = 1 is unsupported; a malformed fraction is bad input
        with pytest.raises(UnsupportedError):
            reconstruction_quiver(Singularity(5, 1))
        for fraction in ([5], [2, 1]):
            with pytest.raises(InputError):
                quiver_from_fraction(fraction)

    def test_arrow_counts_match_weights(self):
        for n, q in coprime_pairs(30):
            s = Singularity(n, q)
            b = dual_expand(Singularity(n, n - q))  # = hj_expand(n, q)
            if len(b) < 2:
                continue
            quiver = reconstruction_quiver(s)
            expected = 2 * (len(b) + 1) + sum(w - 2 for w in b)
            assert len(quiver.arrows) == expected

    def test_relations_hold_the_quiver_arrows(self):
        # each arrow is built once: every path of a plain or a deformed
        # relation holds the very objects of quiver.arrows
        for n, q in supported_pairs(40):
            s = Singularity(n, q)
            quiver = reconstruction_quiver(s)
            built = set(map(id, quiver.arrows))
            for rel in quiver.relations + deformed_relations(s).relations:
                assert all(id(a) in built for a in rel.positive + rel.negative), (n, q)

    def test_reversed_fraction_isomorphic(self):
        for n, q in coprime_pairs(25):
            s = Singularity(n, q)
            if curve_count(s) < 2:
                continue
            quiver = reconstruction_quiver(s)
            fraction = quiver.fraction
            count = len(fraction) + 1
            reverse = quiver_from_fraction(tuple(reversed(fraction)))

            def relocate(v):
                return (count - v) % count

            swap = {"a": "c", "c": "a", "k": "k"}
            mapped = sorted(
                (swap[a.kind], relocate(a.tail), relocate(a.head), a.slot)
                for a in quiver.arrows
            )
            target = sorted(
                (a.kind, a.tail, a.head, a.slot) for a in reverse.arrows
            )
            assert mapped == target


class TestRelations:
    def test_11_7_relation_set(self):
        quiver = reconstruction_quiver(Singularity(11, 7))
        by_text = {(r.vertex, r.text()) for r in quiver.relations}
        assert by_text == {
            (0, "a01*a12*k2_1 - c04*a40"),
            (0, "c04*c43*c32*k2_1 - a01*c10"),
            (1, "c10*a01 - a12*c21"),
            (2, "k2_1*c04*c43*c32 - c21*a12"),
            (2, "k2_1*a01*a12 - a23*c32"),
            (3, "c32*a23 - a34*c43"),
            (4, "c43*a34 - a40*c04"),
        }

    def test_paths_are_loops(self):
        for n, q in coprime_pairs(25):
            s = Singularity(n, q)
            if curve_count(s) < 2:
                continue
            quiver = reconstruction_quiver(s)
            if quiver.relations is None:
                continue
            for rel in quiver.relations:
                for path in (rel.positive, rel.negative):
                    assert path[0].tail == rel.vertex
                    assert path[-1].head == rel.vertex
                    for cur, nxt in zip(path, path[1:]):
                        assert cur.head == nxt.tail

    def test_chain_preprojective_count(self):
        quiver = reconstruction_quiver(Singularity(6, 5))
        assert len(quiver.relations) == 6  # one per vertex

    def test_unsupported_flagged_not_guessed(self):
        quiver = reconstruction_quiver(Singularity(9, 2))  # expansion [5, 2]
        assert quiver.relations is None
        assert "[5, 2]" in quiver.unsupported_reason
        quiver = reconstruction_quiver(Singularity(30, 11))  # [3, 4, 3]
        assert quiver.relations is None


class TestDeformedRelations:
    def test_11_7_parameters(self):
        deformed = deformed_relations(Singularity(11, 7))
        texts = {r.text() for r in deformed.relations}
        assert texts == {
            "a12*c21 - c10*a01 = t1_1",
            "k2_1*c04*c43*c32 - c21*a12 = t1_2",
            "a01*c10 - c04*c43*c32*k2_1 = t1_0",
            "a23*c32 - k2_1*a01*a12 = t2_1",
            "a34*c43 - c32*a23 = t2_2",
            "a40*c04 - c43*a34 = t2_3",
            "a01*a12*k2_1 - c04*a40 = t2_0",
        }
        assert deformed.groups == (
            ("t1_0", "t1_1", "t1_2"),
            ("t2_0", "t2_1", "t2_2", "t2_3"),
        )
        assert deformed.base_dimension == 5

    def test_group_sizes_follow_dual_expansion(self):
        for n, q in coprime_pairs(30):
            s = Singularity(n, q)
            if curve_count(s) < 2:
                continue
            quiver = reconstruction_quiver(s)
            if quiver.relations is None:
                with pytest.raises(UnsupportedError):
                    deformed_relations(s)
                continue
            deformed = deformed_relations(s)
            assert tuple(len(g) for g in deformed.groups) == dual_expand(s)
            assert len(deformed.relations) == len(quiver.relations)

    def test_zero_parameters_recover_relations(self):
        # at t = 0 each deformed relation is one of the plain relations,
        # possibly with the two sides exchanged, and the match is a bijection
        pairs = supported_pairs(60)
        assert {(11, 7), (5, 3), (6, 5)} <= set(pairs)
        for n, q in pairs:
            s = Singularity(n, q)
            quiver = reconstruction_quiver(s)
            deformed = deformed_relations(s)
            plain = {(r.positive, r.negative) for r in quiver.relations}
            matched = set()
            for rel in deformed.relations:
                direct = (rel.positive, rel.negative)
                flipped = (rel.negative, rel.positive)
                assert direct in plain or flipped in plain
                matched.add(direct if direct in plain else flipped)
            assert matched == plain

    def test_matches_per_shape_oracle(self):
        # the same relations, groups and base, or the same refusal
        for n, q in coprime_pairs(120):
            s = Singularity(n, q)
            if curve_count(s) < 2:
                continue
            try:
                expected = deformed_relations_by_shape(s)
            except UnsupportedError as exc:
                with pytest.raises(UnsupportedError) as got:
                    deformed_relations(s)
                assert str(got.value) == str(exc), (n, q)
                continue
            assert deformed_relations(s) == expected, (n, q)
            assert tuple(map(len, expected.groups)) == dual_expand(s), (n, q)

    def test_grouping_checked_against_dual_expansion(self, monkeypatch, capsys):
        # both shapes refuse a dual expansion their groups do not match
        for (n, q), dual in [((11, 7), (4, 3)), ((6, 5), (3, 3))]:
            monkeypatch.setattr(cfrac, "dual_expand", lambda s, dual=dual: dual)
            assert main(["reconstruct", str(n), str(q)]) == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: parameter grouping does not match the dual expansion\n"

    def test_chain_base(self):
        for n in range(3, 12):
            s = Singularity(n, n - 1)
            deformed = deformed_relations(s)
            assert deformed.groups == (
                tuple(f"t1_{v}" for v in range(n)),
            )
            assert deformed.base_dimension == n - 1 == dim_t1(s)

    def test_base_dimension_matches_dim_t1_on_supported_class(self):
        # the supported weight chains all have embedding dimension 3 or 4,
        # where the tangent dimension equals sum(a_i - 1)
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            if curve_count(s) < 2:
                continue
            quiver = reconstruction_quiver(s)
            if quiver.relations is None:
                continue
            assert embedding_dimension(s) in (3, 4)
            assert deformed_relations(s).base_dimension == dim_t1(s)


class TestQuasidet:
    def test_11_7_matrix_and_relations(self):
        pres = quasidet_presentation(Singularity(11, 7))
        assert pres.dual_fraction == (3, 4)
        assert pres.matrix == (
            ("z0_0", "z1_0", "z2_0"),
            ("z1_1", "z2_1", "z3_0"),
        )
        t = pres.table
        v = {name: t.var(name) for name in t.names}
        expected = [
            v["z0_0"] * v["z2_1"] - v["z1_1"] * v["z1_0"],
            v["z0_0"] * v["z3_0"] - v["z1_1"] * v["z2_0"],
            v["z1_0"] * v["z3_0"] - v["z2_1"] * v["z2_0"],
        ]
        assert list(pres.relations) == expected

    def test_degenerate_flagged(self):
        with pytest.raises(UnsupportedError):
            quasidet_presentation(Singularity(6, 5))

    def test_13_5_layout(self):
        pres = quasidet_presentation(Singularity(13, 5))
        assert pres.dual_fraction == (2, 3, 3)
        assert pres.matrix == (
            ("z0_0", "z1_0"),
            ("z1_1", "z2_0"),
            ("z2_1", "z3_0"),
        )
        assert len(pres.relations) == 1

    def test_13_5_substitution_oracle(self):
        # frozen assignment: generator exponents of (13, 5) are
        # u1..u5 = (13,0), (8,1), (3,2), (1,5), (0,13)
        pres = quasidet_presentation(Singularity(13, 5))
        assignment = {
            "z0_0": (13, 0),
            "z1_0": (2, 10),  # u4^2
            "z1_1": (8, 1),  # u2
            "z2_1": (3, 2),  # u3
            "z3_0": (0, 13),  # u5
            "z2_0": (0, 0),  # unused by the single relation
        }
        _assert_relations_vanish(pres, assignment)

    def test_11_7_substitution(self):
        s = Singularity(11, 7)
        pres = quasidet_presentation(s)
        assignment = monomial_assignment(s)
        assert assignment is not None
        assert assignment["z0_0"] == (11, 0)
        assert assignment["z3_0"] == (0, 11)
        _assert_relations_vanish(pres, assignment)

    def test_assignment_derivable_for_two_row_layouts(self):
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            dual = dual_expand(s)
            if len(dual) != 2 or dual[0] > len(dual) + 1:
                continue
            assignment = monomial_assignment(s)
            assert assignment is not None
            assert all(a >= 0 and b >= 0 for a, b in assignment.values())
            _assert_relations_vanish(quasidet_presentation(s), assignment)

    def test_matches_multiplication_oracle(self):
        pairs = [(n, q) for n, q in coprime_pairs(40) if len(dual_expand(Singularity(n, q))) >= 2]
        for n, q in pairs + [(100, 1)]:
            s = Singularity(n, q)
            pres = quasidet_presentation(s)
            matrix, names, relations = quasidet_by_multiplication(s)
            assert pres.matrix == matrix, (n, q)
            assert pres.table.names == names, (n, q)
            assert list(pres.relations) == relations, (n, q)
            assert [poly_text(f) for f in pres.relations] == [poly_text(f) for f in relations]


def quasidet_by_multiplication(s):
    """Oracle for ``quasidet_presentation``: the symbols named first and
    sorted by parsing their indices back, and each relation multiplied out
    one variable at a time in ``Polynomial`` arithmetic."""
    dual = dual_expand(s)
    rows, cols = len(dual), dual[0]
    matrix = tuple(
        tuple(f"z{r + c}_{r - max(0, r + c - (cols - 1))}" for c in range(cols))
        for r in range(rows)
    )
    names = sorted(
        {name for row in matrix for name in row},
        key=lambda t: tuple(int(x) for x in t[1:].split("_")),
    )
    table = VariableTable(names)
    relations = []
    for c1 in range(cols):
        for c2 in range(c1 + 1, cols):
            middle = table.one()
            for c in range(c1, c2):
                for r in range(1, rows - 1):
                    middle = middle * table.var(matrix[r][c])
            relations.append(
                table.var(matrix[0][c1]) * table.var(matrix[rows - 1][c2])
                - table.var(matrix[rows - 1][c1]) * middle * table.var(matrix[0][c2])
            )
    return matrix, table.names, relations


def _assert_relations_vanish(pres, assignment):
    """Substituting x^a y^b for each symbol must kill every relation; the
    check happens in exponent space (monomials multiply by adding)."""
    for rel in pres.relations:
        totals = set()
        for exps, coeff in rel.terms.items():
            total = (0, 0)
            for name, e in zip(pres.table.names, exps):
                a, b = assignment[name]
                total = (total[0] + a * e, total[1] + b * e)
            totals.add(total)
        assert len(totals) == 1, rel


def monomial_assignment(s):
    """Exponent pairs for the matrix symbols under which every relation
    vanishes identically, derived from the invariant generators.

    Only derivable for two-row layouts whose column count fits inside the
    generator list; returns None otherwise.
    """
    dual = dual_expand(s)
    if len(dual) != 2:
        return None
    e = len(dual) + 2
    cols = dual[0]
    if cols > e - 1:
        return None
    pairs = ij_series(s).pairs  # pairs[t-1] = exponents of generator t
    u = {t: pairs[t - 1] for t in range(1, e + 1)}
    assignment = {}
    pres = quasidet_presentation(s)
    top, bottom = pres.matrix[0], pres.matrix[1]
    for c in range(cols):
        b = u[c + 2]
        assignment[bottom[c]] = b
        if c == 0:
            assignment[top[c]] = u[1]
        else:
            assignment[top[c]] = (
                u[1][0] + b[0] - u[2][0],
                u[1][1] + b[1] - u[2][1],
            )
    return assignment
