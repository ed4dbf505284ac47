from cqsing import cli
from cqsing.cfrac import Singularity, embedding_dimension, ij_series
from cqsing.deform import right_codes
from cqsing.invariant_ring import (
    defining_equations,
    monomial_text,
    verify_presentation,
)
from cqsing.polyring import VariableTable

from conftest import coprime_pairs


def can_express(target, exponent_pairs):
    """Oracle: is target a sum of the given exponent pairs (semigroup
    membership by dynamic programming)?"""
    reachable = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        cur = frontier.pop()
        for da, db in exponent_pairs:
            nxt = (cur[0] + da, cur[1] + db)
            if nxt == target:
                return True
            if nxt[0] <= target[0] and nxt[1] <= target[1] and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return False


class TestGenerators:
    def test_11_7(self):
        gens = ij_series(Singularity(11, 7))
        assert gens == ((11, 0), (4, 1), (1, 3), (0, 11))
        assert [monomial_text(*g) for g in gens] == ["x^11", "x^4*y", "x*y^3", "y^11"]

    def test_chain(self):
        for n in range(2, 10):
            assert ij_series(Singularity(n, n - 1)) == ((n, 0), (1, 1), (0, n))

    def test_5_1(self):
        assert ij_series(Singularity(5, 1)) == (
            (5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5),
        )

    def test_count_matches_embedding_dimension(self):
        for n, q in coprime_pairs(120):
            s = Singularity(n, q)
            assert len(ij_series(s)) == embedding_dimension(s)

    def test_generate_and_minimal(self):
        # every invariant monomial in the 2n box is a product of generators,
        # and dropping any generator loses it
        for n, q in coprime_pairs(25):
            s = Singularity(n, q)
            pairs = ij_series(s)
            for a in range(2 * n + 1):
                for b in range(2 * n + 1):
                    if (a or b) and (a + q * b) % n == 0:
                        assert can_express((a, b), pairs), (n, q, a, b)
            for g in pairs:
                rest = [h for h in pairs if h != g]
                assert not can_express(g, rest), (n, q, g)


class TestDefiningEquations:
    def test_11_7(self):
        rels = {r.left: dict(r.right) for r in defining_equations(Singularity(11, 7))}
        assert rels == {
            (1, 3): {2: 3},
            (2, 4): {3: 4},
            (1, 4): {2: 2, 3: 3},
        }

    def test_chain_is_single_hypersurface(self):
        for n in range(2, 10):
            rels = defining_equations(Singularity(n, n - 1))
            assert len(rels) == 1
            assert rels[0].left == (1, 3)
            assert dict(rels[0].right) == {2: n}

    def test_5_3(self):
        rels = {r.left: dict(r.right) for r in defining_equations(Singularity(5, 3))}
        assert rels == {
            (1, 3): {2: 3},
            (2, 4): {3: 2},
            (1, 4): {2: 2, 3: 1},
        }

    def test_count_and_substitution_sweep(self):
        for n, q in coprime_pairs(120):
            s = Singularity(n, q)
            e = embedding_dimension(s)
            rels = defining_equations(s)
            assert len(rels) == (e - 1) * (e - 2) // 2
            assert verify_presentation(s, rels)
            # the check reads the list it is given: z1*z3 = 1 fails
            assert not verify_presentation(s, (rels[0]._replace(right=()),) + rels[1:])

    def test_right_codes(self):
        s = Singularity(11, 7)
        names = [f"z{t}" for t in range(1, len(ij_series(s)) + 1)]
        table = VariableTable(names)
        rels = defining_equations(s)
        codes = right_codes(rels, {t: table._code(name) for t, name in enumerate(names, 1)})
        assert codes[0] == table._code("z2", 3)
        for rel, code in zip(rels, codes):
            exponents = [0] * len(table)
            for t, e in rel.right:
                exponents[t - 1] = e
            assert table._unpack(code) == tuple(exponents), rel


def mckay_walks(s, gens):
    """Oracle for the ``cycle_lengths`` check of ``verify``: for each
    generator x^i y^j a walk from residue 0 in the quiver on residues mod n
    with steps +1 (an x-arrow) and +q (a y-arrow), i x-steps and j y-steps,
    the smaller next residue first.  It closes iff it ends at 0 again."""
    n, q = s.n, s.q
    walks = []
    for a, b in gens:
        seq = [0]
        cur = 0
        while a or b:
            nxt_x = (cur + 1) % n
            nxt_y = (cur + q) % n
            if a and (not b or nxt_x <= nxt_y):
                cur, a = nxt_x, a - 1
            else:
                cur, b = nxt_y, b - 1
            seq.append(cur)
        walks.append(tuple(seq))
    return walks


def shifted(gens, t, step):
    """The generators with the t-th exponents moved by step."""
    a, b = gens[t]
    return gens[:t] + ((a + step[0], b + step[1]),) + gens[t + 1 :]


class TestCycles:
    def test_lengths_and_closure(self):
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            gens = ij_series(s)
            for cycle, (i, j) in zip(mckay_walks(s, gens), gens):
                assert len(cycle) == i + j + 1
                assert cycle[0] == cycle[-1] == 0
                # consecutive steps are +1 or +q mod n
                for a, b in zip(cycle, cycle[1:]):
                    assert (b - a) % n in {1 % n, q % n}

    def test_check_is_true_exactly_where_every_walk_closes(self):
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            closes = all(w[-1] == 0 for w in mckay_walks(s, ij_series(s)))
            assert closes
            assert cli.verify_checks(s)["cycle_lengths"] is closes

    def test_check_follows_the_walks_off_the_generators(self, monkeypatch):
        # (1, 0) moves a walk's end to residue 1; (n, 0) keeps it at 0
        outcomes = set()
        for n, q in coprime_pairs(9):
            for step in ((1, 0), (0, 1), (n, 0), (0, n), (q, -1)):
                s = Singularity(n, q)
                gens = shifted(ij_series(s), len(ij_series(s)) // 2, step)
                if min(min(g) for g in gens) < 0:
                    continue
                closes = all(w[-1] == 0 for w in mckay_walks(s, gens))
                with monkeypatch.context() as m:
                    m.setattr(cli.cfrac, "ij_series", lambda s, gens=gens: gens)
                    assert cli.verify_checks(s)["cycle_lengths"] is closes, (n, q, step)
                outcomes.add(closes)
        assert outcomes == {True, False}
