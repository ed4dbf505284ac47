from fractions import Fraction

import pytest

from cqsing.cfrac import (
    Singularity,
    are_isomorphic,
    curve_count,
    dual_expand,
    embedding_dimension,
    hj_evaluate,
    hj_expand,
    identities,
    ij_series,
    is_t_singularity,
    unrefined_series,
)
from cqsing.errors import InputError

from conftest import coprime_pairs


def minimal_invariant_exponents(n, q, bound):
    """Oracle: enumerate invariant exponent pairs in a box and strip the
    ones divisible by another; independent of the series recursion."""
    members = {
        (a, b)
        for a in range(bound + 1)
        for b in range(bound + 1)
        if (a or b) and (a + q * b) % n == 0
    }
    minimal = {
        (a, b)
        for a, b in members
        if not any(
            (c, d) != (a, b) and c <= a and d <= b for c, d in members
        )
    }
    return minimal


class TestExpand:
    def test_11_7_and_dual(self):
        assert hj_expand(11, 7) == (2, 3, 2, 2)
        assert hj_expand(11, 4) == (3, 4)

    def test_chain_of_twos(self):
        for n in range(2, 15):
            assert hj_expand(n, n - 1) == (2,) * (n - 1)

    def test_single_entry(self):
        assert hj_expand(7, 1) == (7,)

    def test_round_trip_up_to_200(self):
        for p, q in coprime_pairs(200):
            entries = hj_expand(p, q)
            assert all(b >= 2 for b in entries)
            assert hj_evaluate(entries) == Fraction(p, q)

    def test_duality_reverses(self):
        for n, q in coprime_pairs(120):
            q_inv = pow(q, -1, n)
            assert hj_expand(n, q_inv) == tuple(reversed(hj_expand(n, q)))

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            hj_expand(6, 4)
        with pytest.raises(InputError):
            hj_expand(3, 5)
        with pytest.raises(InputError):
            hj_expand(3, 0)


class TestSingularity:
    @pytest.mark.parametrize("n,q", [(6, 4), (5, 5), (5, 0), (5, 7), (3, True)])
    def test_validation(self, n, q):
        with pytest.raises(InputError):
            Singularity(n, q)


class TestSeries:
    def test_11_7(self):
        series = ij_series(Singularity(11, 7))
        assert series.i_values == (11, 4, 1, 0)
        assert series.j_values == (0, 1, 3, 11)

    def test_chain_case(self):
        for n in range(2, 12):
            series = ij_series(Singularity(n, n - 1))
            assert series.pairs == ((n, 0), (1, 1), (0, n))

    def test_5_3_against_enumeration_oracle(self):
        series = ij_series(Singularity(5, 3))
        assert series.i_values == (5, 2, 1, 0)
        assert series.j_values == (0, 1, 3, 5)
        assert set(series.pairs) == minimal_invariant_exponents(5, 3, 10)

    def test_series_congruence_and_monotone(self):
        for n, q in coprime_pairs(60):
            series = ij_series(Singularity(n, q))
            assert len(series.i_values) == embedding_dimension(Singularity(n, q))
            assert list(series.i_values) == sorted(series.i_values, reverse=True)
            assert list(series.j_values) == sorted(series.j_values)
            for i, j in series.pairs:
                assert (i + q * j) % n == 0


class TestUnrefinedSeries:
    def test_11_7_matches_recursion_oracle(self):
        s = Singularity(11, 7)
        series = unrefined_series(s)
        assert series.pairs == ((11, 0), (7, 1), (3, 2), (2, 5), (1, 8), (0, 11))
        # oracle: replay the recursion directly from the expansion
        b = hj_expand(11, 7)
        pairs = [(11, 0), (7, 1)]
        for bt in b:
            i = bt * pairs[-1][0] - pairs[-2][0]
            j = bt * pairs[-1][1] - pairs[-2][1]
            pairs.append((i, j))
        assert series.pairs == tuple(pairs)

    def test_5_3(self):
        assert unrefined_series(Singularity(5, 3)).pairs == (
            (5, 0),
            (3, 1),
            (1, 2),
            (0, 5),
        )

    def test_chain_is_arithmetic(self):
        for n in range(2, 10):
            series = unrefined_series(Singularity(n, n - 1))
            assert series.pairs == tuple((n - k, k) for k in range(n + 1))

    def test_endpoints_match_refined(self):
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            coarse, fine = unrefined_series(s), ij_series(s)
            assert coarse.pairs[0] == fine.pairs[0] == (n, 0)
            assert coarse.pairs[-1] == fine.pairs[-1] == (0, n)
            assert len(coarse.i_values) == curve_count(s) + 2


class TestIdentities:
    def test_11_7_values(self):
        ids = identities(Singularity(11, 7))
        assert (ids.e, ids.sum_b, ids.sum_a) == (4, 5, 5)
        assert identities(Singularity(11, 4)).e == 6

    def test_chain(self):
        for n in range(2, 12):
            assert identities(Singularity(n, n - 1)).e == 3

    def test_sweep_up_to_200(self):
        for n, q in coprime_pairs(200):
            ids = identities(Singularity(n, q))
            assert ids.sum_b == ids.sum_a
            assert ids.e == len(dual_expand(Singularity(n, q))) + 2


def t_witness_oracle(n, q):
    """Brute force all factorizations n = d*m^2 and the matching a."""
    from math import gcd as _gcd

    for m in range(1, n + 1):
        if m * m > n or n % (m * m):
            continue
        d = n // (m * m)
        for a in range(1, n + 1):
            if d * m * a - 1 == q and _gcd(a, m) == 1:
                return True
    return False


def t_witness_search(n, q):
    """The sqrt(n) search the closed form replaced: the first m with
    m^2 | n whose d = n/m^2 gives a = (q + 1)/(d*m) coprime to m."""
    from math import gcd as _gcd, isqrt

    for m in range(1, isqrt(n) + 1):
        if n % (m * m):
            continue
        d = n // (m * m)
        if (q + 1) % (d * m):
            continue
        a = (q + 1) // (d * m)
        if a >= 1 and _gcd(a, m) == 1:
            return (d, m, a)
    return None


class TestTSingularity:
    def test_witness_4_1(self):
        w = is_t_singularity(Singularity(4, 1))
        assert (w.d, w.m, w.a) == (1, 2, 1)

    def test_chain_always_accepted(self):
        for n in range(2, 30):
            assert is_t_singularity(Singularity(n, n - 1)) is not None

    def test_11_7_is_not(self):
        assert is_t_singularity(Singularity(11, 7)) is None

    def test_against_brute_force(self):
        for n, q in coprime_pairs(60):
            witness = is_t_singularity(Singularity(n, q))
            assert (witness is not None) == t_witness_oracle(n, q)
            if witness is not None:
                assert witness.d * witness.m**2 == n
                assert witness.d * witness.m * witness.a - 1 == q

    def test_closed_form_matches_search(self):
        for n, q in coprime_pairs(300):
            witness = is_t_singularity(Singularity(n, q))
            assert (None if witness is None else tuple(witness)) == t_witness_search(n, q)

    def test_families_give_back_their_witness(self):
        # (d*m^2, d*m*a - 1) with gcd(a, m) = 1 and q < n forces a <= m,
        # a = m only for m = 1; the witness is unique, so it is (d, m, a)
        from math import gcd as _gcd

        for d in range(1, 31):
            for m in range(1, 31):
                for a in range(1, m + 1):
                    if _gcd(a, m) != 1 or d * m * a < 2:
                        continue
                    n, q = d * m * m, d * m * a - 1
                    assert tuple(is_t_singularity(Singularity(n, q))) == (d, m, a)
                    assert t_witness_search(n, q) == (d, m, a)


class TestIsomorphism:
    def test_examples(self):
        assert are_isomorphic(Singularity(11, 7), Singularity(11, 8))
        assert not are_isomorphic(Singularity(11, 7), Singularity(11, 4))

    def test_reflexive(self):
        for n, q in coprime_pairs(25):
            s = Singularity(n, q)
            assert are_isomorphic(s, s)
