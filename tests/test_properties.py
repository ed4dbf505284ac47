"""Property checks over drawn coprime pairs: the identities of the two
expansions, their q^-1 duality, the expansion length read without
expanding, the closed-form class-T witness, the two exponent series in
point form, the G-clusters' residue bijection, and the outside checker's
verdict on the reports of the pair."""

import json
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cqsing.cfrac import (  # noqa: E402
    Singularity,
    embedding_dimension,
    hj_expand,
    hj_length,
    identities,
    ij_series,
    is_t_singularity,
    unrefined_series,
)
from cqsing.mckay import g_clusters  # noqa: E402
from report_check import CHECKS, check, report  # noqa: E402

settings = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def coprime_pairs(draw, max_n=10**4):
    n = draw(st.integers(2, max_n))
    q = draw(st.integers(1, n - 1).filter(lambda q: gcd(n, q) == 1))
    return Singularity(n, q)


@st.composite
def t_shaped(draw, bound=10**6):
    """(d, m, a) with gcd(a, m) = 1 and d*m*a >= 2; q < n forces a <= m."""
    d = draw(st.integers(1, bound))
    m = draw(st.integers(1, bound))
    a = draw(st.integers(1, m).filter(lambda a: gcd(a, m) == 1 and d * m * a >= 2))
    return d, m, a


@settings
@hypothesis.given(coprime_pairs())
def test_embedding_dimension_read_four_ways(s):
    ids = identities(s)
    b = hj_expand(s.n, s.q)
    assert embedding_dimension(s) == ids.e == len(ids.dual) + 2 == 3 + sum(x - 2 for x in b)


@settings
@hypothesis.given(coprime_pairs())
def test_identities_carry_the_expansions(s):
    ids = identities(s)
    assert ids.fraction == hj_expand(s.n, s.q)
    assert ids.dual == hj_expand(s.n, s.n - s.q)


@settings
@hypothesis.given(coprime_pairs())
def test_inverse_reverses_the_expansion(s):
    assert hj_expand(s.n, pow(s.q, -1, s.n)) == hj_expand(s.n, s.q)[::-1]


@settings
@hypothesis.given(coprime_pairs(max_n=10**6))
def test_length_of_both_expansions(s):
    assert hj_length(s.n, s.q) == len(hj_expand(s.n, s.q))
    assert hj_length(s.n, s.n - s.q) == len(hj_expand(s.n, s.n - s.q))


@settings
@hypothesis.given(t_shaped())
def test_t_witness_of_a_t_shaped_pair(dma):
    d, m, a = dma
    n, q = d * m * m, d * m * a - 1
    witness = is_t_singularity(Singularity(n, q))
    assert tuple(witness) == (d, m, a)
    assert witness.d * witness.m**2 == n
    assert witness.d * witness.m * witness.a - 1 == q
    assert gcd(witness.a, witness.m) == 1


@settings
@hypothesis.given(coprime_pairs())
def test_series_are_lattice_bases_from_axis_to_axis(s):
    n, q = s
    ids = identities(s)
    fine, coarse = ij_series(s), unrefined_series(s)
    assert (len(fine), len(coarse)) == (ids.e, len(ids.fraction) + 2)
    for series in (fine, coarse):
        assert series[0] == (n, 0) and series[-1] == (0, n)
        for (i0, j0), (i, j) in zip(series, series[1:]):
            assert i0 > i and j0 < j
            assert i0 * j - j0 * i == n
    assert all((i + q * j) % n == 0 for i, j in fine)
    assert all((i - q * j) % n == 0 for i, j in coarse)


@settings
@hypothesis.given(coprime_pairs(max_n=400))
def test_each_cluster_carries_each_residue_once(s):
    # the L-shape: i columns by j_next rows less the top right i_next x j block
    n, q = s
    for c in g_clusters(s):
        residues = [
            (a + q * b) % n
            for a in range(c.i)
            for b in range(c.j_next - c.j if a >= c.i - c.i_next else c.j_next)
        ]
        assert sorted(residues) == list(range(n)), (s, c)


@hypothesis.settings(max_examples=50, deadline=None, database=None, derandomize=True)
@hypothesis.given(coprime_pairs(max_n=400))
def test_reports_pass_the_outside_checker(s):
    # invariants prints C(e - 1, 2) relations: only up to e = 40; at r = 1
    # reconstruct prints no report
    resolved = json.loads(report("resolve", s.n, s.q))
    skip = {"invariants": resolved["e"] > 40, "reconstruct": resolved["r"] == 1}
    for command in CHECKS:
        if not skip.get(command):
            assert check(command, report(command, s.n, s.q)) == [], (command, s)
