"""Property checks over drawn coprime pairs: the identities of the two
expansions, their q^-1 duality, and the closed-form class-T witness."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cqsing.cfrac import (  # noqa: E402
    Singularity,
    embedding_dimension,
    hj_expand,
    identities,
    is_t_singularity,
)

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
@hypothesis.given(t_shaped())
def test_t_witness_of_a_t_shaped_pair(dma):
    d, m, a = dma
    n, q = d * m * m, d * m * a - 1
    witness = is_t_singularity(Singularity(n, q))
    assert tuple(witness) == (d, m, a)
    assert witness.d * witness.m**2 == n
    assert witness.d * witness.m * witness.a - 1 == q
    assert gcd(witness.a, witness.m) == 1
