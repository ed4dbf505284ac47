"""Property checks over drawn coprime pairs: the identities of the two
expansions, their q^-1 duality, the expansion length read without
expanding, the closed-form class-T witness, the two exponent series in
point form, the G-clusters' residue bijection, and the outside checker's
verdict on the reports of the pair; and over drawn requests that are
refused before any work, the exit code 2."""

import contextlib
import io
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
from cqsing.cli import COMMANDS, main  # noqa: E402
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
    # reconstruct prints no report; deform's families grow as e^3, and its
    # sweep is tests/test_report_check.py's
    resolved = json.loads(report("resolve", s.n, s.q))
    skip = {"invariants": resolved["e"] > 40, "reconstruct": resolved["r"] == 1, "deform": True}
    for command in CHECKS:
        if not skip.get(command):
            assert check(command, report(command, s.n, s.q)) == [], (command, s)


def not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


HUGE = 10**12
# texts that int() refuses; none starts with "-", so none reads as an option
NON_INTEGERS = st.one_of(
    st.floats().map(repr),
    st.text(st.characters(blacklist_characters="-", blacklist_categories=("Cs",)), max_size=20)
    .filter(not_an_int),
)


@st.composite
def refused_pair(draw):
    """(n, q) with 0 < q < n < HUGE and gcd(n, q) > 1."""
    a = draw(st.integers(2, 10**6))
    g = draw(st.integers(2, HUGE // a))
    return g * a, g * draw(st.integers(1, a - 1))


@st.composite
def coprime_to(draw, n):
    return draw(st.integers(1, n - 1).filter(lambda q: gcd(n, q) == 1))


def pair_argv(command, n, q):
    return [command, str(n), str(q)]


# Each draw is a request that is refused before any work: its input is no
# integer, no pair or a coprime pair over a command's ceiling, read in
# O(log n) at most.
REFUSED = st.one_of(
    st.builds(
        lambda command, bad, good, first: [command, *((bad, good) if first else (good, bad))],
        st.sampled_from(sorted(COMMANDS)), NON_INTEGERS, st.integers(-HUGE, HUGE).map(str),
        st.booleans(),
    ),
    st.builds(
        pair_argv, st.sampled_from(sorted(COMMANDS)),
        st.integers(-HUGE, HUGE), st.integers(-HUGE, HUGE),
    ).filter(lambda argv: not 0 < int(argv[2]) < int(argv[1])),
    st.builds(lambda command, nq: pair_argv(command, *nq),
              st.sampled_from(sorted(COMMANDS)), refused_pair()),
    # over the versal ceiling e <= 128: (n, 1) has e = n + 1
    st.builds(lambda command, n: pair_argv(command, n, 1),
              st.sampled_from(["deform", "verify"]), st.integers(128, HUGE)),
    # z2^n over the exponent ceiling
    st.integers(32768, HUGE).map(lambda n: pair_argv("deform", n, n - 1)),
    st.integers(32768, HUGE).flatmap(
        lambda n: coprime_to(n).map(lambda q: pair_argv("gfan", n, q))
    ),
    # (n, n - 2) has (n + 1)/2 > 2048 deformation parameters
    st.integers(2048, HUGE // 2).map(lambda k: pair_argv("deform", 2 * k + 1, 2 * k - 1)),
    st.builds(
        lambda m, joined: ["batch", f"--max-n={m}"] if joined else ["batch", "--max-n", str(m)],
        st.one_of(st.integers(-HUGE, -1), st.integers(128, HUGE)), st.booleans(),
    ),
)


@settings
@hypothesis.given(REFUSED)
def test_refused_requests_exit_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, argv
    assert out.getvalue() == "", argv
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), argv
