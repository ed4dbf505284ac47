import sys
from operator import add

import pytest

from cqsing import cli, deform, polyring
from cqsing.cfrac import Singularity, dual_expand, embedding_dimension
from cqsing.deform import (
    MAX_VERSAL_E,
    MAX_VERSAL_PARAMETERS,
    _product,
    deformation_variables,
    dim_t1,
    hypersurface_text,
    images_at_zero,
    images_specialize,
    specializes,
    versal_presentation,
)
from cqsing.errors import ConsistencyError, InputError
from cqsing.invariant_ring import defining_equations
from cqsing.polyring import (
    Polynomial,
    poly_text,
    VariableTable,
    WeightedOrder,
    buchberger,
    normal_form,
)

from conftest import coprime_pairs, specialized_relations


def entries(function, run, inside=None):
    """How many times ``function`` is entered while run() runs, told by its
    code object, so that a call through any name, a default argument or an
    imported alias is seen; with ``inside``, only the entries made while
    that function is on the stack."""
    code, outer = function.__code__, inside and inside.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event != "call" or frame.f_code is not code:
            return
        caller = frame.f_back
        while outer is not None and caller is not None and caller.f_code is not outer:
            caller = caller.f_back
        if outer is None or caller is not None:
            count += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def hypersurface_family(n):
    """Oracle: the e = 3 family z1 z3 - z2^n - sum_k c_k z2^k (k <= n - 2)
    as a polynomial over the table (z1, z2, z3, c_0, ..., c_{n-2}), packed
    from exponent tuples; returns it with its parameter names."""
    params = tuple(f"c{k}" for k in range(n - 1))
    table = VariableTable(("z1", "z2", "z3") + params)
    zero = (0,) * (n - 1)
    terms = {(1, 0, 1) + zero: 1, (0, n, 0) + zero: -1}
    for k in range(n - 1):
        terms[(0, k, 0) + zero[:k] + (1,) + zero[k + 1:]] = -1
    return table.poly(terms), params


def tjurina_dimension(m):
    """Oracle for the hypersurface x*y - z^m: quotient dimension by the
    ideal of partials, counted via a staircase of standard monomials."""
    table = VariableTable(["x", "y", "z"])
    f = table.var("x") * table.var("y") - table.var("z", m)
    partials = [table.var("y"), table.var("x"), m * table.var("z", m - 1)]
    order = WeightedOrder.deglex(3)
    basis = buchberger(partials + [f], order)
    standard = []
    for k in range(m + 1):
        mono = table.poly({(0, 0, k): 1})
        if normal_form(mono, basis, order) == mono:
            standard.append(k)
    # x, y are leading terms, so standard monomials are pure z powers
    return len(standard)


class TestDimT1:
    def test_dual_2_3_2_2(self):
        # dual expansion [2,3,2,2], e = 6 -> 5 + 2
        assert dual_expand(Singularity(11, 4)) == (2, 3, 2, 2)
        assert dim_t1(Singularity(11, 4)) == 7

    def test_11_7(self):
        assert dim_t1(Singularity(11, 7)) == 5

    def test_chain_matches_tjurina_oracle(self):
        for n in range(2, 9):
            assert dim_t1(Singularity(n, n - 1)) == tjurina_dimension(n) == n - 1


class TestVersalFamily:
    """The oracle of the e = 3 family, z1 z3 = z2^m + c_{m-2} z2^{m-2} + ...
    + c0 with m = n over the table (z1, z2, z3, c0, ..., c_{m-2}), as
    ``hypersurface_family`` builds it."""

    def test_m2(self):
        equation, params = hypersurface_family(2)
        assert equation.table.names == ("z1", "z2", "z3", "c0")
        assert params == ("c0",)
        assert equation.terms[(1, 0, 1, 0)] == 1
        assert equation.terms[(0, 2, 0, 0)] == -1

    def test_m3_shape(self):
        equation, params = hypersurface_family(3)
        assert params == ("c0", "c1")
        # z1*z3 - z2^3 - c1*z2 - c0, no z2^2 term
        exps = set(equation.terms)
        assert (0, 3, 0, 0, 0) in exps
        assert not any(e[1] == 2 for e in exps)

    def test_m5_count(self):
        assert len(hypersurface_family(5)[1]) == 4

    def test_shape_sweep(self):
        for n in range(2, 12):
            equation, params = hypersurface_family(n)
            assert equation.terms[(0, n, 0) + (0,) * (n - 1)] == -1  # z2^n
            assert params == tuple(f"c{k}" for k in range(n - 1))
            assert equation.table.names == ("z1", "z2", "z3") + params
            assert not any(e[1] == n - 1 for e in equation.terms)
            # cross-check: the same family summed term by term
            table = equation.table
            rhs = table.var("z2", n)
            for k in range(n - 1):
                rhs = rhs + table.var(f"c{k}") * table.var("z2", k)
            assert equation == table.var("z1") * table.var("z3") - rhs


def golden_relations_11_4(v):
    """The seven long-pair total-space relations for the dual expansion
    [2,3,2,2], frozen in their factored forms."""
    t = v.table
    z = {i: t.var(f"z{i}") for i in range(1, 7)}
    s2, s3a, s3b = t.var("s2(1)"), t.var("s3(1)"), t.var("s3(2)")
    s4, s5 = t.var("s4(1)"), t.var("s5(1)")
    t3, t4 = t.var("t3"), t.var("t4")
    return {
        (1, 3): z[1] * (z[3] + t3) - z[2] * (z[2] + s2),
        (2, 4): z[2] * (z[4] + t4) - (z[3] + t3) * (z[3] ** 2 + z[3] * s3a + s3b),
        (3, 5): z[3] * z[5] - (z[4] + t4) * (z[4] + s4),
        (4, 6): z[4] * z[6] - z[5] * (z[5] + s5),
        (2, 5): z[2] * z[5] - (z[3] + t3) * (z[3] + s3a) * (z[4] + s4),
        (2, 6): z[2] * z[6] - (z[3] + t3) * (z[3] + s3a) * (z[5] + s5),
        (3, 6): z[3] * z[6] - (z[4] + s4) * (z[5] + s5),
    }


def golden_base_11_4(v):
    t = v.table
    s3a, s3b = t.var("s3(1)"), t.var("s3(2)")
    s4, s5 = t.var("s4(1)"), t.var("s5(1)")
    t3, t4 = t.var("t3"), t.var("t4")
    return [
        t3 * s3b,
        t3 * s3a * s4,
        t3 * s3a * s5,
        t4 * s4,
        s4 * s5,
        s4 * s5 - t4 * s5,
    ]


# every coprime pair with n <= 20 and e >= 4, and three wide ones (e = 29, 22, 15)
ORACLE_PAIRS = [
    (n, q) for n, q in coprime_pairs(20) if embedding_dimension(Singularity(n, q)) >= 4
] + [(28, 1), (41, 2), (38, 3)]


def _w(v, j):
    """w_j = z_j + t_j (z_j where there is no t_j), by Polynomial arithmetic."""
    zj = v.table.var(f"z{j}")
    if j in v.t_names:
        return zj + v.table.var(v.t_names[j])
    return zj


def _trunc(v, m, d):
    """z_m^d + z_m^{d-1} s_m^(1) + ... + s_m^(d), by Polynomial arithmetic."""
    acc = v.table.var(f"z{m}", d) if d else v.table.one()
    for k in range(1, d + 1):
        term = v.table.var(v.s_names[(m, k)])
        if d - k:
            term = term * v.table.var(f"z{m}", d - k)
        acc = acc + term
    return acc


def full_product(v, i, j):
    """P_ij multiplied out from its factors, with no product shared between
    pairs and no factor skipped."""
    a = v.a_entries
    if j == i + 2:
        return _w(v, i + 1) * _trunc(v, i + 1, a[i + 1] - 1)
    if a[i + 1] >= 3:
        p = _w(v, i + 1) * _trunc(v, i + 1, a[i + 1] - 2)
    else:
        p = _trunc(v, i + 1, a[i + 1] - 1)
    for m in range(i + 2, j - 1):
        p = p * _trunc(v, m, a[m] - 2)
    return p * _trunc(v, j - 1, a[j - 1] - 1)


class TestVersalPresentation:
    def test_variables_11_4(self):
        v = deformation_variables(Singularity(11, 4))
        assert len(v.z) == 6
        assert v.parameter_names == (
            "s2(1)", "s3(1)", "s3(2)", "s4(1)", "s5(1)", "t3", "t4",
        )

    def test_golden_relations_11_4(self):
        pres = versal_presentation(Singularity(11, 4))
        relmap = dict(zip(pres.pairs, pres.relations))
        golden = golden_relations_11_4(pres.variables)
        for pair, expected in golden.items():
            assert relmap[pair] == expected, pair

    def test_base_ideal_11_4_term_for_term(self):
        pres = versal_presentation(Singularity(11, 4))
        assert list(pres.base_ideal) == golden_base_11_4(pres.variables)

    def test_seed_products_inside_base(self):
        # s_i^(a_i - 1) * t_i lies in the base ideal for i = 3, 4
        pres = versal_presentation(Singularity(11, 4))
        v = pres.variables
        order = WeightedOrder.deglex(len(v.table))
        basis = buchberger(list(pres.base_ideal), order)
        for i in (3, 4):
            a_i = v.a_entries[i]
            seed = v.table.var(v.s_names[(i, a_i - 1)]) * v.table.var(v.t_names[i])
            assert not normal_form(seed, basis, order)

    def test_relation_count(self):
        for n, q in coprime_pairs(30):
            s = Singularity(n, q)
            e = embedding_dimension(s)
            if e < 4:
                continue
            pres = versal_presentation(s)
            assert len(pres.relations) == (e - 1) * (e - 2) // 2

    def test_parameter_count_is_dim_t1(self):
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            if embedding_dimension(s) < 4:
                continue
            v = deformation_variables(s)
            assert len(v.parameter_names) == dim_t1(s)

    def test_specialization_sweep(self):
        # the mask of the built family, against the binomials and as the
        # oracle of verify's factor images, each image one code
        swept = 0
        for n, q in coprime_pairs(40):
            s = Singularity(n, q)
            if embedding_dimension(s) < 4:
                continue
            pres = versal_presentation(s)
            table = pres.variables.table
            expected = {}
            for rel in defining_equations(s):
                i, j = rel.left
                lhs = table.var(f"z{i}") * table.var(f"z{j}")
                rhs = table.one()
                for idx, exp in rel.right:
                    rhs = rhs * table.var(f"z{idx}", exp)
                expected[rel.left] = lhs - rhs
            got = dict(zip(pres.pairs, specialized_relations(pres)))
            assert got == expected
            images = images_at_zero(pres.variables)
            assert images.keys() == got.keys()
            for (i, j), p in images.items():
                lhs = table._code(f"z{i}") + table._code(f"z{j}")
                assert got[(i, j)]._terms == {lhs: 1, p: -1}, (n, q, i, j)
            assert images_specialize(pres.variables, defining_equations(s))
            swept += 1
        assert swept == 450

    def test_verify_does_not_build_the_family(self, monkeypatch):
        def refuse(s):
            raise AssertionError("the versal family was built")

        monkeypatch.setattr(deform, "versal_presentation", refuse)
        for n, q in coprime_pairs(20) + [(127, 1), (4095, 4093)]:
            checks = cli.verify_checks(Singularity(n, q))
            assert all(checks.values()), (n, q, checks)

    def test_mask_matches_substitution_oracle(self):
        for n, q in coprime_pairs(30):
            s = Singularity(n, q)
            if embedding_dimension(s) < 4:
                continue
            pres = versal_presentation(s)
            params = deform._parameter_mask(pres.variables)
            masked = [
                {m: c for m, c in rel._terms.items() if not m & params}
                for rel in pres.relations
            ]
            assert masked == [rel._terms for rel in specialized_relations(pres)], (n, q)

    def test_relations_match_full_products(self):
        for n, q in ORACLE_PAIRS:
            pres = versal_presentation(Singularity(n, q))
            v = pres.variables
            for (i, j), rel in zip(pres.pairs, pres.relations):
                expected = v.table.var(f"z{i}") * _w(v, j) - full_product(v, i, j)
                assert rel == expected, (n, q, i, j)

    def test_base_from_independent_substitution(self):
        # re-derive the base generators by substituting into the P's directly
        for n, q in ORACLE_PAIRS:
            s = Singularity(n, q)
            pres = versal_presentation(s)
            v = pres.variables
            table = v.table
            relmap = dict(zip(pres.pairs, pres.relations))
            z_names = table.names[: len(v.z)]
            zero_z = {name: 0 for name in z_names}
            minus_t = {
                name: (
                    -table.var(v.t_names[j]) if j in v.t_names else table.constant(0)
                )
                for j, name in enumerate(z_names, start=1)
            }
            rebuilt = []
            for pair in sorted(pres.pairs):
                if pair[0] < 2:
                    continue
                i, j = pair
                w_j = table.var(f"z{j}")
                if j in v.t_names:
                    w_j = w_j + table.var(v.t_names[j])
                p_poly = table.var(f"z{i}") * w_j - relmap[pair]
                for sub in (zero_z, minus_t):
                    h = p_poly.substitute(sub)
                    if h:
                        rebuilt.append(h)
            # no two images coincide, so none is dropped as a repeat
            assert len({frozenset(h._terms.items()) for h in rebuilt}) == len(rebuilt)
            assert rebuilt == list(pres.base_ideal)

    def test_base_generators_are_distinct(self):
        # the oracle of the argument that lets versal_presentation keep every
        # nonzero image with no search for repeats (deform's docstring)
        pairs = [
            (n, q) for n, q in coprime_pairs(80)
            if embedding_dimension(Singularity(n, q)) >= 4
        ] + [(127, 1), (4095, 4093), (100, 3), (200, 7), (90, 37), (97, 13)]
        images = 0
        for n, q in pairs:
            pres = versal_presentation(Singularity(n, q))
            v = pres.variables
            base = {frozenset(g._terms.items()) for g in pres.base_ideal}
            assert len(base) == len(pres.base_ideal), (n, q)
            # every family's pairs come in the same order; H_z's from i = 2
            order = list(deform._running_products(v, v.z, lambda m, d: d * v.z[m], 2, add))
            assert order == sorted(order), (n, q)
            images += len(base)
        assert (len(pairs), images) == (1892, 292_754)

    def test_e3_rejected(self):
        with pytest.raises(InputError):
            versal_presentation(Singularity(5, 4))

    def test_versal_ceiling(self):
        # (n, 1) has e = n + 1: the last pair under the ceiling builds its
        # variables, the first over it is refused before any of them
        v = deformation_variables(Singularity(MAX_VERSAL_E - 1, 1))
        assert len(v.z) == MAX_VERSAL_E
        with pytest.raises(InputError, match="versal ceiling"):
            deformation_variables(Singularity(MAX_VERSAL_E, 1))

    def test_parameter_ceiling(self):
        # (n, n - 2), n odd, has e = 4 and (n + 1)/2 parameters
        v = deformation_variables(Singularity(4095, 4093))
        assert len(v.z) == 4
        assert len(v.parameter_names) == MAX_VERSAL_PARAMETERS == 2048
        with pytest.raises(InputError, match="2049 deformation parameters .* 2048"):
            deformation_variables(Singularity(4097, 4095))

    def test_codes_stay_inside_their_fields(self):
        # the one bound per family stands for the guard-bit check that each
        # relation and base generator no longer gets
        for n, q in coprime_pairs(40) + [(127, 1), (4095, 4093)]:
            s = Singularity(n, q)
            if embedding_dimension(s) < 4:
                continue
            pres = versal_presentation(s)
            for f in pres.relations + pres.base_ideal:
                polyring._checked(pres.variables.table, f._terms)

    def test_exponent_bound_refuses_before_any_name(self, monkeypatch):
        # (65535, 65533) has a_2 = 32768, over the polyring exponent ceiling;
        # only the parameter ceiling refuses it today, so lift that one
        def refuse(names):
            raise AssertionError("a variable table was built")

        monkeypatch.setattr(deform, "MAX_VERSAL_PARAMETERS", 10**6)
        monkeypatch.setattr(deform, "VariableTable", refuse)
        s = Singularity(65535, 65533)
        assert dual_expand(s) == (32768, 2)
        with pytest.raises(InputError, match="0..32767"):
            deformation_variables(s)

    def test_product_refuses_coinciding_terms(self):
        code = deformation_variables(Singularity(11, 4)).table._code
        w3 = {code("z3"): 1, code("t3"): 1}
        # (z3 + t3)^2 has the cross term z3*t3 twice
        with pytest.raises(ConsistencyError):
            _product(w3, w3)
        assert len(_product(w3, {code("s3(1)"): 1})) == 2

    def test_no_polynomial_arithmetic(self, monkeypatch):
        # the families and their specialization check run in code space;
        # only the oracles above multiply or substitute into Polynomials
        def refuse(*args):
            raise AssertionError("Polynomial arithmetic in deform")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__pow__", "substitute"):
            monkeypatch.setattr(Polynomial, name, refuse)
        for n, q in [(11, 4), (41, 2), (19, 7)]:
            s = Singularity(n, q)
            pres = versal_presentation(s)
            assert specializes(pres, defining_equations(s))
            assert images_specialize(pres.variables, defining_equations(s))


class TestOnePass:
    """Each stage touches each term once: no guard-bit scan per polynomial,
    no masked family built, no dict product for the s = t = 0 codes."""

    def test_deform_builds_no_checked_or_masked_polynomial(self, capsys):
        def run():
            assert cli.main(["deform", "28", "1", "--format", "json"]) == 0

        assert entries(deform._product, run) > 0  # the hook sees deform's calls
        assert entries(polyring._checked, run) == 0
        # each Polynomial built is one of the 378 relations or the 675
        # base-ideal elements of (28, 1): no masked copy of the family
        assert entries(polyring.Polynomial._raw.__func__, run) == 378 + 675
        capsys.readouterr()

    def test_verify_multiplies_codes_at_zero(self, capsys):
        def run():
            assert cli.main(["verify", "20", "1"]) == 0

        assert entries(deform.images_at_zero, run) == 1
        assert entries(deform._product, run, inside=deform.images_at_zero) == 0
        capsys.readouterr()


class TestHypersurfaceRoute:
    def test_parameters_match_dim_t1(self):
        for n in range(2, 10):
            s = Singularity(n, n - 1)
            assert len(hypersurface_family(n)[1]) == dim_t1(s) == n - 1

    def test_specializes_to_binomial(self):
        equation, params = hypersurface_family(6)
        at_zero = equation.substitute({p: 0 for p in params})
        table = equation.table
        expected = table.var("z1") * table.var("z3") - table.var("z2", 6)
        assert at_zero == expected

    def test_closed_form_text_matches_the_family(self):
        # the polynomial family is the oracle of the text the reports print
        for n in range(2, 301):
            assert hypersurface_text(n) == poly_text(hypersurface_family(n)[0])

    def test_reports_do_not_build_the_family(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a variable table was built")

        # the e = 3 reports build no table, so no family either
        monkeypatch.setattr(deform, "VariableTable", refuse)
        for n in (2, 3, 40):
            assert cli.verify_checks(Singularity(n, n - 1))["deform_parameter_count"]
            payload = cli.run_deform(Singularity(n, n - 1)).payload["deformation"]
            assert payload["parameters"] == [f"c{k}" for k in range(n - 1)]
            assert payload["equation"] == hypersurface_text(n)
