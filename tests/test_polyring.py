import random
from fractions import Fraction
from itertools import compress
from operator import add, sub

import pytest

from cqsing.cfrac import Singularity
from cqsing.errors import InputError
from cqsing.invariant_ring import defining_equations, generators, right_codes
from cqsing.polyring import (
    Polynomial,
    VariableTable,
    WeightedOrder,
    _code_key,
    buchberger,
    leading_term,
    monic,
    normal_form,
    poly_text,
    s_polynomial,
)

XY = VariableTable(["x", "y"])


def p(terms):
    return XY.poly(terms)


def random_poly(rng, max_terms=4, max_exp=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = Fraction(
            rng.randint(-5, 5)
        )
    return p(terms)


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_zero_terms_pruned(self):
        q = p({(1, 0): 1}) - p({(1, 0): 1})
        assert not q
        assert q.terms == {}

    def test_pow(self):
        x = XY.var("x")
        y = XY.var("y")
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2

    def test_table_mismatch(self):
        other = VariableTable(["u", "v"])
        with pytest.raises(InputError):
            XY.var("x") + other.var("u")

    def test_substitute(self):
        x, y = XY.var("x"), XY.var("y")
        f = x**2 * y - 3 * y
        assert f.substitute({"y": 0}) == XY.zero()
        assert f.substitute({"x": y}) == y**3 - 3 * y

    def test_scalar_minus_polynomial(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_poly(rng)
            assert 3 - f == -(f - 3)
            assert Fraction(1, 2) - f == -(f - Fraction(1, 2))

    def test_equal_tables_hash_equal(self):
        twin = VariableTable(["x", "y"])
        assert twin is not XY and twin == XY and hash(twin) == hash(XY)
        assert VariableTable(["y", "x"]) != XY
        degrees = {XY: 2, VariableTable(["u"]): 1}
        assert degrees[twin] == 2
        assert len({XY, twin, VariableTable(["y", "x"])}) == 2
        assert repr(twin) == "VariableTable('x', 'y')"


XYZ = VariableTable(["x", "y", "z"])


def naive_substitute(f, mapping):
    """Oracle: rebuild every term as a product of its variable powers, each
    replaced by its value, and add the terms up one by one."""
    table = f.table
    values = {
        name: v if isinstance(v, Polynomial) else table.constant(v)
        for name, v in mapping.items()
    }
    result = table.zero()
    for exps, coeff in f.terms.items():
        term = table.constant(coeff)
        for name, e in zip(table.names, exps):
            term = term * values.get(name, table.var(name)) ** e
        result = result + term
    return result


class TestSubstitute:
    def test_zero_scalar_drops_terms(self):
        x, y, z = (XYZ.var(n) for n in XYZ.names)
        f = x**2 * y + 3 * x * z - z + 5
        assert f.substitute({"x": 0}) == -z + 5
        assert f.substitute({"x": Fraction(0), "z": 0}) == XYZ.constant(5)
        assert f.substitute({"x": XYZ.zero()}) == -z + 5

    def test_nonzero_scalars(self):
        x, y, z = (XYZ.var(n) for n in XYZ.names)
        f = x**2 * y + 3 * x * z - z
        assert f.substitute({"x": 2}) == 4 * y + 6 * z - z
        assert f.substitute({"x": Fraction(1, 2), "z": -1}) == y * Fraction(1, 4) - Fraction(1, 2)

    def test_polynomial_values(self):
        x, y, z = (XYZ.var(n) for n in XYZ.names)
        f = x**2 * y + 3 * x * z
        assert f.substitute({"x": y + z}) == (y + z) ** 2 * y + 3 * (y + z) * z
        # simultaneous: x -> y and y -> x swap the variables
        assert f.substitute({"x": y, "y": x}) == y**2 * x + 3 * y * z

    def test_terms_cancel_to_zero(self):
        x, y, z = (XYZ.var(n) for n in XYZ.names)
        f = x * z - y**2 * z
        assert f.substitute({"x": y**2}) == XYZ.zero()
        assert not (x - y).substitute({"x": y, "z": 3})
        assert not (x - 2).substitute({"x": 2})

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            XYZ.var("x").substitute({"w": 0})
        with pytest.raises(InputError):
            XYZ.var("x").substitute({"x": 1, "w": XYZ.var("y")})

    def test_foreign_table_rejected(self):
        with pytest.raises(InputError):
            XYZ.var("x").substitute({"x": XY.var("x")})

    def test_random_against_naive_expansion(self):
        rng = random.Random(11)

        def random_xyz(max_terms):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                exps = tuple(rng.randint(0, 3) for _ in XYZ.names)
                terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return XYZ.poly(terms)

        for _ in range(200):
            f = random_xyz(6)
            mapping = {}
            for name in rng.sample(XYZ.names, rng.randint(0, 3)):
                kind = rng.randrange(4)
                if kind == 0:
                    mapping[name] = 0
                elif kind == 1:
                    mapping[name] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                else:
                    mapping[name] = random_xyz(3)
            assert f.substitute(mapping) == naive_substitute(f, mapping), mapping

    def test_foreign_value_rejected_before_any_term(self):
        # the mapping is classified first: a foreign value is refused even
        # for a variable the polynomial lacks, and even when it is zero
        with pytest.raises(InputError):
            XYZ.var("x").substitute({"y": XY.var("y")})
        with pytest.raises(InputError):
            XYZ.var("x").substitute({"x": XY.zero()})
        with pytest.raises(InputError):
            XYZ.zero().substitute({"x": XY.var("x")})


class TestOrders:
    def test_zero_weight_is_deglex(self):
        order = WeightedOrder.deglex(2)
        assert order.key((2, 0)) > order.key((1, 1))  # x > y precedence
        assert order.key((0, 3)) > order.key((2, 0))  # higher degree wins

    def test_weight_dominates(self):
        order = WeightedOrder(weights=(1, 11))
        assert order.key((0, 1)) > order.key((7, 0))


def orbit_residue(f, n, q):
    """Oracle: the coefficient vector of f(t, t^q) mod t^n - 1; the zero
    vector certifies membership in the orbit ideal of the point (1, 1)."""
    coeffs = [Fraction(0)] * n
    for (a, b), c in f.terms.items():
        coeffs[(a + q * b) % n] += c
    return coeffs


def c11_7_generators():
    return [
        p({(11, 0): 1}) - 1,
        p({(4, 1): 1}) - 1,
        p({(1, 3): 1}) - 1,
        p({(0, 11): 1}) - 1,
    ]


class TestNormalForm:
    def test_constant_survives(self):
        basis = [XY.var("x") - 1, XY.var("y") - 1]
        assert normal_form(XY.one(), basis, WeightedOrder.deglex(2)) == XY.one()

    def test_generator_reduces_to_zero(self):
        order = WeightedOrder(weights=(1, 11))
        basis = buchberger(c11_7_generators(), order)
        f = p({(11, 0): 1}) - 1
        assert not normal_form(f, basis, order)

    def test_x7y_minus_1(self):
        # x^7*y - 1 is congruent to x^3 - 1 modulo the orbit ideal and the
        # substitution oracle shows neither lies in it
        order = WeightedOrder(weights=(2, 7))
        basis = buchberger(c11_7_generators(), order)
        f = p({(7, 1): 1}) - 1
        remainder = normal_form(f, basis, order)
        assert remainder == p({(3, 0): 1}) - 1
        assert any(orbit_residue(f, 11, 7))
        assert orbit_residue(f - remainder, 11, 7) == [Fraction(0)] * 11

    def test_membership_matches_oracle(self):
        rng = random.Random(3)
        order = WeightedOrder.deglex(2)
        basis = buchberger(c11_7_generators(), order)
        for _ in range(25):
            f = random_poly(rng, max_terms=3, max_exp=12)
            if not f:
                continue
            in_ideal = not normal_form(f, basis, order)
            assert in_ideal == (not any(orbit_residue(f, 11, 7)))


class TestBuchberger:
    def test_single_generator(self):
        g = XY.var("x") - 1
        assert buchberger([g], WeightedOrder.deglex(2)) == [g]

    def test_reducedness(self):
        rng = random.Random(5)
        order = WeightedOrder.deglex(2)
        for _ in range(20):
            gens = [random_poly(rng) for _ in range(3)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            basis = buchberger(gens, order)
            lms = [leading_term(g, order)[0] for g in basis]
            for i, g in enumerate(basis):
                assert leading_term(g, order)[1] == 1
                for m in g.terms:
                    assert not any(
                        j != i
                        and all(x <= y for x, y in zip(lms[j], m))
                        for j in range(len(basis))
                    )

    def test_idempotent_and_contains_generators(self):
        rng = random.Random(13)
        order = WeightedOrder(weights=(3, 2))
        for _ in range(15):
            gens = [g for g in (random_poly(rng) for _ in range(3)) if g]
            if not gens:
                continue
            basis = buchberger(gens, order)
            assert buchberger(basis, order) == basis
            for g in gens:
                assert not normal_form(g, basis, order)

    def test_generators_and_s_pairs_reduce_to_zero(self):
        order = WeightedOrder(weights=(3, 3))
        gens = c11_7_generators()
        basis = buchberger(gens, order)
        for g in gens:
            assert not normal_form(g, basis, order)
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j], order)
                if s:
                    assert not normal_form(s, basis, order)

    def test_order_independence_of_ideal(self):
        gens = c11_7_generators()
        o1 = WeightedOrder(weights=(1, 11))
        o2 = WeightedOrder(weights=(9, 1))
        b1 = buchberger(gens, o1)
        b2 = buchberger(gens, o2)
        for g in b1:
            assert not normal_form(g, b2, o2)
        for g in b2:
            assert not normal_form(g, b1, o1)


class TestText:
    def test_basic(self):
        f = p({(11, 0): 1, (0, 0): -1})
        assert poly_text(f) == "x^11 - 1"

    def test_fraction_coefficient(self):
        f = p({(1, 1): Fraction(3, 2), (0, 0): -1})
        assert poly_text(f) == "3/2*x*y - 1"

    def test_repr_is_the_text(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_poly(rng)
            assert repr(f) == poly_text(f)
        assert repr(XY.zero()) == poly_text(XY.zero())

    def test_default_order_is_deglex(self):
        rng = random.Random(5)
        table = VariableTable([f"v{k}" for k in range(40)])
        order = WeightedOrder.deglex(len(table))
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                exps = [0] * len(table)
                for k in rng.sample(range(len(table)), rng.randint(0, 4)):
                    exps[k] = rng.randint(1, 3)
                terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            f = table.poly(terms)
            assert poly_text(f) == poly_text(f, order)

    def test_monic_helper(self):
        order = WeightedOrder.deglex(2)
        f = p({(2, 0): -2, (0, 1): 4})
        assert leading_term(monic(f, order), order)[1] == 1


def assert_exact(polys):
    """Every coefficient is an int or a Fraction: never a float or a bool."""
    for f in polys:
        for c in f.terms.values():
            assert type(c) in (int, Fraction), (f, c)


def non_unit_lead(rng, order):
    """A random polynomial whose leading coefficient is not a unit."""
    f = random_poly(rng, max_terms=3, max_exp=3)
    while not f:
        f = random_poly(rng, max_terms=3, max_exp=3)
    terms = dict(f.terms)
    terms[leading_term(f, order)[0]] = rng.choice((3, Fraction(2, 5), -6, Fraction(7, 3)))
    return p(terms)


class TestExactCoefficients:
    def test_integral_input_stays_int(self):
        f = p({(2, 0): Fraction(4, 4), (0, 1): True, (0, 0): Fraction(6, 2)})
        assert f.terms == {(2, 0): 1, (0, 1): 1, (0, 0): 3}
        assert_exact([f])
        g = XY.constant(Fraction(6, 3)) - XY.var("y")
        order = WeightedOrder.deglex(2)
        results = [f + g, f - g, f * g, 3 * f, f**3, f.term_multiple(Fraction(5, 5), (1, 1))]
        # the divisors are the units 1 and -1
        results += [monic(g, order), normal_form(f**2, [g], order), s_polynomial(f, g, order)]
        for h in results:
            assert all(type(c) is int for c in h.terms.values()), h

    def test_division_sites_never_make_floats(self):
        rng = random.Random(17)
        for order in (WeightedOrder.deglex(2), WeightedOrder(weights=(3, 1))):
            for _ in range(40):
                gens = [non_unit_lead(rng, order) for _ in range(3)]
                monics = [monic(g, order) for g in gens]
                assert_exact(monics)
                for g, h in zip(gens, monics):
                    assert leading_term(h, order)[1] == 1
                    assert h * leading_term(g, order)[1] == g
                basis = buchberger(gens, order)
                assert_exact(basis)
                assert buchberger(monics, order) == basis
                spairs = [s_polynomial(a, b, order) for a in gens for b in gens if a is not b]
                assert_exact(spairs)
                for s in spairs:
                    assert not normal_form(s, basis, order)
                f = random_poly(rng, max_terms=5, max_exp=6)
                r = normal_form(f, gens, order)
                assert_exact([r])
                # f - r lies in the ideal, so both have the same remainder
                # modulo the reduced Groebner basis
                assert normal_form(r, basis, order) == normal_form(f, basis, order)


def evaluate(f, point):
    """f at a point of Fractions, one per variable, in plain Fraction
    arithmetic."""
    total = Fraction(0)
    for exps, c in f.terms.items():
        term = Fraction(c)
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


class TestEvaluationHomomorphism:
    """Evaluation at a rational point is a ring map, so each operation's
    result must evaluate to the same operation on the evaluated operands,
    computed independently of the coefficient representation."""

    def test_operations_commute_with_evaluation(self):
        rng = random.Random(23)
        order = WeightedOrder(weights=(2, 1, 3))

        def scalar():
            c = rng.randint(-4, 4)
            return c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 4))

        def mixed_poly(max_terms=5):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                exps = tuple(rng.randint(0, 3) for _ in XYZ.names)
                terms[exps] = scalar()
            return XYZ.poly(terms)

        for _ in range(150):
            a, b = mixed_poly(), mixed_poly()
            point = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in XYZ.names)
            ea, eb = evaluate(a, point), evaluate(b, point)
            c, k = scalar(), rng.randint(0, 3)
            shift = tuple(rng.randint(0, 2) for _ in XYZ.names)
            checks = {
                "+": (a + b, ea + eb),
                "-": (a - b, ea - eb),
                "*": (a * b, ea * eb),
                "**": (a**k, ea**k),
                "scalar": (c * a - b * c, Fraction(c) * (ea - eb)),
                "term_multiple": (
                    a.term_multiple(c, shift),
                    Fraction(c) * evaluate(XYZ.poly({shift: 1}), point) * ea,
                ),
            }
            mapping = {}
            for name in rng.sample(XYZ.names, rng.randint(0, 3)):
                mapping[name] = scalar() if rng.random() < 0.4 else mixed_poly(3)
            moved = tuple(
                evaluate(mapping[name], point)
                if isinstance(mapping.get(name), Polynomial)
                else Fraction(mapping.get(name, x))
                for name, x in zip(XYZ.names, point)
            )
            checks["substitute"] = (a.substitute(mapping), evaluate(a, moved))
            if a and b:
                (fm, fc), (gm, gc) = leading_term(a, order), leading_term(b, order)
                lcm = tuple(max(x, y) for x, y in zip(fm, gm))
                up_a = XYZ.poly({tuple(x - y for x, y in zip(lcm, fm)): 1})
                up_b = XYZ.poly({tuple(x - y for x, y in zip(lcm, gm)): 1})
                checks["s_polynomial"] = (
                    s_polynomial(a, b, order),
                    evaluate(up_a, point) * ea / Fraction(fc)
                    - evaluate(up_b, point) * eb / Fraction(gc),
                )
            for name, (got, want) in checks.items():
                assert_exact([got])
                assert evaluate(got, point) == want, name


# -- dense exponent tuples: the representation the packed codes replaced,
# kept as the oracle for them ------------------------------------------------


def exp_mul(a, b):
    return tuple(map(add, a, b))


def exp_div(a, b):
    return tuple(map(sub, a, b))


def exp_divides(a, b):
    """True if x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def tuple_product(f, g):
    """f * g over exponent tuples, term by term."""
    res = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = exp_mul(m1, m2)
            res[m] = res.get(m, 0) + c1 * c2
    return {m: c for m, c in res.items() if c}


def tuple_poly_text(f, order=None):
    """The text of f rendered from exponent tuples: terms sorted by the
    tuple key, each monomial read slot by slot."""
    if not f:
        return "0"
    key = order.key if order is not None else lambda m: (sum(m), m)
    names = f.table.names
    parts = []
    for m in sorted(f.terms, key=key, reverse=True):
        c = f.terms[m]
        body = "*".join(
            names[k] if e == 1 else f"{names[k]}^{e}"
            for k, e in compress(enumerate(m), m)
        )
        mag = abs(c)
        piece = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts)


def random_exps(rng, width, top=6, support=4):
    """A sparse exponent tuple: up to ``support`` slots set, the ends often."""
    exps = [0] * width
    slots = rng.sample(range(width), min(width, rng.randint(0, support)))
    for k in slots + rng.sample((0, width - 1), rng.randint(0, 2)):
        exps[k] = rng.randint(1, top)
    return tuple(exps)


WIDE = VariableTable([f"v{k}" for k in range(120)])


class TestPackedCodes:
    """The packed codes against the dense exponent tuples they replaced."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 81, 120])
    def test_round_trip_and_order(self, width):
        rng = random.Random(width)
        table = VariableTable([f"v{k}" for k in range(width)])
        zero_weights = (0,) * width
        weighted = tuple(rng.choice((0, 0, 1, 5, 40)) for _ in range(width))
        exps = [random_exps(rng, width, top=rng.choice((3, 300, 32767))) for _ in range(60)]
        exps += [(0,) * width, (32767,) + (0,) * (width - 1), (0,) * (width - 1) + (32767,)]
        codes = [table._pack(m) for m in exps]
        for m, code in zip(exps, codes):
            assert table._unpack(code) == m
            assert code >> table._top == sum(m)
        for weights in (zero_weights, weighted):
            order = WeightedOrder(weights)
            key = _code_key(weights, table) or (lambda c: c)
            by_tuple = sorted(set(exps), key=order.key)
            by_code = sorted(set(codes), key=key)
            assert [table._unpack(c) for c in by_code] == by_tuple
            for a, b in zip(codes, codes[1:]):
                assert (key(a) < key(b)) == (order.key(table._unpack(a)) < order.key(table._unpack(b)))

    @pytest.mark.parametrize("width", [1, 2, 5, 81])
    def test_divisibility_and_lcm(self, width):
        rng = random.Random(31 + width)
        table = VariableTable([f"v{k}" for k in range(width)])
        guard = table._guard
        for _ in range(300):
            a = random_exps(rng, width, top=rng.choice((2, 4, 32767)))
            b = exp_mul(a, random_exps(rng, width, top=3)) if rng.random() < 0.4 else random_exps(rng, width)
            if max(b) >= 32768:
                continue
            ca, cb = table._pack(a), table._pack(b)
            d = cb - ca
            assert (d >= 0 and not d & guard) == exp_divides(a, b), (a, b)
            if exp_divides(a, b):
                assert table._unpack(d) == exp_div(b, a)
            assert table._unpack(table._lcm(ca, cb)) == exp_lcm(a, b)

    def test_products_match_tuple_products(self):
        rng = random.Random(41)
        for width in (2, 3, 81):
            table = VariableTable([f"v{k}" for k in range(width)])
            for _ in range(25):
                f, g = (
                    table.poly({
                        random_exps(rng, width, top=9): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 6))
                    })
                    for _ in range(2)
                )
                assert dict((f * g).terms) == tuple_product(f, g)
                shift = random_exps(rng, width)
                assert dict(f.term_multiple(3, shift).terms) == {
                    exp_mul(m, shift): 3 * c for m, c in f.terms.items()
                }

    def test_text_matches_tuple_text(self):
        rng = random.Random(43)
        for width in (1, 2, 3, 40, 120):
            table = VariableTable([f"v{k}" for k in range(width)])
            weights = tuple(rng.randint(0, 3) for _ in range(width))
            for _ in range(40):
                terms = {
                    random_exps(rng, width, top=rng.choice((1, 2, 32767))): rng.choice(
                        (1, -1, 3, Fraction(-5, 2))
                    )
                    for _ in range(rng.randint(0, 6))
                }
                f = table.poly(terms)
                assert poly_text(f) == tuple_poly_text(f)
                text = tuple_poly_text(f, WeightedOrder(weights))
                assert poly_text(f, WeightedOrder(weights)) == text

    @pytest.mark.parametrize("width", [81, 87, 120])
    def test_text_of_wide_tables(self, width):
        # as wide as the versal tables ((28, 1) has 81 names), each case the
        # one-join text treats apart met at least once in either order
        rng = random.Random(width)
        table = VariableTable([f"v{k}" for k in range(width)])
        orders = (None, WeightedOrder(tuple(rng.randint(0, 3) for _ in range(width))))
        coefficients = (1, -1, 2, -3, Fraction(-5, 2), Fraction(7, 3), Fraction(4, 2))
        seen = set()
        for _ in range(120):
            terms = {
                random_exps(rng, width, top=rng.choice((1, 2, 9, 32767))): rng.choice(coefficients)
                for _ in range(rng.randint(1, 8))
            }
            if rng.random() < 0.3:
                terms[(0,) * width] = rng.choice(coefficients)
            f = table.poly(terms)
            for order in orders:
                text = poly_text(f, order)
                assert text == tuple_poly_text(f, order), (terms, order)
                seen.add("negative first" if text.startswith("-") else "positive first")
            for exps, c in f.terms.items():
                if not any(exps):
                    seen.add("constant")
                elif abs(c) == 1:
                    seen.add("unit")
                if isinstance(c, Fraction):
                    seen.add("fraction")
        assert seen == {"negative first", "positive first", "constant", "unit", "fraction"}

    def test_text_of_ends_at_the_ceiling(self):
        top = 32767
        last = len(WIDE) - 1
        cases = {
            (top,) + (0,) * last: "v0^32767",
            (0,) * last + (top,): "v119^32767",
            (1,) + (0,) * (last - 1) + (top,): "v0*v119^32767",
            (top,) + (0,) * (last - 1) + (1,): "v0^32767*v119",
        }
        for exps, text in cases.items():
            f = WIDE.poly({exps: 1})
            assert poly_text(f) == text == tuple_poly_text(f)
        both = WIDE.poly({m: 1 for m in cases} | {(0,) * len(WIDE): -2})
        assert poly_text(both) == tuple_poly_text(both)

    def test_equality_and_hash_across_constructors(self):
        table = VariableTable(["a", "b", "c"])
        a, b, c = (table.var(n) for n in table.names)
        built = [
            (a * b**2 + 3, table.poly({(1, 2, 0): 1, (0, 0, 0): 3})),
            (a * b * b + table.constant(3), b**2 * a + 3),
            (table.var("c", 4), c * c * c * c),
            (table.constant(Fraction(6, 2)), table.poly({(0, 0, 0): 3})),
            (table.one(), a**0),
            (table.zero(), a - a),
            (table.poly({(0, 0, 0): 0}), table.constant(0)),
        ]
        for f, g in built:
            assert f == g
            assert hash(f) == hash(g)
            assert len({f, g}) == 1
        assert table.constant(3) == 3 and table.zero() == 0
        assert a * b != a * c

    def test_terms_is_a_read_only_decoded_view(self):
        f = p({(2, 1): 5, (0, 0): -1})
        assert f.terms == {(2, 1): 5, (0, 0): -1}
        with pytest.raises(TypeError):
            f.terms[(1, 1)] = 2
        assert p({}).terms == {}


X = VariableTable(["x"])


class TestExponentCeiling:
    """Exponents are limited to 0..32767; reaching 2**15 raises InputError."""

    def test_product_reaching_the_ceiling(self):
        half = X.var("x", 2**14)
        assert (half * X.var("x", 2**14 - 1)).terms == {(32767,): 1}
        with pytest.raises(InputError, match="32767"):
            half * half

    def test_constructors(self):
        assert X.var("x", 32767).terms == {(32767,): 1}
        for build in (
            lambda: X.var("x", 2**15),
            lambda: X.poly({(2**15,): 1}),
            lambda: X.poly({(-1,): 1}),
            lambda: XY.poly({(0, 2**16): 1}),
            lambda: XY.var("y", -1),
        ):
            with pytest.raises(InputError, match="32767"):
                build()

    def test_power(self):
        x = X.var("x")
        assert (x**10000) ** 3 == X.var("x", 30000)  # no square past the last bit
        assert x**32767 == X.var("x", 32767)
        with pytest.raises(InputError, match="32767"):
            x**32768
        with pytest.raises(InputError, match="32767"):
            (XY.var("x") + XY.var("y")) ** 2 * XY.var("y", 32766)

    def test_term_multiple(self):
        f = XY.var("y", 20000) + 1
        assert f.term_multiple(2, (0, 12767)) == 2 * XY.var("y", 32767) + 2 * XY.var("y", 12767)
        with pytest.raises(InputError, match="32767"):
            f.term_multiple(2, (0, 12768))

    def test_substitute(self):
        x, y = XY.var("x"), XY.var("y")
        f = x * y**20000
        assert f.substitute({"x": y**12767}) == XY.var("y", 32767)
        with pytest.raises(InputError, match="32767"):
            f.substitute({"x": y**12768})
        # one term within the ceiling does not save another past it
        with pytest.raises(InputError, match="32767"):
            (x + f).substitute({"x": y**20000})

    def test_normal_form(self):
        # x reduces to y^20000, so x^2 would reduce to y^40000
        order = WeightedOrder(weights=(1, 0))
        basis = [XY.var("x") - XY.var("y", 20000)]
        assert normal_form(XY.var("x") * XY.var("y", 12767), basis, order) == XY.var("y", 32767)
        with pytest.raises(InputError, match="32767"):
            normal_form(XY.var("x", 2), basis, order)

    def test_relation_exponent_past_the_ceiling(self):
        def generator_codes(s):
            # the table of z1..ze, and the code of each z_t by t
            names = [f"z{t}" for t in range(1, len(generators(s)) + 1)]
            table = VariableTable(names)
            return table, {t: table._code(name) for t, name in enumerate(names, 1)}

        # the relation z1 z3 = z2^n of (n, n - 1)
        s = Singularity(32767, 32766)
        table, z = generator_codes(s)
        (right,) = right_codes(defining_equations(s), z)
        assert table._unpack(right) == (0, 32767, 0)
        # 2**16 times z2's code would carry into z1's field, past any guard bit
        for n in (32768, 65536):
            s = Singularity(n, n - 1)
            table, z = generator_codes(s)
            with pytest.raises(InputError, match="32767"):
                right_codes(defining_equations(s), z)
