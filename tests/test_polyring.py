import random
from fractions import Fraction

import pytest

from cqsing.errors import InputError
from cqsing.polyring import (
    Polynomial,
    VariableTable,
    WeightedOrder,
    buchberger,
    initial_form,
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


class TestInitialForm:
    def test_unique_max(self):
        f = p({(2, 0): 1, (0, 1): -1})  # x^2 - y
        assert initial_form(f, (1, 1)) == p({(2, 0): 1})

    def test_tie_keeps_both(self):
        f = p({(3, 0): 1, (0, 2): -1})  # x^3 - y^2
        assert initial_form(f, (2, 3)) == f

    def test_sign_preserved(self):
        f = p({(7, 0): 1, (0, 1): -1})  # x^7 - y
        assert initial_form(f, (1, 11)) == p({(0, 1): -1})

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            initial_form(XY.zero(), (1, 1))

    def test_multiplicative(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            a, b = random_poly(rng), random_poly(rng)
            if not a or not b:
                continue
            w = (rng.randint(0, 5), rng.randint(0, 5))
            assert initial_form(a * b, w) == initial_form(a, w) * initial_form(b, w)
            checked += 1


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
