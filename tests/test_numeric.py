"""Scalar, polynomial, and jet arithmetic."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from polymom.errors import InputError
from polymom.numeric import (
    FLOAT,
    Jet,
    MultiPoly,
    apply_diff_operator,
    exact_div,
    falling,
    falling_column,
    jet_variables,
    parse_rational,
    poly_parse,
    scalar_from_json,
    scalar_to_json,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_falling_column_equals_falling_for_every_j():
    for lead in range(7):
        for count in range(9):
            assert falling_column(lead, count) == [falling(j + lead, lead)
                                                   for j in range(count)]


class TestScalars:
    def test_parse_lowest_terms_positive_denominator(self):
        x = parse_rational("6/4")
        assert (x.numerator, x.denominator) == (3, 2)
        y = parse_rational("-3/6")
        assert (y.numerator, y.denominator) == (-1, 2)

    @given(rationals, rationals)
    def test_exact_product_round_trips_through_strings(self, a, b):
        prod = a * b
        assert parse_rational(scalar_to_json(prod)) == prod

    @given(rationals, rationals, rationals)
    def test_ring_laws_exact(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_json_decoding(self):
        assert scalar_from_json("3/2") == Fraction(3, 2)
        assert scalar_from_json(5) == Fraction(5)
        # decimal literal reading, not binary double
        assert scalar_from_json(0.1) == Fraction(1, 10)
        assert scalar_from_json("3/2", FLOAT) == 1.5
        with pytest.raises(InputError):
            scalar_from_json(True)

    def test_exact_div_never_floats(self):
        assert exact_div(0, 24) == 0
        assert not isinstance(exact_div(0, 24), float)
        assert exact_div(Fraction(1, 2), 3) == Fraction(1, 6)
        assert exact_div(1.5, 3) == 0.5


class TestPolyParse:
    def test_constant(self):
        p = poly_parse("1", 2)
        assert p.terms == {(0, 0): 1}
        assert p.degree == 0

    def test_single_monomial(self):
        p = poly_parse("x1", 2)
        assert p.terms == {(1, 0): 1}
        assert p.degree == 1

    def test_signed_sum(self):
        p = poly_parse("3/2 x1^2 x2 - x2", 2)
        assert p.terms == {(2, 1): Fraction(3, 2), (0, 1): -1}
        assert p.degree == 3
        # independent hand evaluation at (1,1)
        assert p.evaluate((1, 1)) == Fraction(1, 2)

    def test_leading_sign_and_repeated_vars(self):
        p = poly_parse("-x1 x1 + 2", 3)
        assert p.terms == {(2, 0, 0): -1, (0, 0, 0): 2}

    def test_variable_index_out_of_range(self):
        with pytest.raises(InputError, match="exceeds dimension"):
            poly_parse("x3", 2)

    def test_negative_exponent(self):
        with pytest.raises(InputError, match="negative exponent"):
            poly_parse("x1^-2", 2)

    def test_syntax_error_reports_offset(self):
        with pytest.raises(InputError, match="offset 5"):
            poly_parse("x1 + $", 2)

    def test_rational_literal_only_first(self):
        with pytest.raises(InputError, match="offset"):
            poly_parse("x1 2", 2)

    def test_dangling_sign(self):
        with pytest.raises(InputError):
            poly_parse("x1 +", 2)

    @pytest.mark.parametrize("text", ["0", "x1 - x1", "0 x2"])
    def test_zero_density_refused(self, text):
        with pytest.raises(InputError, match="zero polynomial"):
            poly_parse(text, 2)

    def test_homogeneous_parts(self):
        p = poly_parse("1 + x1 + 3 x1 x2", 2)
        parts = p.homogeneous_parts()
        assert sorted(parts) == [0, 1, 2]
        assert parts[2].terms == {(1, 1): 3}

    def test_integer_power_stays_on_ints(self):
        p = MultiPoly(3, {(1, 0, 0): 2, (0, 1, 1): -3, (0, 0, 0): 5})
        q = MultiPoly(3, {e: Fraction(c) for e, c in p.terms.items()})
        for n in range(5):
            power = p**n
            assert all(type(c) is int for c in power.terms.values()), n
            assert power == q**n
        assert p**0 == MultiPoly.constant(3, 1)


def _random_multipoly(rng, dim, degree):
    from random import Random

    assert isinstance(rng, Random)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exp = [0] * dim
        left = degree
        for i in range(dim):
            e = rng.randint(0, left)
            exp[i] = e
            left -= e
        terms[tuple(exp)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(dim, terms)


class TestJet:
    def test_constant_lift_has_no_higher_terms(self):
        j = Jet.constant(Fraction(5), 3, 4)
        assert j.coeffs == {(0, 0, 0): Fraction(5)}

    def test_ring_laws_match_truncated_polynomial_product(self, rng):
        # jets seeded with polynomial Taylor data multiply like polynomials
        for _ in range(25):
            dim = rng.randint(1, 3)
            order = rng.randint(1, 4)
            a = _random_multipoly(rng, dim, order)
            b = _random_multipoly(rng, dim, order)
            ja = Jet(dim, order, dict(a.terms))
            jb = Jet(dim, order, dict(b.terms))
            prod = (a * b).terms
            truncated = {e: c for e, c in prod.items() if sum(e) <= order}
            assert (ja * jb).coeffs == truncated
            assert (ja + jb).coeffs == (a + b).terms

    def test_reciprocal(self):
        # 1/(1 + x) = 1 - x + x^2 - ... truncated
        j = Jet(1, 3, {(0,): Fraction(1), (1,): Fraction(1)})
        inv = j.reciprocal()
        assert inv.coeffs == {
            (0,): 1,
            (1,): -1,
            (2,): 1,
            (3,): -1,
        }
        assert (j * inv).coeffs == {(0,): 1}

    def test_reciprocal_needs_nonzero_constant(self):
        j = Jet(1, 2, {(1,): Fraction(1)})
        with pytest.raises(ZeroDivisionError):
            j.reciprocal()

    def test_division_round_trip(self):
        a = Jet(2, 3, {(0, 0): Fraction(2), (1, 0): Fraction(3)})
        b = Jet(2, 3, {(0, 0): Fraction(5), (0, 1): Fraction(-1)})
        assert ((a / b) * b).coeffs == a.coeffs


class TestApplyDiffOperator:
    def _f(self, jets):
        # f(z) = <(1,2), z>^2
        return (jets[0] + 2 * jets[1]) ** 2

    def test_identity_operator(self):
        rho = poly_parse("1", 2)
        assert apply_diff_operator(rho, self._f, (1, 1)) == 9

    def test_first_partial(self):
        rho = poly_parse("x1", 2)
        assert apply_diff_operator(rho, self._f, (1, 1)) == 6

    def test_mixed_partial(self):
        rho = poly_parse("x1 x2", 2)
        assert apply_diff_operator(rho, self._f, (1, 1)) == 4

    def test_against_symbolic_differentiation(self, rng):
        # exact agreement with sympy on random polynomials, degree <= 6,
        # up to 4 variables
        for _ in range(12):
            dim = rng.randint(1, 4)
            f = _random_multipoly(rng, dim, 6)
            rho = _random_multipoly(rng, dim, rng.randint(0, 3))
            point = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)
            )
            syms = sympy.symbols(f"z0:{dim}")
            f_expr = sum(
                sympy.Rational(c) * sympy.prod(s**e for s, e in zip(syms, exp))
                for exp, c in f.terms.items()
            )
            expected = sympy.Integer(0)
            for exp, c in rho.terms.items():
                term = f_expr
                for s, e in zip(syms, exp):
                    term = sympy.diff(term, s, e)
                expected += sympy.Rational(c) * term
            expected_val = expected.subs(
                {s: sympy.Rational(x) for s, x in zip(syms, point)}
            )

            def evaluate(jets, poly=f):
                total = None
                for exp, c in poly.terms.items():
                    term = Jet.constant(c, len(jets), jets[0].order)
                    for jvar, e in zip(jets, exp):
                        if e:
                            term = term * jvar**e
                    total = term if total is None else total + term
                return total

            got = apply_diff_operator(rho, evaluate, point)
            assert Fraction(got) == Fraction(
                expected_val.p, expected_val.q
            ), (f, rho, point)


class TestFloatExactAgreement:
    def test_jet_evaluation_close(self, rng):
        # float-mode jets track exact jets to 1e-12 relative on
        # well-conditioned cone denominators
        for _ in range(20):
            dim = rng.randint(2, 3)
            edges = []
            for _ in range(dim):
                edges.append(
                    tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(dim))
                )
            z = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(dim))
            exact_jets = jet_variables(z, 2)
            float_jets = jet_variables(tuple(float(x) for x in z), 2)

            def cone_value(jets, es):
                denom = None
                for w in es:
                    s = sum((float(x) if isinstance(jets[0].value(), float) else x) * jv
                            for x, jv in zip(w, jets))
                    denom = s if denom is None else denom * s
                return 1 / denom

            exact_val = cone_value(exact_jets, edges)
            if abs(exact_val.value()) < Fraction(1, 1000):
                continue
            float_val = cone_value(float_jets, edges)
            for exp, c in exact_val.coeffs.items():
                ref = float(c)
                got = float_val.coefficient(exp)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
