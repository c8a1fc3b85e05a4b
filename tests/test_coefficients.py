import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmzv import coefficients
from rbmzv.coefficients import (
    ONE_MINUS_Q,
    PolyQ,
    Q_VAR,
    RatFuncQ,
    TruncSeries,
    poly_gcd,
    series_exp,
    series_log1p,
)
from rbmzv.operator_gallery import XPoly

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coeff_lists = st.lists(rationals, max_size=5)
polys = coeff_lists.map(PolyQ)
nonzero_polys = polys.filter(bool)


def P(*coeffs):
    return PolyQ(coeffs)


class TestPolyQ:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).degree == -1

    def test_arithmetic(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)
        assert P(1, 2) + 3 == P(4, 2)
        assert 2 * P(0, 1) == P(0, 2)
        assert P(1, 1) - P(1, 1) == PolyQ()

    def test_divmod(self):
        q, r = P(1, 0, -1).divmod(P(1, -1))
        assert q == P(1, 1) and r == PolyQ()
        q, r = P(1, 0, 0, 1).divmod(P(0, 1))
        assert q == P(0, 0, 1) and r == P(1)

    @given(polys, nonzero_polys)
    def test_divmod_is_euclidean(self, a, d):
        q, r = a.divmod(d)
        assert q * d + r == a
        assert r.degree < d.degree

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            P(1).divmod(PolyQ())

    def test_evaluate(self):
        assert P(1, -1).evaluate(Fraction(1, 3)) == Fraction(2, 3)

    def test_str(self):
        assert str(ONE_MINUS_Q) == "1 - q"
        assert str(P(0, 0, Fraction(3, 2))) == "3/2*q^2"
        assert str(PolyQ()) == "0"

    @pytest.mark.parametrize("poly", [PolyQ, XPoly])
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_ring_axioms(self, poly, a, b, c):
        # one shared kernel: the same axioms over Q and over Q(q)
        a, b, c = poly(a), poly(b), poly(c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == poly()

    @pytest.mark.parametrize("poly", [PolyQ, XPoly])
    def test_iteration_ends(self, poly):
        # iteration stops at the stored coefficients; indexing beyond them
        # still reads zero
        p = poly((1, 2))
        assert list(itertools.islice(iter(p), 5)) == [1, 2]
        assert p[7] == 0

    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides(self, a, b):
        g = poly_gcd(a, b)
        assert a % g == PolyQ()
        assert b % g == PolyQ()
        assert g.leading() == 1


class TestRatFuncQ:
    def test_normalize_difference_of_squares(self):
        assert RatFuncQ(P(1, 0, -1), P(1, -1)) == RatFuncQ(P(1, 1))

    def test_normalize_zero_numerator(self):
        r = RatFuncQ(PolyQ(), P(1, 1))
        assert not r
        assert r == RatFuncQ(PolyQ())

    def test_normalize_cubic(self):
        # (q - q^3)/(q + q^2) = 1 - q, by long division against the gcd
        assert RatFuncQ(P(0, 1, 0, -1), P(0, 1, 1)) == RatFuncQ(P(1, -1))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFuncQ(P(1), PolyQ())

    @given(polys, nonzero_polys, nonzero_polys)
    def test_common_factor_cancels(self, a, b, c):
        assert RatFuncQ(a * c, b * c) == RatFuncQ(a, b)

    def test_canonical_equality(self):
        # a/b == c/d iff a*d == c*b
        a, b = P(0, 2), P(2, -2)
        c, d = P(0, 1), P(1, -1)
        assert a * d == c * b
        assert RatFuncQ(a, b) == RatFuncQ(c, d)

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=50)
    def test_field_axioms(self, a, b, c, d):
        x, y = RatFuncQ(a, b), RatFuncQ(c, d)
        assert x + y == y + x
        assert x * y == y * x
        if y:
            assert (x / y) * y == x

    @pytest.mark.parametrize("num, den", [
        ((0, 2), (2, -2)), ((3, 0, -1), (1, 1, 1)), ((Fraction(1, 3),), (0, 5)), ((), (1,)),
    ])
    def test_negation_runs_no_gcd(self, monkeypatch, num, den):
        r = RatFuncQ(PolyQ(num), PolyQ(den))
        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(coefficients, "poly_gcd", counting_gcd)
        neg = -r
        assert calls == []
        assert neg == RatFuncQ(-r.num, r.den)

    def test_evaluate(self):
        r = RatFuncQ(Q_VAR, ONE_MINUS_Q)  # q/(1-q)
        assert r.evaluate(Fraction(1, 2)) == 1
        assert r.evaluate(Fraction(1, 3)) == Fraction(1, 2)


def series(order, *coeffs):
    return TruncSeries(order, [Fraction(c) for c in coeffs])


class TestTruncSeries:
    def test_mul_truncates(self):
        # (1+t)(1-t) = 1 - t^2 at order 2
        assert series(2, 1, 1) * series(2, 1, -1) == series(2, 1, 0, -1)
        # (t)(t) truncated at order 1 is 0
        assert series(1, 0, 1) * series(1, 0, 1) == series(1)

    def test_one_is_identity(self):
        s = series(3, 2, -1, 5, 7)
        assert s.unit() * s == s

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            series(2, 1) * series(3, 1)
        with pytest.raises(ValueError):
            series(2, 1) + series(3, 1)

    def test_exp(self):
        e = series_exp(series(3, 0, 1))
        assert e == TruncSeries(
            3, [1, 1, Fraction(1, 2), Fraction(1, 6)]
        )
        assert series_exp(series(4)) == series(4).unit()

    def test_exp_never_multiplies_by_the_unit(self):
        # a non-unital product: the unit times a would be 2a
        a = TruncSeries(3, [0, 1], mul=lambda x, y: 2 * x * y)
        assert series_exp(a).coeffs == [1, 1, 1, Fraction(2, 3)]

    def test_log1p(self):
        lg = series_log1p(series(3, 0, 1))
        assert lg == TruncSeries(3, [0, 1, Fraction(-1, 2), Fraction(1, 3)])

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(series(2, 1, 1))
        with pytest.raises(ValueError):
            series_log1p(series(2, 1))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_exp_log_round_trip(self, order, rng):
        coeffs = [Fraction(0)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(order)
        ]
        a = TruncSeries(order, coeffs)
        assert series_exp(series_log1p(a)) == a.unit() + a

    @pytest.mark.parametrize("order", range(1, 9))
    def test_log_exp_round_trip(self, order, rng):
        coeffs = [Fraction(0)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(order)
        ]
        a = TruncSeries(order, coeffs)
        assert series_log1p(series_exp(a) - a.unit()) == a
