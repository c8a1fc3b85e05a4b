from fractions import Fraction

import pytest

from rbmzv.coefficients import ONE_MINUS_Q, PolyQ, RatFuncQ
from rbmzv.numeric_eval import nested_sum_oracle
from rbmzv.operator_gallery import (
    XPoly,
    integrate,
    integration_rb_defect,
    jackson_defect,
    jackson_j,
    p_hat_q,
    p_q,
    rb_defect,
    seq_mul,
    z_apply,
    z_rb_defect,
)

HALF = Fraction(1, 2)


def rand_seq(rng, k):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]


def rand_poly(rng, deg, zero_const=False):
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg + 1)]
    if zero_const:
        coeffs[0] = Fraction(0)
    return coeffs


class TestPartialSums:
    def test_z_of_ones(self):
        # Z[1](k) = k - 1
        assert z_apply([Fraction(1)] * 5) == [Fraction(i) for i in range(5)]

    def test_z_of_z_of_ones(self):
        # Z[Z[1]](k) = (k-1)(k-2)/2
        got = z_apply(z_apply([Fraction(1)] * 6))
        assert got == [Fraction((k - 1) * (k - 2), 2) for k in range(1, 7)]

    def test_rb_defect_vanishes(self, rng):
        for _ in range(30):
            k = rng.randint(1, 8)
            f, g = rand_seq(rng, k), rand_seq(rng, k)
            assert all(v == 0 for v in z_rb_defect(f, g))

    def test_window_mismatch(self):
        with pytest.raises(ValueError):
            seq_mul([Fraction(1)], [Fraction(1), Fraction(2)])

    def test_nested_matches_oracle(self):
        # Z iterated on power sequences reproduces the truncated nested sum
        # Z[f1 Z[f2 ...]] at index N+1 is the nested sum truncated at N
        for s, N in [((2,), 12), ((2, 1), 10), ((3, 2), 8)]:
            fs = [
                [Fraction(1, n**p) for n in range(1, N + 2)]
                for p in s
            ]
            acc = z_apply(fs[-1])
            for f in reversed(fs[:-1]):
                acc = z_apply(seq_mul(f, acc))
            assert acc[N] == nested_sum_oracle(s, N)


class TestIntegration:
    def test_monomial(self):
        assert integrate([Fraction(0), Fraction(0), Fraction(1)]) == PolyQ(
            (0, 0, 0, Fraction(1, 3))
        )

    def test_constant(self):
        assert integrate([Fraction(2)]) == PolyQ((0, 2))

    def test_weight_zero_defect_vanishes(self, rng):
        for _ in range(30):
            f = rand_poly(rng, rng.randint(0, 6))
            g = rand_poly(rng, rng.randint(0, 6))
            assert integration_rb_defect(f, g) == PolyQ()

    def test_hand_example(self):
        # I(1)I(1) = x^2 = I(1*x) + I(x*1)
        assert integrate([Fraction(1)]) * integrate([Fraction(1)]) == PolyQ((0, 0, 1))


def xp(*coeffs):
    return XPoly([Fraction(c) if isinstance(c, int) else c for c in coeffs])


def rand_xpoly(rng, deg, zero_const=False):
    return XPoly(rand_poly(rng, deg, zero_const))


class TestXPoly:
    def test_arithmetic(self):
        assert xp(1, 1) * xp(1, -1) == xp(1, 0, -1)
        assert xp(1, 2) - xp(1, 2) == XPoly()
        assert xp(0, 1).shift_x() == xp(0, 0, 1)

    def test_str(self):
        assert str(xp(0, 1)) == "1*x"
        assert str(XPoly()) == "0"

    def test_polyq_is_a_scalar_not_an_xpoly(self):
        # a PolyQ in q is a constant in x, never read as x-coefficients
        one_plus_q = PolyQ((1, 1))
        expected = XPoly([RatFuncQ(one_plus_q)] * 2)  # (1 + q) + (1 + q)*x
        assert one_plus_q * xp(1, 1) == expected
        assert xp(1, 1) * one_plus_q == expected
        assert str(expected) == "(1 + q) + (1 + q)*x"
        assert xp(1) + one_plus_q == XPoly([RatFuncQ(PolyQ((2, 1)))])
        assert one_plus_q + xp(1) == XPoly([RatFuncQ(PolyQ((2, 1)))])


class TestJacksonOperators:
    def test_p_q_on_x(self):
        # P_q[x] = q/(1-q) x
        assert p_q(xp(0, 1)) == XPoly(
            [RatFuncQ(PolyQ()), RatFuncQ(PolyQ((0, 1)), ONE_MINUS_Q)]
        )

    def test_p_q_on_x_squared(self):
        got = p_q(xp(0, 0, 1))
        assert got.coeffs[2] == RatFuncQ(PolyQ((0, 0, 1)), PolyQ((1, 0, -1)))

    def test_p_q_rejects_constant_term(self):
        with pytest.raises(ValueError):
            p_q(xp(1, 1))

    def test_p_q_weight_one(self, rng):
        for _ in range(20):
            f = rand_xpoly(rng, rng.randint(1, 5), zero_const=True)
            g = rand_xpoly(rng, rng.randint(1, 5), zero_const=True)
            assert rb_defect(p_q, f, g, 1) == XPoly()

    def test_p_hat_q_weight_minus_one(self, rng):
        for _ in range(20):
            f = rand_xpoly(rng, rng.randint(1, 5), zero_const=True)
            g = rand_xpoly(rng, rng.randint(1, 5), zero_const=True)
            assert rb_defect(p_hat_q, f, g, -1) == XPoly()

    def test_jackson_on_monomial(self):
        # J[x^m] = (1-q)/(1-q^(m+1)) x^(m+1)
        got = jackson_j(xp(0, 0, 1))
        assert got.coeffs[3] == RatFuncQ(ONE_MINUS_Q, PolyQ((1, 0, 0, -1)))

    def test_jackson_defect_vanishes(self, rng):
        for _ in range(20):
            f = rand_xpoly(rng, rng.randint(0, 5))
            g = rand_xpoly(rng, rng.randint(0, 5))
            assert jackson_defect(f, g) == XPoly()

    def test_jackson_decomposition(self, rng):
        # J = (1-q) * p_hat_q composed with multiplication by x
        lam = RatFuncQ(ONE_MINUS_Q)
        for _ in range(20):
            f = rand_xpoly(rng, rng.randint(0, 5))
            assert jackson_j(f) == p_hat_q(f.shift_x()) * lam

    def test_p_q_specializes_to_geometric_sums(self):
        # coefficient of x^m at q = 1/2 equals sum_{n>=1} q^(n m), checked
        # against a long partial sum
        for m in range(1, 5):
            f = XPoly([Fraction(0)] * m + [Fraction(1)])
            c = p_q(f).coeffs[m]
            exact = c.num.evaluate(HALF) / c.den.evaluate(HALF)
            partial = sum(HALF ** (n * m) for n in range(1, 201))
            assert abs(exact - partial) < Fraction(1, 10**10)

    def test_factors_are_the_constructors_canonical_form(self):
        # each operator builds its x^m factor in canonical form without a
        # gcd; the constructor's reduction must give the same parts
        def parts(r):
            return r.num.content, r.num.prim, r.den.content, r.den.prim

        for m in range(21):
            q_m, q_m1 = PolyQ((0,) * m + (1,)), PolyQ((0,) * (m + 1) + (1,))
            monomial = XPoly([Fraction(0)] * m + [Fraction(1)])
            if m:
                assert parts(p_q(monomial).coeffs[m]) == parts(
                    RatFuncQ(q_m, PolyQ((1,)) - q_m))
            assert parts(jackson_j(monomial).coeffs[m + 1]) == parts(
                RatFuncQ(ONE_MINUS_Q, PolyQ((1,)) - q_m1))
