import copy
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbmzv import coefficients
from rbmzv.coefficients import (
    ONE_MINUS_Q,
    PolyQ,
    RatFuncQ,
    _pseudo_divmod,
    poly_gcd,
    series_exp,
    series_log1p,
)
from rbmzv.letters import COMPOSITION
from rbmzv.operator_gallery import XPoly
from rbmzv.tensor_algebra import ShaAlgebra

from conftest import random_sha_element

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coeff_lists = st.lists(rationals, max_size=5)
polys = coeff_lists.map(PolyQ)
nonzero_polys = polys.filter(bool)


def P(*coeffs):
    return PolyQ(coeffs)


Q = P(0, 1)  # the variable q


# --- test-local reference: dense lists of Fractions, constant term first ---

def ref(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
               for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_divmod(a, d):
    r = list(a)
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = c = r[k + len(d) - 1] / d[-1]
        for i, dc in enumerate(d):
            r[k + i] -= c * dc
    return ref(q), ref(r[:len(d) - 1])


def ref_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q; gcd(0, 0) = 0."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def random_cubic(seed):
    rng = random.Random(seed)
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
    cs[-1] = cs[-1] or Fraction(1)
    return PolyQ(cs)


def ref_str(cs):
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        term = str(abs(c)) if i == 0 else (
            ("q" if i == 1 else f"q^{i}") if abs(c) == 1
            else f"{abs(c)}*{'q' if i == 1 else f'q^{i}'}")
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + term)
    return " ".join(parts) or "0"


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
        # _pseudo_divmod, the integer division poly_gcd and RatFuncQ run on:
        # exact over Z it needs no scaling, s = 1
        assert _pseudo_divmod((-1, 0, 1), (-1, 1)) == (1, [1, 1], [0])
        assert _pseudo_divmod((1, 0, 0, 1), (0, 1)) == (1, [0, 0, 1], [1])
        # 2 (1 + q) = 1 (1 + 2q) + 1
        assert _pseudo_divmod((1, 1), (1, 2)) == (2, [1], [1])

    @given(st.lists(st.integers(-40, 40), max_size=7),
           st.lists(st.integers(-40, 40), max_size=4), st.integers(1, 12))
    def test_divmod_is_euclidean(self, a, b, lc):
        # the contract: s a = q b + r over Z, 0 < s, len(r) = len(b) - 1,
        # for len(a) >= len(b) and b[-1] > 0; s divides a power of b[-1]
        b = b + [lc]
        a = a + [0] * (len(b) - len(a))
        s, q, r = _pseudo_divmod(tuple(a), tuple(b))
        assert s > 0 and lc ** len(a) % s == 0
        assert len(r) == len(b) - 1 and len(q) == len(a) - len(b) + 1
        qb = [sum(q[i] * b[k - i] for i in range(len(q)) if 0 <= k - i < len(b))
              for k in range(len(a))]
        assert [s * x for x in a] == [y + (r[k] if k < len(r) else 0)
                                      for k, y in enumerate(qb)]

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
        # iteration stops at the stored coefficients
        p = poly((1, 2))
        assert list(itertools.islice(iter(p), 5)) == [1, 2]

    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides(self, a, b):
        g = ref(poly_gcd(a, b).coeffs)
        assert ref_divmod(ref(a.coeffs), g)[1] == []
        assert ref_divmod(ref(b.coeffs), g)[1] == []
        assert g[-1] == 1


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
            assert x * RatFuncQ(d, c) * y == x

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
        # the canonical form keeps the value of q/(1-q)
        r = RatFuncQ(Q, ONE_MINUS_Q)
        for q, value in [(Fraction(1, 2), 1), (Fraction(1, 3), Fraction(1, 2))]:
            assert r.num.evaluate(q) / r.den.evaluate(q) == value


def one_minus_q_to(m, sign=1):
    """1 - q^m, the factor the Jackson operators put in denominators, or
    1 + q^m for sign -1."""
    return PolyQ([1] + [0] * (m - 1) + [-sign])


@st.composite
def gallery_fractions(draw):
    """(num, den), unreduced: den a rational times a product of 1 - q^m
    and 1 + q^m factors, possibly none, and num a polynomial with a
    rational content, sometimes times such factors too, so that two
    operands' denominators share factors, or none, and a numerator may
    share one with either denominator."""
    def factors(max_size):
        p = PolyQ([draw(rationals.filter(bool))])
        for m, sign in draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, -1))),
                                     max_size=max_size)):
            p = p * one_minus_q_to(m, sign)
        return p
    return draw(nonzero_polys) * factors(2), factors(3)


class TestHenrici:
    """Sums and products of canonical operands equal the constructor on
    the unreduced numerator and denominator, in every branch: coprime and
    common denominators, a common factor left in the sum, unit
    denominators, zero operands and zero sums."""

    @staticmethod
    def assert_same(got, want):
        for part in ("num", "den"):
            g, w = getattr(got, part), getattr(want, part)
            assert (g.content, g.prim) == (w.content, w.prim), part
        assert repr(got) == repr(want)

    def check(self, x, y):
        a, b, c, d = x.num, x.den, y.num, y.den
        self.assert_same(x + y, RatFuncQ(a * d + c * b, b * d))
        self.assert_same(x * y, RatFuncQ(a * c, b * d))

    @given(gallery_fractions(), gallery_fractions(),
           st.sampled_from(["other", "opposite", "difference"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_constructor(self, xs, zs, mode):
        # y is an independent operand, -x (a zero sum), or z - x, whose sum
        # with x cancels x's extra denominator factors
        x, (zn, zd) = RatFuncQ(*xs), zs
        y = {"other": lambda: RatFuncQ(zn, zd),
             "opposite": lambda: -x,
             "difference": lambda: RatFuncQ(zn * x.den - x.num * zd, zd * x.den)}[mode]()
        self.check(x, y)

    @pytest.mark.parametrize("x, y", [
        # coprime denominators: no gcd after gcd(b, d)
        (RatFuncQ(P(1), one_minus_q_to(1)), RatFuncQ(P(0, 1), P(1, 1))),
        # a common factor 1 - q that the sum keeps
        (RatFuncQ(P(1), one_minus_q_to(1)), RatFuncQ(P(1), one_minus_q_to(2))),
        # a common factor 1 + q that the sum cancels: the result is 1/(1 - q)
        (RatFuncQ(P(1), one_minus_q_to(2)), RatFuncQ(P(0, 1), one_minus_q_to(2))),
        # x + (-x) = 0
        (RatFuncQ(P(2, 3), one_minus_q_to(3)), RatFuncQ(P(-2, -3), one_minus_q_to(3))),
        # unit denominators, and a numerator that shares a factor with
        # the other operand's denominator
        (RatFuncQ(P(Fraction(1, 2), 0, 3)), RatFuncQ(P(1, -1), one_minus_q_to(2))),
        (RatFuncQ(P(3)), RatFuncQ(P(Fraction(-5, 7), 1))),
        # zero operands
        (RatFuncQ(PolyQ()), RatFuncQ(P(1), one_minus_q_to(2))),
        (RatFuncQ(P(0, 1), one_minus_q_to(1)), RatFuncQ(PolyQ(), P(1, 1))),
    ], ids=["coprime", "common-kept", "common-cancelled", "zero-sum",
            "unit-den", "unit-dens", "zero-left", "zero-right"])
    def test_branches(self, x, y):
        self.check(x, y)
        self.check(y, x)

    def test_common_factor_cancels_in_sum(self):
        x = RatFuncQ(P(1), one_minus_q_to(2))
        y = RatFuncQ(P(0, 1), one_minus_q_to(2))
        assert x + y == RatFuncQ(P(1), one_minus_q_to(1))
        assert not RatFuncQ(P(2, 3), one_minus_q_to(3)) + RatFuncQ(P(-2, -3), one_minus_q_to(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_gcds_stay_at_operand_degree(self, monkeypatch, seed):
        # coprime cubic denominators: the sum and the product take gcds of
        # the operands' parts, never of the degree-6 unreduced ones
        b, d = random_cubic(seed), random_cubic(seed + 100)
        assert poly_gcd(b, d) == P(1)
        x = RatFuncQ(random_cubic(seed + 200), b)
        y = RatFuncQ(random_cubic(seed + 300), d)
        degrees = []

        def recording_gcd(u, v):
            degrees.append((len(u.prim) - 1, len(v.prim) - 1))
            return poly_gcd(u, v)

        monkeypatch.setattr(coefficients, "poly_gcd", recording_gcd)
        x + y
        x * y
        assert degrees and max(map(max, degrees)) <= 3


def gcd_operands(max_degree):
    # g*u and g*v with deg g + deg u, deg g + deg v <= max_degree
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    def poly(n):
        return st.lists(small, max_size=n + 1).map(PolyQ)
    return st.integers(0, 8).flatmap(lambda dg: st.tuples(
        poly(dg), poly(max_degree - dg), poly(max_degree - dg)))


class TestPolyGcd:
    @given(gcd_operands(24))
    @settings(max_examples=150, deadline=None)
    @example((P(1), PolyQ(), PolyQ()))  # zero and zero
    @example((P(1), PolyQ(), P(3, -2)))  # zero and nonzero
    @example((P(1), P(Fraction(-5, 2)), P(7)))  # constants
    @example((P(1, 2, 3), P(-1, 0, 1), P(-1, 0, 1)))  # equal operands
    @example((P(Fraction(1, 3), -2), P(4, 0, -6), P(-1, -1)))  # negative leading
    def test_matches_euclid_over_q(self, guv):
        g, u, v = guv
        a, b = g * u, g * v
        got = poly_gcd(a, b)
        assert got.coeffs == tuple(ref_gcd(ref(a.coeffs), ref(b.coeffs)))
        assert poly_gcd(b, a) == got

    def test_gcd_of_zero_is_zero(self):
        assert poly_gcd(PolyQ(), PolyQ()) == PolyQ()
        assert poly_gcd(PolyQ(), P(-2, 4)) == P(Fraction(-1, 2), 1)

    def test_negative_leading_gcd_is_monic(self):
        g = P(3, -6)  # -6q + 3: its monic form is q - 1/2
        assert poly_gcd(g * P(1, 1), g * P(2, 0, -5)) == P(Fraction(-1, 2), 1)


class TestExactCoefficients:
    @pytest.mark.parametrize("make", [
        lambda: PolyQ([0.1]),
        lambda: PolyQ((1, 2.5)),
        lambda: P(1) + PolyQ([Fraction(1, 3), 1e-3]),
        lambda: RatFuncQ(P(1), 2.5),
        lambda: RatFuncQ(0.5),
        lambda: XPoly([0, 0.1]),
    ], ids=["polyq", "polyq-second", "polyq-mixed", "ratfunc-den",
            "ratfunc-num", "xpoly"])
    def test_float_coefficient_raises(self, make):
        # a float is not an exact rational: 0.1 would silently become
        # 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            make()


class TestPolyQReference:
    @given(coeff_lists, coeff_lists)
    def test_ring_ops_match_reference(self, a, b):
        x, y = PolyQ(a), PolyQ(b)
        ra, rb = ref(a), ref(b)
        neg_rb = [-c for c in rb]
        assert (x + y).coeffs == tuple(ref_add(ra, rb))
        assert (x - y).coeffs == tuple(ref_add(ra, neg_rb))
        assert (-y).coeffs == tuple(neg_rb)
        assert (x * y).coeffs == tuple(ref_mul(ra, rb))
        assert (x * Fraction(-3, 4)).coeffs == tuple(ref_mul(ra, [Fraction(-3, 4)]))

    @given(coeff_lists, coeff_lists.filter(lambda c: any(c)))
    def test_division_matches_reference(self, a, d):
        # s x.prim = q y.prim + r, so x / y over Q has quotient
        # x.content / (s y.content) q and remainder x.content / s r
        x, y = PolyQ(a), PolyQ(d)
        q, r = ref_divmod(ref(a), ref(d))
        if len(x.prim) < len(y.prim):
            assert (q, r) == ([], ref(a))
            return
        s, pq, pr = _pseudo_divmod(x.prim, y.prim)
        c = x.content / s
        assert ref([c / y.content * v for v in pq]) == q
        assert ref([c * v for v in pr]) == r

    @given(coeff_lists, rationals)
    def test_evaluate_matches_reference(self, a, t):
        value = sum((c * t ** i for i, c in enumerate(ref(a))), Fraction(0))
        got = PolyQ(a).evaluate(t)
        assert type(got) is Fraction and got == value
        assert PolyQ(a).evaluate(3) == sum(
            (c * 3 ** i for i, c in enumerate(ref(a))), Fraction(0))

    @given(coeff_lists)
    def test_views_match_reference(self, a):
        x, ra = PolyQ(a), ref(a)
        assert x.coeffs == tuple(ra)
        assert all(type(c) is Fraction for c in x.coeffs)
        assert x.degree == len(ra) - 1 and bool(x) == bool(ra)
        assert list(x) == ra
        assert str(x) == ref_str(ra)
        assert repr(x) == f"PolyQ({ra!r})"
        assert x == PolyQ(ra) and hash(x) == hash(PolyQ(ra))
        if len(ra) > 1:
            assert hash(x) == hash(tuple(ra))

    @given(coeff_lists)
    def test_stored_form_is_content_times_primitive(self, a):
        x = PolyQ(a)
        assert type(x.content) is Fraction
        assert all(type(c) is int for c in x.prim)
        if x:
            assert math.gcd(*x.prim) == 1 and x.prim[-1] > 0
            assert x.content != 0
        else:
            assert x.prim == () and x.content == 0

    @given(rationals)
    def test_constants_compare_and_hash_like_scalars(self, c):
        x = PolyQ([c])
        assert x == c and c == x and hash(x) == hash(c)
        if c.denominator == 1:
            n = int(c)
            assert x == n and n == x and hash(x) == hash(n)
        assert x == XPoly([c]) and XPoly([c]) == x
        assert x != P(c, 1) and P(c, 1) != c
        assert hash(PolyQ()) == hash(0)


class TestRatFuncQCanonical:
    @given(polys, nonzero_polys)
    def test_canonical_form(self, a, b):
        r = RatFuncQ(a, b)
        assert r.den.coeffs[-1] == 1
        rn, rd = ref(r.num.coeffs), ref(r.den.coeffs)
        # same value: num * b == a * den
        assert ref_mul(rn, ref(b.coeffs)) == ref_mul(ref(a.coeffs), rd)
        if a:
            assert ref_gcd(rn, rd) == [1]
        else:
            assert r.num == PolyQ() and r.den.coeffs == (1,)

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=50)
    def test_arithmetic_results_are_canonical(self, a, b, c, d):
        x, y = RatFuncQ(a, b), RatFuncQ(c, d)
        for out in (x + y, x * y, -x):
            assert out.den.coeffs[-1] == 1
            if out:
                assert ref_gcd(ref(out.num.coeffs), ref(out.den.coeffs)) == [1]
            else:
                assert out.den.coeffs == (1,)

    def test_unit_denominator_renders_and_hashes_as_numerator(self):
        r = RatFuncQ(P(Fraction(3, 2)), P(3))  # 1/2
        assert str(r) == "1/2" and hash(r) == hash(Fraction(1, 2))
        s = RatFuncQ(P(0, 2), P(4))  # q/2
        assert str(s) == "1/2*q" and hash(s) == hash(s.num)
        t = RatFuncQ(Q, ONE_MINUS_Q)  # q/(1-q) = -q/(q-1)
        assert str(t) == "(-q) / (-1 + q)"
        assert repr(t) == ("RatFuncQ(PolyQ([Fraction(0, 1), Fraction(-1, 1)]), "
                           "PolyQ([Fraction(-1, 1), Fraction(1, 1)]))")

    @pytest.mark.parametrize("p", [P(1, 1), random_cubic(7)],
                             ids=["1+q", "random-cubic"])
    def test_equal_values_hash_equal(self, p):
        # a unit denominator makes a RatFuncQ equal to its numerator, and a
        # constant XPoly equal to its coefficient, whatever the degree
        for x in (RatFuncQ(p), XPoly([p]), XPoly([RatFuncQ(p)])):
            assert x == p and hash(x) == hash(p)
            assert x in {p} and p in {x}


@pytest.mark.parametrize("value", [
    P(1, 1),
    P(Fraction(-2, 3), 0, 5),
    PolyQ(),
    RatFuncQ(P(1, 2), P(3, 0, 1)),
    RatFuncQ(P(1, 1)),
    XPoly([RatFuncQ(P(1, 1), P(0, 2)), 3, Fraction(1, 2)]),
    XPoly([]),
], ids=["poly", "poly-fraction", "poly-zero", "ratfunc", "ratfunc-unit-den",
        "xpoly", "xpoly-zero"])
@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(value, round_trip):
    out = round_trip(value)
    assert type(out) is type(value)
    assert out == value and hash(out) == hash(value)
    assert repr(out) == repr(value)


def series(order, *coeffs):
    """The rational series of this order with these leading coefficients."""
    cs = [Fraction(c) for c in coeffs][: order + 1]
    return cs + [Fraction(0)] * (order + 1 - len(cs))


# --- test-local references: series arithmetic on coefficient lists, and
# exp and log as sums of truncated powers ---

def series_unit(a, one):
    return [one] + [0 * one] * (len(a) - 1)


def series_add(a, b):
    return [x + y for x, y in zip(a, b)]


def series_mul(a, b, mul=operator.mul):
    """The truncated Cauchy product under ``mul``."""
    out = [0 * a[0]] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = out[i + j] + mul(x, b[j])
    return out


def series_scale(c, a):
    return [c * x for x in a]


def ref_series_exp(a, one, mul=operator.mul):
    """exp(a) = sum a^n / n!; the powers start from a, never the unit."""
    result = series_add(series_unit(a, one), a)
    term = a
    for n in range(2, len(a)):
        term = series_scale(Fraction(1, n), series_mul(term, a, mul))
        result = series_add(result, term)
    return result


def ref_series_log1p(a):
    """log(1 + a) = sum (-1)^(n-1) a^n / n; the powers start from a."""
    result = [0 * a[0]] * len(a)
    power = a
    for n in range(1, len(a)):
        if n > 1:
            power = series_mul(power, a)
        result = series_add(result, series_scale(Fraction((-1) ** (n - 1), n), power))
    return result


zero_constant_series = st.integers(0, 10).flatmap(
    lambda order: st.lists(rationals, min_size=order, max_size=order).map(
        lambda cs: [Fraction(0)] + cs))


def random_sha_series(alg, order, seed, **sizes):
    rng = random.Random(seed)
    return [alg.zero()] + [
        random_sha_element(alg, rng, **sizes) for _ in range(order)]


class TestTruncSeries:
    """Truncated power series, kept as coefficient lists."""

    def test_mul_truncates(self):
        # the references' product: (1+t)(1-t) = 1 - t^2 at order 2
        assert series_mul(series(2, 1, 1), series(2, 1, -1)) == series(2, 1, 0, -1)
        # (t)(t) truncated at order 1 is 0
        assert series_mul(series(1, 0, 1), series(1, 0, 1)) == series(1)
        # the helper truncates and pads to the order
        assert series(1, 1, 2, 3) == [1, 2]
        assert series(2, 1) == [1, 0, 0]

    def test_one_is_identity(self):
        s = series(3, 2, -1, 5, 7)
        assert series_mul(series_unit(s, Fraction(1)), s) == s

    def test_order_mismatch(self):
        # the order is len(coeffs) - 1 and carries through exp and log;
        # an empty list has no order
        assert len(series_exp(series(2), Fraction(1))) == 3
        assert len(series_log1p(series(3))) == 4
        with pytest.raises(ValueError):
            series_exp([], Fraction(1))
        with pytest.raises(ValueError):
            series_log1p([])

    def test_exp(self):
        e = series_exp(series(3, 0, 1), Fraction(1))
        assert e == [1, 1, Fraction(1, 2), Fraction(1, 6)]
        assert series_exp(series(4), Fraction(1)) == series(4, 1)

    def test_exp_never_multiplies_by_the_unit(self):
        # a non-unital product: the unit times a would be 2a
        e = series_exp([0, 1, 0, 0], 1, mul=lambda x, y: 2 * x * y)
        assert e == [1, 1, 1, Fraction(2, 3)]

    def test_log1p(self):
        lg = series_log1p(series(3, 0, 1))
        assert lg == [0, 1, Fraction(-1, 2), Fraction(1, 3)]

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(series(2, 1, 1), Fraction(1))
        with pytest.raises(ValueError):
            series_log1p(series(2, 1))

    @given(zero_constant_series)
    @settings(max_examples=60, deadline=None)
    def test_recurrences_match_power_sums(self, a):
        assert series_exp(a, Fraction(1)) == ref_series_exp(a, Fraction(1))
        assert series_log1p(a) == ref_series_log1p(a)

    @pytest.mark.parametrize("product", ["sha", "star"])
    @given(order=st.integers(0, 5), seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_recurrences_match_power_sums_in_sha(self, product, order, seed):
        alg = ShaAlgebra(COMPOSITION, 1)
        if product == "sha":
            mul = operator.mul
            a = random_sha_series(alg, order, seed)
        else:
            # star powers lengthen every tail, so a^5 of the default
            # three-term elements can run for seconds; one short word each
            mul = alg.star
            a = random_sha_series(alg, order, seed, max_terms=1, max_tail=1)
        one = alg.one()
        assert series_exp(a, one, mul) == ref_series_exp(a, one, mul)
        if product == "sha":
            assert series_log1p(a) == ref_series_log1p(a)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_exp_log_round_trip(self, order, rng):
        a = [Fraction(0)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(order)
        ]
        one = Fraction(1)
        assert series_exp(series_log1p(a), one) == series_add(series_unit(a, one), a)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_log_exp_round_trip(self, order, rng):
        a = [Fraction(0)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(order)
        ]
        e = series_exp(a, Fraction(1))
        assert series_log1p([0] + e[1:]) == a
