import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from rbmzv import identity_engine
from rbmzv.cli import canonical_json
from rbmzv.coefficients import ONE_MINUS_Q
from rbmzv.identity_engine import (
    _element_compare,
    _mod_p_failure,
    bohnenblust_spitzer_check,
    congruence_check,
    exp_star_log_check,
    freshman_power,
    set_partitions,
    spitzer_check,
)
from rbmzv.letters import COMPOSITION, MONOMIAL, QLETTERS
from rbmzv.tensor_algebra import ShaAlgebra


def bell_numbers(n):
    """B_0..B_n by the binomial recurrence B_{m+1} = sum C(m,k) B_k."""
    bell = [1]
    for m in range(n):
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))
    return bell


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_is_bell_number(self, n):
        assert len(set_partitions(n)) == bell_numbers(n)[n]

    def test_partitions_cover_and_are_disjoint(self):
        for blocks in set_partitions(4):
            flat = sorted(x for b in blocks for x in b)
            assert flat == [1, 2, 3, 4]

    def test_no_duplicates(self):
        seen = {
            tuple(tuple(b) for b in blocks) for blocks in set_partitions(5)
        }
        assert len(seen) == len(set_partitions(5))

    def test_small_counts(self):
        assert len(set_partitions(1)) == 1
        assert len(set_partitions(3)) == 5
        assert len(set_partitions(4)) == 15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            set_partitions(0)
        with pytest.raises(ValueError):
            set_partitions(9)


class TestSpitzer:
    def test_first_order_term(self):
        rep = spitzer_check(1)
        assert rep.equal

    def test_second_order_hand_expansion(self):
        # (1 (x) a)^2 = 2 * 1 (x) a (x) a + 1 (x) a^2 at weight 1
        alg = ShaAlgebra(MONOMIAL, 1)
        pa = alg.p(alg.j(1))
        assert pa * pa == 2 * alg.pure(None, (1, 1)) + alg.pure(None, (2,))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_verdict_equal(self, order):
        assert spitzer_check(order).equal

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spitzer_check(0)

    def test_takes_no_weight(self):
        # the right-hand side is the weight-1 identity, so any other
        # weight could only report a false "unequal"
        with pytest.raises(TypeError):
            spitzer_check(3, weight=2)


class TestExpStarLog:
    @pytest.mark.parametrize("order", range(1, 9))
    def test_verdict_equal(self, order):
        assert exp_star_log_check(order).equal

    def test_report_fields(self):
        rep = exp_star_log_check(2)
        assert rep.name == "expstar"
        assert rep.first_diff is None
        assert "a^1" in rep.lhs


def test_series_reports_pinned():
    # every order the checks accept; the digest is that of the reports
    # computed with exp and log as sums of truncated powers
    reports = [spitzer_check(k) for k in range(1, 9)]
    reports += [exp_star_log_check(k) for k in range(1, 9)]
    text = canonical_json([r.to_json() for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "861838e1776520e4f8d89484cf4da254d0ad31a9ba1aad1fe011732b4d50bba2")


def test_sha_reports_pinned():
    # every n the Bohnenblust-Spitzer check accepts, and two unequal pairs:
    # the first differs first at a unit head, the second at a letter head
    reports = [bohnenblust_spitzer_check(n) for n in range(2, 6)]
    alg = ShaAlgebra(COMPOSITION, 1)
    pa, pb = alg.p(alg.j(2)), alg.p(alg.j(3))
    reports.append(_element_compare(
        "unit_head", {}, alg.j(4) * pa * pb,
        alg.pure(4, (2, 3)) + alg.pure(4, (3, 2)) + alg.pure(None, (5,))))
    q = ShaAlgebra(QLETTERS, ONE_MINUS_Q)
    reports.append(_element_compare(
        "letter_head", {}, q.j(2) * q.p(q.j(1)) * q.p(q.j(1)),
        Fraction(1, 2) * q.pure(2, (1, 1)) + q.pure(2, (2,))))
    assert reports[-2].first_diff == "coefficient -1 at (None, (5,))"
    assert reports[-1].first_diff == "coefficient 1 - 2*q + q^2 at (2, (1,))"
    text = canonical_json([r.to_json() for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ceb1db3b46aff5f025d3586a29f276d03b5325fab5df4d6352b75405d4a81d3a")


class TestBohnenblustSpitzer:
    def test_n2_hand_identity(self):
        # P(s1 P(s2)) + P(s2 P(s1)) = -P(s1 s2) + P(s1) P(s2)
        alg = ShaAlgebra(COMPOSITION, 1)
        s1, s2 = 2, 3
        lhs = alg.nested_p((s1, s2)) + alg.nested_p((s2, s1))
        rhs = alg.p(alg.j(s1)) * alg.p(alg.j(s2)) - alg.p(alg.j(s1 + s2))
        assert lhs == rhs

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verdict_equal(self, n):
        assert bohnenblust_spitzer_check(n).equal

    def test_rhs_block_order_irrelevant(self):
        # products of P-images commute, so partition-block order cannot matter
        alg = ShaAlgebra(COMPOSITION, 1)
        a = alg.p(alg.j(2))
        b = alg.p(alg.j(5))
        c = alg.p(alg.j(7))
        assert (a * b) * c == c * (b * a)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bohnenblust_spitzer_check(1)
        with pytest.raises(ValueError):
            bohnenblust_spitzer_check(6)


def sha_power_reference(w, p, system):
    """(1 (x) w)^p by p - 1 binary Sha products, as a tail combination."""
    alg = ShaAlgebra(system, 1)
    x = alg.pure(None, w)
    power = x
    for _ in range(p - 1):
        power = power * x
    assert all(w[0] is None for w in power.terms)
    return {w[1:]: c for w, c in power.terms.items()}


# p in {2, 3, 5} on words of length <= 2; (1, 1, 2) only up to p = 3, where
# the repeated-product reference still takes milliseconds
SHORT_POWERS = [
    (p, w)
    for p in (2, 3, 5)
    for w in [(1,), (3,), (2, 2), (2, 3), (3, 1)] + ([(1, 1, 2)] if p < 5 else [])
]


# (p, w, modulus): every word of 1-3 parts from 1-4 at p = 2 and 3, of 1-2
# parts at p = 5, and two pairs at p = 7, all mod p (the integer power of a
# 3-part word at p = 5 takes about 2 s, so those 64 words stay out); then a
# few moduli other than p, which keep mixed states alive, whose sums the
# recursion must reduce after its steps
MODULAR_POWERS = [
    (p, w, p)
    for p, lengths in ((2, (1, 2, 3)), (3, (1, 2, 3)), (5, (1, 2)))
    for n in lengths
    for w in itertools.product(range(1, 5), repeat=n)
] + [(7, (1, 2), 7), (7, (2, 3), 7)] + [
    (2, (1, 2, 3), 3), (3, (1, 2), 2), (3, (2, 1, 3), 4), (3, (1, 2), 9),
    (5, (1, 2), 25), (5, (3,), 7),
]


class TestFreshmanCongruence:
    def test_square_of_single_monomial(self):
        # (1 (x) a)^2 = 2 (1 (x) a (x) a) + 1 (x) a^2, for the letter a = 1
        power = freshman_power((1,), 2)
        assert power == {(1, 1): 2, (2,): 1}

    def test_letter_two_cubed_mod_three(self):
        power = freshman_power((2,), 3)
        assert power[(6,)] % 3 == 1
        assert all(c % 3 == 0 for w, c in power.items() if w != (6,))

    def test_pair_word_squared_mod_two(self):
        power = freshman_power((2, 3), 2)
        assert power[(4, 6)] % 2 == 1
        assert all(c % 2 == 0 for w, c in power.items() if w != (4, 6))

    def test_congruence_check_reports(self):
        rep = congruence_check((2, 3), 2)
        assert rep.equal
        assert rep.params == {"word": [2, 3], "p": 2}

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            freshman_power((2,), 4)
        with pytest.raises(ValueError):
            congruence_check((2,), 6)

    @pytest.mark.parametrize("check, w, p", [
        (congruence_check, (0,), 2), (congruence_check, (-1, 2), 3),
        (congruence_check, (), 2), (freshman_power, (0, 1), 2),
        (freshman_power, (2.0,), 2),
    ])
    def test_non_composition_rejected(self, check, w, p):
        with pytest.raises(ValueError, match="not a composition"):
            check(w, p)

    def test_takes_no_letter_system(self):
        # its target p*a is the letter p-th power only for composition
        # letters; for q-letters (2,)^2 holds (3,): 1 - q, which mod p
        # cannot test
        with pytest.raises(TypeError):
            congruence_check((2,), 2, QLETTERS)

    # monomial letters multiply as composition letters do, so their Sha
    # power is the same combination
    @pytest.mark.parametrize("system", [COMPOSITION, MONOMIAL])
    @pytest.mark.parametrize("p, w", SHORT_POWERS)
    def test_power_equals_repeated_product(self, system, p, w):
        assert freshman_power(w, p) == sha_power_reference(w, p, system)

    @pytest.mark.parametrize("w", [(1,), (2,), (5,)])
    def test_seventh_power_of_a_letter(self, w):
        assert freshman_power(w, 7) == sha_power_reference(w, 7, COMPOSITION)

    @pytest.mark.parametrize("w, terms", [((2, 3), 268032), ((2, 1), 130624)])
    def test_seventh_power_of_a_pair(self, w, terms):
        assert congruence_check(w, 7).equal
        assert len(freshman_power(w, 7)) == terms

    @pytest.mark.parametrize("p, w, modulus", MODULAR_POWERS)
    def test_power_mod_m_equals_integer_power_reduced(self, p, w, modulus):
        power = freshman_power(w, p, modulus=modulus)
        assert power == {
            u: c % modulus for u, c in freshman_power(w, p).items() if c % modulus
        }
        assert all(1 <= c <= modulus - 1 for c in power.values())

    def test_power_mod_p_visits_one_state_per_position(self, monkeypatch):
        # C(7, j) = 0 mod 7 for 0 < j < 7, so each of the 5 states takes one
        # step; the integer power of this word runs out of memory, so the
        # counter stops a recursion that takes more steps before it does
        calls = 0
        prepend = identity_engine._prepend

        def counting(*args):
            nonlocal calls
            calls += 1
            assert calls <= 5, "more than one step per position"
            prepend(*args)

        monkeypatch.setattr(identity_engine, "_prepend", counting)
        power = freshman_power((1, 2, 3, 4, 5), 7, modulus=7)
        assert power == {(7, 14, 21, 28, 35): 1}

    def test_mod_p_failure_reports_sorted_first_word(self):
        # two failing words, inserted in the reverse of their sorted order
        power = {(4,): 4, (2, 2): 1, (1, 2): 2, (3,): 3}
        assert _mod_p_failure(power, (4,), 3) == (
            "coefficient of (1, 2) is 2, not 0 mod 3"
        )
        assert _mod_p_failure(power, (3,), 3) == (
            "coefficient of target (3,) is 3, not 1 mod 3"
        )
        assert _mod_p_failure({(4,): 4, (2, 2): 3}, (4,), 3) is None
