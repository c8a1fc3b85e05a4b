import itertools
import math
import random
from fractions import Fraction

import pytest

from rbmzv.coefficients import ONE_MINUS_Q, PolyQ
from rbmzv.letters import COMPOSITION, MONOMIAL, QLETTERS, LetterSystem
from rbmzv.tensor_algebra import (
    ShaAlgebra, ShaElement, _prepend, mixable_shuffle, render_word,
)

from conftest import WORD, X0, X1, random_sha_element


# --- test-local oracle: direct enumeration, independent of the recursion ---

def multiset_perms(counts):
    """All distinct sequences over the keys of ``counts`` with those counts."""
    if all(v == 0 for v in counts.values()):
        yield ()
        return
    for k, v in counts.items():
        if v:
            counts[k] -= 1
            for rest in multiset_perms(counts):
                yield (k,) + rest
            counts[k] += 1


def mixable_shuffle_direct(system, a, b, weight=1):
    """Mixable shuffle by enumerating every mixable shuffle of a and b.

    A mixable shuffle is a pattern over {A, B, M}: take the next letter of
    a, of b, or merge the next letters of both by the letter product, with
    a factor ``weight``.
    """
    a, b = tuple(a), tuple(b)
    m, n = len(a), len(b)
    out = {}
    for k in range(min(m, n) + 1 if weight else 1):
        for pattern in multiset_perms({"A": m - k, "B": n - k, "M": k}):
            terms = [(1, ())]
            i = j = 0
            for step in pattern:
                if step == "A":
                    terms = [(c, w + (a[i],)) for c, w in terms]
                    i += 1
                elif step == "B":
                    terms = [(c, w + (b[j],)) for c, w in terms]
                    j += 1
                else:
                    terms = [(c * weight * pc, w + (p,))
                             for c, w in terms
                             for pc, p in system.product(a[i], b[j])]
                    i += 1
                    j += 1
            for c, w in terms:
                out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def combo_mul(system, x, y, lam):
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            if not a:
                out[b] = out.get(b, 0) + ca * cb
                continue
            if not b:
                out[a] = out.get(a, 0) + ca * cb
                continue
            for w, c in mixable_shuffle(system, a, b, lam).items():
                out[w] = out.get(w, 0) + ca * cb * c
    return {w: c for w, c in out.items() if c}


def add_dropping_zero(out, w, c):
    """Add c * w into out; a sum that reaches zero is dropped, and a later
    term starts the word afresh."""
    if w in out:
        c = out.pop(w) + c
    if c:
        out[w] = c


def head_product(system, x, y):
    """Letter product with None as the unit."""
    if x is None or y is None:
        return [(1, y if x is None else x)]
    return system.product(x, y)


class TestMixableShuffle:
    # 3x3 runs the plain recursion, 5x5 the join; neither result may be
    # shared with a later call, since double_shuffle_relation and q_stuffle
    # write into the stuffle they get
    @pytest.mark.parametrize("n", [3, 5], ids=["plain", "join"])
    def test_result_is_the_callers_own(self, n):
        a, b = (1, 2, 3, 4, 6)[:n], (1, 2, 4, 5, 6)[:n]
        first = mixable_shuffle(COMPOSITION, a, b, 1)
        expect = dict(first)
        first[next(iter(first))] += 1
        first.pop(next(reversed(first)))
        assert mixable_shuffle(COMPOSITION, a, b, 1) == expect

    def test_one_against_two_letters(self):
        # a1 # (b1 x b2) = three shuffles + two merged terms weighted by lambda
        for lam in (0, 1, -1, 2):
            got = mixable_shuffle(COMPOSITION, (2,), (3, 4), lam)
            expect = {(2, 3, 4): 1, (3, 2, 4): 1, (3, 4, 2): 1}
            if lam:
                expect[(5, 4)] = lam
                expect[(3, 6)] = lam
            assert got == expect

    def test_single_letters(self):
        assert mixable_shuffle(COMPOSITION, (2,), (3,), 1) == {
            (2, 3): 1,
            (3, 2): 1,
            (5,): 1,
        }

    def test_weight_zero_is_plain_shuffle(self):
        got = mixable_shuffle(COMPOSITION, (2,), (3, 4), 0)
        assert got == {(2, 3, 4): 1, (3, 2, 4): 1, (3, 4, 2): 1}

    def test_shuffle_count_binomial(self):
        # over zero-product letters, lambda=0: C(m+n, m) terms, coefficient sums
        for m, n in [(1, 2), (2, 2), (3, 2), (2, 4)]:
            a = (X0,) * (m - 1) + (X1,)
            b = (X0,) + (X1,) * (n - 1)
            got = mixable_shuffle(WORD, a, b, 0)
            assert sum(got.values()) == math.comb(m + n, m)

    def test_zero_product_system_ignores_weight(self):
        # no two letters merge, so every weight gives the plain shuffle
        a, b = (X0, X1), (X0, X0, X1)
        shuffle = mixable_shuffle(WORD, a, b, 0)
        for weight in (1, -1, ONE_MINUS_Q):
            assert mixable_shuffle(WORD, a, b, weight) == shuffle

    def test_direct_matches_recursive_exhaustive(self):
        words = [
            w
            for L in range(1, 4)
            for w in itertools.product(range(1, 4), repeat=L)
        ]
        for a, b in itertools.product(words, repeat=2):
            for lam in (0, 1):
                assert mixable_shuffle(COMPOSITION, a, b, lam) == \
                    mixable_shuffle_direct(COMPOSITION, a, b, lam)

    def test_direct_matches_recursive_length_four(self, rng):
        for _ in range(25):
            a = tuple(rng.randint(1, 4) for _ in range(4))
            b = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            for lam in (1, -1, 2):
                assert mixable_shuffle(COMPOSITION, a, b, lam) == \
                    mixable_shuffle_direct(COMPOSITION, a, b, lam)

    @pytest.mark.parametrize("letters", [(2, 1, 3, 5, 4, 6, 7), (2, 2, 1, 2, 2, 1, 2)],
                             ids=["distinct", "repeated"])
    @pytest.mark.parametrize("system", [COMPOSITION, QLETTERS, WORD],
                             ids=lambda s: s.name)
    # Fraction(-1) is the CLI's -1: two merges give Fraction(1), not int 1
    @pytest.mark.parametrize("weight", [0, 1, -1, Fraction(-1), 2, ONE_MINUS_Q],
                             ids=["0", "1", "-1", "-1-fraction", "2", "1-q"])
    def test_direct_matches_every_length_pair(self, letters, system, weight):
        # every (m, n) in 0..5 x 0..5: both sides of any length rule, and
        # every position at which a word may be cut; 6x2 and 7x3 cut a
        # after three letters, so the prefix words reverse nontrivially
        for m, n in [*itertools.product(range(6), repeat=2), (6, 2), (7, 3)]:
            a, b = letters[:m], letters[::-1][:n]
            got = mixable_shuffle(system, a, b, weight)
            expect = mixable_shuffle_direct(system, a, b, weight)
            assert got == expect, (m, n)
            assert {w: type(c) for w, c in got.items()} == \
                {w: type(c) for w, c in expect.items()}, (m, n)

    def test_direct_matches_recursive_q_letters(self):
        got_r = mixable_shuffle(QLETTERS, (2, 1), (3,), 1)
        got_d = mixable_shuffle_direct(QLETTERS, (2, 1), (3,), 1)
        assert got_r == got_d
        # merged terms carry (1-q) coefficients
        assert any(
            c == ONE_MINUS_Q for c in got_r.values()
        )

    def test_commutative_associative(self):
        words = [
            w
            for L in range(1, 4)
            for w in itertools.product(range(1, 3), repeat=L)
        ]
        for a, b in itertools.product(words, repeat=2):
            assert mixable_shuffle(COMPOSITION, a, b, 1) == \
                mixable_shuffle(COMPOSITION, b, a, 1)
        for a, b, c in itertools.product(words[:9], repeat=3):
            left = combo_mul(
                COMPOSITION, mixable_shuffle(COMPOSITION, a, b, 1), {c: 1}, 1
            )
            right = combo_mul(
                COMPOSITION, {a: 1}, mixable_shuffle(COMPOSITION, b, c, 1), 1
            )
            assert left == right

    def test_admissibility_closure(self):
        # both first letters >= 2 -> every output starts with a letter >= 2
        words = [
            w
            for L in range(1, 4)
            for w in itertools.product(range(1, 4), repeat=L)
            if w[0] >= 2
        ]
        for a, b in itertools.product(words, repeat=2):
            for w in mixable_shuffle(COMPOSITION, a, b, 1):
                assert w[0] >= 2

    def test_systems_sharing_a_name_do_not_share_results(self):
        additive = LetterSystem("shared", lambda x, y: [(1, x + y)], "{}")
        multiplicative = LetterSystem("shared", lambda x, y: [(1, x * y)], "{}")
        assert (5,) in mixable_shuffle(additive, (2,), (3,), 1)
        assert mixable_shuffle(multiplicative, (2,), (3,), 1) == {
            (2, 3): 1,
            (3, 2): 1,
            (6,): 1,
        }

    def test_equal_weights_of_different_types_are_not_mixed(self):
        assert mixable_shuffle(COMPOSITION, (2,), (3,), 1)[(5,)] == 1
        coef = mixable_shuffle(COMPOSITION, (2,), (3,), PolyQ((1,)))[(5,)]
        assert isinstance(coef, PolyQ)
        assert coef == PolyQ((1,))


class TestQuasiShuffle:
    def test_unit_clause(self):
        assert mixable_shuffle(COMPOSITION, (), (2, 3), 1) == {(2, 3): 1}
        assert mixable_shuffle(COMPOSITION, (2, 3), (), 1) == {(2, 3): 1}

    def test_single_letters_bracket(self):
        assert mixable_shuffle(COMPOSITION, (2,), (3,), 1) == {
            (2, 3): 1,
            (3, 2): 1,
            (5,): 1,
        }

    def test_coincides_with_weight_one_mixable(self):
        words = [
            w
            for L in range(1, 4)
            for w in itertools.product(range(1, 5), repeat=L)
        ]
        for a, b in itertools.product(words[:40], repeat=2):
            assert mixable_shuffle(COMPOSITION, a, b, 1) == \
                mixable_shuffle_direct(COMPOSITION, a, b, 1)


class TestShaAlgebra:
    def test_p_of_embedded_letter(self, sha_weight1):
        alg = sha_weight1
        assert alg.p(alg.j(2)) == alg.pure(None, (2,))

    def test_p_of_p_prepends_unit_letter(self, sha_weight1):
        alg = sha_weight1
        assert alg.p(alg.p(alg.j(2))) == alg.pure(None, (None, 2))

    def test_p_linear_on_zero(self, sha_weight1):
        assert alg_zero_p(sha_weight1) == sha_weight1.zero()

    def test_product_of_p_images(self):
        for lam in (0, 1, -1):
            alg = ShaAlgebra(COMPOSITION, lam)
            got = alg.p(alg.j(2)) * alg.p(alg.j(3))
            expect = alg.pure(None, (2, 3)) + alg.pure(None, (3, 2))
            if lam:
                expect = expect + lam * alg.pure(None, (5,))
            assert got == expect

    def test_j_is_algebra_homomorphism(self, sha_weight1):
        alg = sha_weight1
        assert alg.j(2) * alg.j(3) == alg.j(5)

    def test_scalar_tails_multiply_heads(self, sha_weight1):
        alg = sha_weight1
        assert alg.pure(2, ()) * alg.pure(3, ()) == alg.pure(5, ())

    def test_rb_axiom_randomized(self, rng):
        for lam in (0, 1, -1):
            alg = ShaAlgebra(COMPOSITION, lam)
            for _ in range(40):
                x = random_sha_element(alg, rng)
                y = random_sha_element(alg, rng)
                lhs = alg.p(x) * alg.p(y)
                rhs = alg.p(x * alg.p(y)) + alg.p(alg.p(x) * y)
                if lam:
                    rhs = rhs + lam * alg.p(x * y)
                assert lhs == rhs

    def test_star_product_intertwines_p(self, rng):
        for lam in (0, 1, -1):
            alg = ShaAlgebra(COMPOSITION, lam)
            for _ in range(25):
                u = random_sha_element(alg, rng)
                v = random_sha_element(alg, rng)
                assert alg.p(u) * alg.p(v) == alg.p(alg.star(u, v))

    def test_star_with_zero(self, sha_weight1):
        alg = sha_weight1
        u = alg.j(2) + alg.pure(None, (3,))
        assert alg.star(u, alg.zero()) == alg.zero()

    def test_star_expansion(self, sha_weight1):
        alg = sha_weight1
        a, b = alg.j(2), alg.j(3)
        expect = a * alg.p(b) + alg.p(a) * b + alg.j(5)
        assert alg.star(a, b) == expect

    def test_mixed_algebra_rejected(self, sha_weight1):
        other = ShaAlgebra(COMPOSITION, 0)
        with pytest.raises(ValueError):
            sha_weight1.j(2) * other.j(2)

    # Fraction(-1) is the CLI's -1: two merges give Fraction(1), not int 1
    @pytest.mark.parametrize("weight", [ONE_MINUS_Q, -1, Fraction(-1), 1],
                             ids=["1-q", "-1", "-1-fraction", "1"])
    def test_q_letter_sums_match_direct(self, weight):
        # every pair shares the product's one memo, and the merged q-letters
        # of different pairs collide, so their terms add
        words = [w for n in (1, 2, 3) for w in itertools.product((1, 2), repeat=n)]
        alg = ShaAlgebra(QLETTERS, weight)
        x = ShaElement(alg, {(None,) + a: 1 for a in words})
        y = ShaElement(alg, {(None,) + b: 1 for b in words[::-1]})
        expect = {}
        for a in words:
            for b in words[::-1]:
                for w, c in mixable_shuffle_direct(QLETTERS, a, b, weight).items():
                    expect[(None,) + w] = expect.get((None,) + w, 0) + c
        expect = {k: c for k, c in expect.items() if c}
        got = (x * y).terms
        assert got == expect
        assert {k: type(c) for k, c in got.items()} == \
            {k: type(c) for k, c in expect.items()}

    @pytest.mark.parametrize("system", [COMPOSITION, MONOMIAL, QLETTERS],
                             ids=["composition", "monomial", "q"])
    @pytest.mark.parametrize("lam", [0, 1, -1, Fraction(-1), ONE_MINUS_Q],
                             ids=["0", "1", "-1", "-1-fraction", "1-q"])
    def test_product_and_p_match_definition(self, system, lam, rng):
        # (a0 (x) U)(b0 (x) V) = a0 b0 (x) (U ш V) on every pair of terms,
        # heads drawn from None and the letters alike
        alg = ShaAlgebra(system, lam)
        heads = set()
        for _ in range(12):
            x = random_sha_element(alg, rng, max_terms=4, max_tail=3)
            y = random_sha_element(alg, rng, max_terms=4, max_tail=3)
            expect = {}
            for w1, c1 in x.terms.items():
                for w2, c2 in y.terms.items():
                    heads.add(w1[0])
                    tails = mixable_shuffle(system, w1[1:], w2[1:], lam)
                    for hc, h in head_product(system, w1[0], w2[0]):
                        for w, c in tails.items():
                            add_dropping_zero(expect, (h,) + w, c1 * c2 * hc * c)
            got = (x * y).terms
            assert got == expect
            assert {w: type(c) for w, c in got.items()} == \
                {w: type(c) for w, c in expect.items()}
            assert alg.p(x).terms == {(None,) + w: c for w, c in x.terms.items()}
        assert None in heads and len(heads) > 2

    def test_commutative_associative_random(self, rng):
        alg = ShaAlgebra(COMPOSITION, 1)
        for _ in range(20):
            x = random_sha_element(alg, rng)
            y = random_sha_element(alg, rng)
            z = random_sha_element(alg, rng)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


def alg_zero_p(alg):
    return alg.p(alg.zero())


class TestPrepend:
    # no product of words over the library's letter systems cancels a term,
    # since a word fixes its number of merges and its (1-q) power, so the
    # zero rule is checked here on the helper itself
    def test_adds_scaled_words_and_drops_zeros(self):
        out = {(1, 2): 3, (5,): 1}
        _prepend(out, (1,), {(2,): -3, (): 2, (3,): 1})
        assert out == {(5,): 1, (1,): 2, (1, 3): 1}
        _prepend(out, (1,), {(): 1, (3,): 2}, Fraction(-2))
        assert out == {(5,): 1, (1, 3): -3}

    def test_only_an_int_one_multiplies_nothing(self):
        out = {}
        _prepend(out, (), {(1,): ONE_MINUS_Q})
        assert out[1,] is ONE_MINUS_Q
        _prepend(out, (), {(2,): 3}, Fraction(1))
        assert type(out[2,]) is Fraction


class TestRendering:
    def test_word(self):
        assert render_word(COMPOSITION, (2, 3)) == "2⊗3"
        assert render_word(COMPOSITION, ()) == "1"

    def test_sha_element(self, sha_weight1):
        alg = sha_weight1
        x = alg.p(alg.j(2)) + 3 * alg.j(4)
        assert str(x) == "1*1⊗2 + 3*4"
