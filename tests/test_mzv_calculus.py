import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmzv import mzv_calculus
from rbmzv.corpus import _admissible_compositions, corpus_relations
from rbmzv.coefficients import ONE_MINUS_Q, PolyQ
from rbmzv.compositions import (
    InadmissibleError,
    composition_str,
    is_admissible,
    parse_composition,
    require_admissible,
    weight,
)
from rbmzv.letters import QLETTERS
from rbmzv.tensor_algebra import mixable_shuffle
from rbmzv.mzv_calculus import (
    Relation,
    congruence_zeta_relation,
    double_shuffle_relation,
    hoffman_partition_relation,
    q_stuffle,
    shuffle_zeta,
    spitzer_zeta_relation,
    stuffle,
)

from conftest import WORD, X0, X1, comp_to_word, word_to_comp


class TestCompositions:
    def test_parse_and_str(self):
        assert parse_composition("2,1,3") == (2, 1, 3)
        assert composition_str((2, 1, 3)) == "2,1,3"

    def test_parse_rejects_garbage(self):
        for bad in ["", "2,", "a", "0,2", "-1"]:
            with pytest.raises(ValueError):
                parse_composition(bad)

    def test_weight_depth(self):
        assert weight((2, 1, 3)) == 6

    def test_admissibility(self):
        assert is_admissible((2, 1))
        assert not is_admissible((1, 2))
        require_admissible((2,))
        with pytest.raises(InadmissibleError):
            require_admissible((1, 2))


class TestStuffle:
    def test_two_times_two(self):
        assert stuffle((2,), (2,)) == {(2, 2): 2, (4,): 1}

    def test_two_times_three(self):
        assert stuffle((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}

    def test_depth_one_times_depth_two(self):
        assert stuffle((2,), (3, 1)) == {
            (2, 3, 1): 1,
            (3, 2, 1): 1,
            (3, 1, 2): 1,
            (5, 1): 1,
            (3, 3): 1,
        }

    def test_weight_graded(self):
        for a, b in [((2,), (3, 1)), ((2, 2), (4,)), ((3, 1, 2), (2,))]:
            for c in stuffle(a, b):
                assert weight(c) == weight(a) + weight(b)

    def test_depth_bounds(self):
        for c in stuffle((2, 1), (3, 4)):
            assert max(2, 2) <= len(c) <= 4

    def test_admissible_closed(self):
        for c in stuffle((2, 1), (3, 1, 1)):
            assert is_admissible(c)

    def test_commutative(self):
        assert stuffle((2, 1), (3, 4)) == stuffle((3, 4), (2, 1))


class TestQStuffle:
    def test_two_times_three_has_correction(self):
        got = q_stuffle((2,), (3,))
        assert got[(2, 3)] == 1 and got[(3, 2)] == 1
        assert got[(5,)] == 1
        assert got[(4,)] == ONE_MINUS_Q

    def test_specializes_to_stuffle_at_q_one(self):
        classical = stuffle((2, 1), (3,))
        got = {}
        for c, coef in q_stuffle((2, 1), (3,)).items():
            val = coef if isinstance(coef, int) else coef.evaluate(1)
            if val:
                got[c] = got.get(c, 0) + val
        assert got == classical

    def test_sorted_text_pinned(self):
        # a 5 x 5 q-stuffle of perfbench's symbolic workload; the text names
        # each coefficient's type, so an int turned PolyQ shows
        got = q_stuffle((1, 2, 4, 6, 9), (2, 3, 5, 7, 8))
        text = "".join(f"{w} {type(c).__name__} {c}\n"
                       for w, c in sorted(got.items()))
        assert len(got) == 5237
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f5f8bad454c6e259f4057abfefd4d3484688bf566105fa637c984c979fea7b64"
        )

    @staticmethod
    def assert_equals_direct_kernel(a, b):
        # the path counts times (1-q)^e are the q-letter kernel's own
        # coefficients: same words, same order, same types and text
        got, want = q_stuffle(a, b), mixable_shuffle(QLETTERS, a, b, 1)
        assert list(got) == list(want), (a, b)
        assert [(type(c), str(c)) for c in got.values()] == [
            (type(c), str(c)) for c in want.values()], (a, b)
        assert got == want

    def test_graded_equals_direct_kernel_on_short_words(self):
        words = [w for n in (1, 2, 3) for w in itertools.product((1, 2, 3), repeat=n)]
        for a, b in itertools.product(words, repeat=2):
            self.assert_equals_direct_kernel(a, b)

    @pytest.mark.parametrize("a, b", [
        ((1, 3, 4, 6), (2, 3, 5, 8)),
        ((1, 3, 4, 6), (2, 3, 5, 7, 8)),
        ((2, 3, 5, 7, 8), (1, 3, 4, 6)),
    ], ids=["4x4", "4x5", "5x4"])
    def test_graded_equals_direct_kernel_on_benchmark_parts(self, a, b):
        self.assert_equals_direct_kernel(a, b)

    def test_builds_one_polynomial_per_power_and_count(self, monkeypatch):
        # the paths are counted in ints: no PolyQ product runs per path or
        # per word, at most one per distinct (e, count)
        a, b = (1, 2, 4, 6, 9), (2, 3, 5, 7, 8)
        calls = []
        mul = PolyQ.__mul__

        def counting_mul(p, other):
            calls.append(1)
            return mul(p, other)

        monkeypatch.setattr(PolyQ, "__mul__", counting_mul)
        monkeypatch.setattr(PolyQ, "__rmul__", counting_mul)
        got = q_stuffle(a, b)
        wt = sum(a) + sum(b)
        distinct = {(wt - sum(w), c) for w, c in got.items() if not isinstance(c, int)}
        assert len(calls) <= len(distinct)


class TestWordEncoding:
    def test_examples(self):
        assert comp_to_word((2,)) == (X0, X1)
        assert comp_to_word((3, 1)) == (X0, X0, X1, X1)
        assert comp_to_word((2, 2)) == (X0, X1, X0, X1)

    def test_round_trip_all_admissible(self):
        for L in range(2, 9):
            for w in itertools.product((X0, X1), repeat=L):
                if w[0] != X0 or w[-1] != X1:
                    continue
                assert comp_to_word(word_to_comp(w)) == w

    def test_rejects_divergent(self):
        with pytest.raises(InadmissibleError):
            comp_to_word((1, 2))
        with pytest.raises(ValueError):
            word_to_comp((X1, X0))


SMALL_ADMISSIBLE = _admissible_compositions(8, 4)


def word_shuffle_zeta(a, b):
    """The shuffle of the words of a and b, decoded to compositions (the
    encoding is one-to-one, so no two words meet)."""
    words = mixable_shuffle(WORD, comp_to_word(a), comp_to_word(b), 0)
    return {word_to_comp(w): c for w, c in words.items()}


class TestShuffleZeta:
    def test_two_times_two(self):
        assert shuffle_zeta((2,), (2,)) == {(3, 1): 4, (2, 2): 2}

    def test_two_times_three(self):
        assert shuffle_zeta((2,), (3,)) == {
            (4, 1): 6,
            (3, 2): 3,
            (2, 3): 1,
        }

    def test_term_count_binomial(self):
        got = shuffle_zeta((2, 2), (3,))
        total = sum(got.values())
        # C(7, 3) interleavings of the letter strings
        assert total == 35

    def test_weight_graded(self):
        for c in shuffle_zeta((2, 1), (2,)):
            assert weight(c) == 5

    def test_divergent_refused(self):
        with pytest.raises(InadmissibleError):
            shuffle_zeta((1, 2), (2,))

    @given(st.sampled_from(SMALL_ADMISSIBLE), st.sampled_from(SMALL_ADMISSIBLE))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_word_shuffle(self, a, b):
        got = shuffle_zeta(a, b)
        assert got == word_shuffle_zeta(a, b)
        assert got == shuffle_zeta(b, a)
        wa, wb = weight(a), weight(b)
        assert sum(got.values()) == math.comb(wa + wb, wa)
        assert all(type(c) is int for c in got.values())

    def test_outputs_pinned(self):
        # every admissible pair of total weight <= 12 and every argument of
        # the four shuffle strata of perfbench's symbolic workload; the hash
        # was taken from the word-encoded shuffle this recursion replaced
        comps = _admissible_compositions(10, 9)
        pairs = [(a, b) for a in comps for b in comps
                 if weight(a) + weight(b) <= 12]
        for pa, pb in (((4, 3, 2), (5, 2, 2)), ((4, 3, 2), (5, 3, 2)),
                       ((4, 4, 2), (5, 4, 2)), ((5, 4, 3), (6, 4, 2))):
            pairs += itertools.product(sorted(set(itertools.permutations(pa))),
                                       sorted(set(itertools.permutations(pb))))
        h = hashlib.sha256()
        for a, b in pairs:
            h.update(repr((a, b, sorted(shuffle_zeta(a, b).items()))).encode())
            h.update(b"\n")
        assert len(pairs) == 4205
        assert h.hexdigest() == (
            "288b7269c7d57353ee3b9050e05060aaad6d2e209668f57f01946c75cbb7562c"
        )


class TestRelation:
    def test_canonical_order_and_zero_dropped(self):
        r = Relation.from_dict(
            {((3, 1),): Fraction(-4), ((4,),): Fraction(1), ((2, 2),): 0},
            "test",
        )
        assert r.terms == ((((3, 1),), Fraction(-4)), (((4,),), Fraction(1)))

    def test_json_round_trip(self):
        for r in (double_shuffle_relation((2,), (3,)),
                  hoffman_partition_relation((2, 3, 4)),
                  spitzer_zeta_relation(2, 3)):
            assert Relation.from_json(json.loads(r.json_text())) == r, r.source

    def test_coefficients_are_exact(self):
        # an integral coefficient is an int, any other a Fraction; never a float
        relations = [
            double_shuffle_relation((3, 1), (2, 2)),
            hoffman_partition_relation((2, 2, 3)),
            spitzer_zeta_relation(2, 4),
            Relation.from_json(json.loads(spitzer_zeta_relation(3, 3).json_text())),
            Relation.from_dict(
                {((2,),): 2.0, ((3,),): 0.5, ((4,),): Fraction(6, 3)}, "test"),
        ]
        for r in relations:
            assert r.terms, r.source
            for _, c in r.terms:
                assert type(c) is (int if c.denominator == 1 else Fraction), (r.source, c)
        assert any(type(c) is Fraction for _, c in relations[2].terms)

    def test_json_text_escapes_the_source(self):
        r = Relation(((((2,), (3, 1)), Fraction(-1, 2)), (((5,),), 3)),
                     'quote " backslash \\ tab \t é')
        t = r.json_text()
        assert json.dumps(json.loads(t), sort_keys=True, ensure_ascii=False) == t
        assert json.loads(t) == {
            "source": r.source,
            "terms": [{"coef": "-1/2", "monomial": [[2], [3, 1]]},
                      {"coef": "3", "monomial": [[5]]}],
        }


class TestDoubleShuffle:
    def test_famous_weight_four(self):
        # stuffle minus shuffle of (2)x(2): zeta(4) = 4 zeta(3,1)
        r = double_shuffle_relation((2,), (2,))
        assert r.as_dict() == {
            ((4,),): Fraction(1),
            (((3, 1)),): Fraction(-4),
        }

    def test_weight_five(self):
        r = double_shuffle_relation((2,), (3,))
        d = r.as_dict()
        assert d[((5,),)] == 1
        assert d[((4, 1),)] == -6
        assert d[((3, 2),)] == -2

    def test_corpus_coefficients_are_nonzero_ints(self):
        # both products count paths, so no coefficient is a Fraction, which
        # the corpus bytes could not show: str(Fraction(3, 1)) == "3"
        relations = [make() for _, gen, _, make in corpus_relations(12, 5)
                     if gen == "doubleshuffle"]
        assert len(relations) == 969
        for rel in relations:
            assert rel.terms
            assert all(type(c) is int and c for _, c in rel.terms), rel.source

    # 12/6 holds pairs whose stuffle runs mixable_shuffle's join (a of at
    # least 4 parts, b of at least 2), as (2, 1, 1, 1) | (3, 1) does.  In
    # corpus order no pair is in a memo before its own product, since every
    # subproblem weighs less; heaviest first, many are
    @pytest.mark.parametrize("bounds, joins", [((12, 5), False), ((12, 6), True)],
                             ids=["12-5", "12-6"])
    @pytest.mark.parametrize("order", [1, -1], ids=["corpus-order", "heaviest-first"])
    def test_shared_memos_give_fresh_relations(self, bounds, joins, order):
        # one build's memos and text cache, shared by every pair, and each
        # pair built twice in a row: a dict merged into while a memo holds
        # it would change a later relation
        pairs = [make.args for _, gen, _, make in corpus_relations(*bounds)
                 if gen == "doubleshuffle"]
        assert any(len(a) >= 4 and len(b) >= 2 for a, b in pairs) == joins
        stuffle_memo, shuffle_memo, texts = {}, {}, {}
        for a, b in pairs[::order]:
            fresh = double_shuffle_relation(a, b)
            for _ in range(2):
                rel = double_shuffle_relation(a, b, stuffle_memo, shuffle_memo)
                assert rel == fresh, (a, b)
                assert rel.json_text(texts) == fresh.json_text(), (a, b)
                assert (a, b) not in stuffle_memo and (a, b) not in shuffle_memo

    def test_shared_memos_keep_no_top_level_product(self):
        # a memo may hold a pair another product needed, but never the
        # dict a top-level call handed back: that is the caller's to change
        pairs = [make.args for _, gen, _, make in corpus_relations(12, 6)
                 if gen == "doubleshuffle"]
        stuffle_memo, shuffle_memo = {}, {}
        products = []
        for a, b in pairs[::-1]:
            products.append(stuffle(a, b, stuffle_memo))
            products.append(shuffle_zeta(a, b, shuffle_memo))
            assert (a, b) not in stuffle_memo and (a, b) not in shuffle_memo
        returned = {id(p) for p in products}
        for memo in (stuffle_memo, shuffle_memo):
            assert memo and not returned & {id(v) for v in memo.values()}

    def test_stuffle_terms_cancel(self):
        # compositions appearing in both expansions partially cancel
        r = double_shuffle_relation((2,), (2,))
        assert (((2, 2),)) not in dict(r.terms)

    @pytest.mark.parametrize("a, b, error, message", [
        ((1, 2), (2,), InadmissibleError, "composition (1, 2) is divergent (first part < 2)"),
        ((2,), (1, 3), InadmissibleError, "composition (1, 3) is divergent (first part < 2)"),
        ((2, 0), (2,), ValueError, "not a composition: (2, 0)"),
        ((2,), (), ValueError, "not a composition: ()"),
        # a is checked before b
        ((1,), (0,), InadmissibleError, "composition (1,) is divergent (first part < 2)"),
    ], ids=["a-inadmissible", "b-inadmissible", "a-not-composition",
            "b-not-composition", "a-first"])
    def test_pair_errors(self, a, b, error, message):
        with pytest.raises(ValueError) as info:
            double_shuffle_relation(a, b, {}, {})
        assert (type(info.value), str(info.value)) == (error, message)


def expand_monomial(mono):
    """Stuffle-expand a product of zeta symbols into single symbols."""
    combo = {mono[0]: 1}
    for comp in mono[1:]:
        out = {}
        for a, ca in combo.items():
            for c, cc in stuffle(a, comp).items():
                out[c] = out.get(c, 0) + ca * cc
        combo = {c: v for c, v in out.items() if v}
    return combo


def stuffle_residue(relation):
    total = {}
    for mono, coef in relation.terms:
        for c, v in expand_monomial(mono).items():
            total[c] = total.get(c, 0) + coef * v
    return {c: v for c, v in total.items() if v}


class TestHoffman:
    def test_n2_verbatim(self):
        # zeta(a,b) + zeta(b,a) = zeta(a) zeta(b) - zeta(a+b)
        r = hoffman_partition_relation((2, 3))
        assert r.as_dict() == {
            ((2, 3),): Fraction(1),
            ((3, 2),): Fraction(1),
            ((2,), (3,)): Fraction(-1),
            ((5,),): Fraction(1),
        }

    def test_equal_exponents_collapse(self):
        r = hoffman_partition_relation((2, 2))
        assert r.as_dict() == {
            ((2, 2),): Fraction(2),
            ((2,), (2,)): Fraction(-1),
            ((4,),): Fraction(1),
        }

    @pytest.mark.parametrize("s", [(2, 3), (2, 2, 2), (2, 3, 4), (2, 2, 3, 3)])
    def test_vanishes_under_stuffle_expansion(self, s):
        assert stuffle_residue(hoffman_partition_relation(s)) == {}

    def test_refuses_divergent_exponents(self):
        with pytest.raises(InadmissibleError):
            hoffman_partition_relation((1, 2))


class TestSpitzerZeta:
    def test_order_two(self):
        # zeta(k,k) = 1/2 zeta(k)^2 - 1/2 zeta(2k)
        r = spitzer_zeta_relation(2, 2)
        assert r.as_dict() == {
            ((2, 2),): Fraction(1),
            ((2,), (2,)): Fraction(-1, 2),
            ((4,),): Fraction(1, 2),
        }

    def test_order_three(self):
        r = spitzer_zeta_relation(3, 3)
        assert r.as_dict() == {
            ((3, 3, 3),): Fraction(1),
            ((3,), (3,), (3,)): Fraction(-1, 6),
            ((3,), (6,)): Fraction(1, 2),
            ((9,),): Fraction(-1, 3),
        }

    @pytest.mark.parametrize(
        "k,order", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (2, 6), (4, 1)]
    )
    def test_vanishes_under_stuffle_expansion(self, k, order):
        assert stuffle_residue(spitzer_zeta_relation(k, order)) == {}

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            spitzer_zeta_relation(1, 2)
        with pytest.raises(ValueError):
            spitzer_zeta_relation(2, 7)

    def test_corpus_lists_only_orders_the_generator_takes(self):
        # depth 7 would allow order 7, which the generator refuses
        spitzer = [r for r in corpus_relations(14, 7) if r[1] == "spitzer"]
        assert max(make.args[1] for *_, make in spitzer) == 6
        for *_, make in spitzer:
            make()


def _power(rel: dict) -> dict:
    return {tuple(t["comp"]): int(t["coef"]) for t in rel["power"]}


class TestCongruenceZeta:
    def test_zeta2_cubed_mod_three(self):
        rel = congruence_zeta_relation((2,), 3)
        assert _power(rel) == {(2, 2, 2): 6, (4, 2): 3, (2, 4): 3, (6,): 1}
        assert rel["target"] == [6]
        assert rel["holds"] is True

    def test_zeta2_squared_mod_two(self):
        rel = congruence_zeta_relation((2,), 2)
        assert _power(rel) == {(2, 2): 2, (4,): 1}
        assert rel["holds"] is True

    @pytest.mark.parametrize("s,p", [((2,), 5), ((3,), 3), ((2, 3), 2), ((2, 1), 3)])
    def test_holds_broadly(self, s, p):
        if not is_admissible(s):
            with pytest.raises(InadmissibleError):
                congruence_zeta_relation(s, p)
            return
        assert congruence_zeta_relation(s, p)["holds"] is True

    def test_power_is_the_stuffle_power(self):
        # every (s, p) of the largest benchmark corpus build (weight 12, depth 5)
        cases = [
            (s, p)
            for s in _admissible_compositions(12, 5)
            for p in (2, 3)
            if p * weight(s) <= 12
        ]
        assert len(cases) == 38
        for s, p in cases:
            rel = congruence_zeta_relation(s, p)
            assert _power(rel) == expand_monomial((s,) * p), (s, p)

    def test_json_has_verdict(self):
        data = congruence_zeta_relation((2,), 2)
        assert data["holds"] is True
        assert data["modulus"] == 2
        assert data["source"] == "congruence(2,p=2)"

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            congruence_zeta_relation((2,), 4)

    def test_tampered_power_fails(self, monkeypatch):
        # the verdict is read off the power the relation is built from
        monkeypatch.setattr(mzv_calculus, "freshman_power",
                            lambda s, p: {(2, 2): 3, (4,): 1})
        bad = congruence_zeta_relation((2,), 2)
        assert bad["power"] == [{"coef": "3", "comp": [2, 2]},
                                {"coef": "1", "comp": [4]}]
        assert bad["holds"] is False
