import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from rbmzv.coefficients import ONE_MINUS_Q, PolyQ
from rbmzv.letters import COMPOSITION, MONOMIAL, QLETTERS
from rbmzv.tensor_algebra import mixable_shuffle

from conftest import WORD, X0, X1


def combo_from_product(system, x, y):
    return {p: c for c, p in system.product(x, y)}


def product_on_combo(system, combo, letter):
    out = {}
    for p, c in combo.items():
        for pc, np_ in system.product(p, letter):
            out[np_] = out.get(np_, 0) + c * pc
    return {p: c for p, c in out.items() if c}


class TestCompositionLetters:
    def test_product_adds_exponents(self):
        assert COMPOSITION.product(2, 3) == [(1, 5)]


class TestQLetters:
    def test_product_relation(self):
        assert QLETTERS.product(2, 3) == [(1, 5), (ONE_MINUS_Q, 4)]

    def test_specializes_to_composition_at_q_one(self):
        # the (1-q) term vanishes at q = 1
        for s, t in itertools.product(range(1, 7), repeat=2):
            spec = {}
            for c, p in QLETTERS.product(s, t):
                val = c.evaluate(1) if isinstance(c, PolyQ) else Fraction(c)
                if val:
                    spec[p] = spec.get(p, 0) + val
            assert spec == {s + t: 1}

    def test_associativity(self):
        for s, t, u in itertools.product(range(1, 7), repeat=3):
            left = product_on_combo(QLETTERS, combo_from_product(QLETTERS, s, t), u)
            right = product_on_combo(QLETTERS, combo_from_product(QLETTERS, t, u), s)
            assert left == right

    def test_commutativity(self):
        for s, t in itertools.product(range(1, 7), repeat=2):
            assert combo_from_product(QLETTERS, s, t) == combo_from_product(
                QLETTERS, t, s
            )


class TestWordLetters:
    def test_zero_product(self):
        assert WORD.product(X0, X1) == []

    def test_str(self):
        assert WORD.letter_str(X0) == "x0"
        assert WORD.letter_str(X1) == "x1"


class TestMonomialLetters:
    def test_product_and_degree(self):
        assert MONOMIAL.product(2, 5) == [(1, 7)]
        assert MONOMIAL.letter_str(2) == "a^2"


ALL_SYSTEMS = [COMPOSITION, MONOMIAL, QLETTERS, WORD]
SYSTEM_IDS = [s.name for s in ALL_SYSTEMS]


class TestLetterSystemValues:
    def test_letter_str(self):
        assert COMPOSITION.letter_str(3) == "3"
        assert QLETTERS.letter_str(3) == "q[3]"

    @pytest.mark.parametrize("system", ALL_SYSTEMS, ids=SYSTEM_IDS)
    @pytest.mark.parametrize("round_trip", [
        lambda v: pickle.loads(pickle.dumps(v)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_the_product(self, system, round_trip):
        out = round_trip(system)
        assert out.name == system.name
        assert out.product(2, 3) == system.product(2, 3)
        assert out.letter_str(1) == system.letter_str(1)
        assert (mixable_shuffle(out, (1, 2), (3,), 1)
                == mixable_shuffle(system, (1, 2), (3,), 1))
