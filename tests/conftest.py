import random

import pytest

from rbmzv.compositions import require_admissible
from rbmzv.letters import COMPOSITION, LetterSystem
from rbmzv.tensor_algebra import ShaAlgebra, ShaElement


# --- the word encoding of zeta values: the reference for shuffle_zeta ---

X0 = 0  # dt/t
X1 = 1  # dt/(1-t)


def _zero_product(x, y):
    return []


#: the two-letter alphabet of the iterated integrals; its product is zero
WORD = LetterSystem("word", _zero_product, "x{}")


def comp_to_word(c):
    """s_j -> x0^(s_j - 1) x1, concatenated over the parts."""
    require_admissible(c)
    out = []
    for s in c:
        out.extend([X0] * (s - 1))
        out.append(X1)
    return tuple(out)


def word_to_comp(w):
    if not w or w[0] != X0 or w[-1] != X1:
        raise ValueError(f"word {w!r} is not admissible (x0...x1)")
    parts = []
    run = 0
    for x in w:
        if x == X0:
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


def random_sha_element(alg, rng, max_terms=3, max_payload=4, max_tail=2):
    """Small random element of Sha over composition-style letters."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        head = rng.choice([None, rng.randint(1, max_payload)])
        tail = tuple(
            rng.randint(1, max_payload) for _ in range(rng.randint(0, max_tail))
        )
        w = (head,) + tail
        terms[w] = terms.get(w, 0) + rng.randint(-3, 3)
    return ShaElement(alg, {w: c for w, c in terms.items() if c})


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def sha_weight1():
    return ShaAlgebra(COMPOSITION, 1)
