"""Letter systems: the commutative algebra A under Sha(A).

Each system is one ``LetterSystem`` value: a name, a letter product and a
rendering.  A letter is a hashable payload; the (commutative, associative)
product of two letters is a list of (coefficient, payload) pairs, empty
for the zero product.  The three systems are the composition letters
(exponents s >= 1 of the power functions 1/x^s; the product adds
exponents), the monomials a^i of a polynomial ring in one variable (the
same product, rendered as powers of a) and the q-letters (q_s * q_t =
q_{s+t} + (1-q) q_{s+t-1}).  A system whose product is zero (empty lists)
merges no letters, so its mixable shuffle is the plain shuffle at any
weight.  The products are module-level functions, so the systems pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coefficients import ONE_MINUS_Q


@dataclass(frozen=True)
class LetterSystem:
    name: str
    product: Callable  # (x, y) -> [(coefficient, payload), ...]
    fmt: str  # str.format pattern of one letter

    def letter_str(self, payload) -> str:
        return self.fmt.format(payload)

    def __repr__(self):
        return f"<letter system {self.name}>"


def _add_exponents(x, y):
    return [(1, x + y)]


def _q_product(x, y):
    return [(1, x + y), (ONE_MINUS_Q, x + y - 1)]


COMPOSITION = LetterSystem("composition", _add_exponents, "{}")
MONOMIAL = LetterSystem("monomial", _add_exponents, "a^{}")
QLETTERS = LetterSystem("q", _q_product, "q[{}]")
