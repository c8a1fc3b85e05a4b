"""Concrete letter algebras: composition letters, monomial letters,
q-letters and the binary word letters of the iterated-integral encoding.

A letter is a hashable payload; a system supplies the (commutative,
associative) letter product and text rendering.
The product returns a list of (coefficient, payload) pairs, empty for the
zero product.
"""

from __future__ import annotations

from .coefficients import ONE_MINUS_Q


class LetterSystem:
    name: str = "abstract"
    zero_product: bool = False

    def product(self, x, y):
        raise NotImplementedError

    def letter_str(self, payload) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<letter system {self.name}>"


class CompositionLetters(LetterSystem):
    """Exponents s >= 1 of the power functions 1/x^s; product adds exponents."""

    name = "composition"

    def product(self, x, y):
        return [(1, x + y)]

    def letter_str(self, payload):
        return str(payload)


class MonomialLetters(CompositionLetters):
    """Monomials a^i of a polynomial ring in one variable: the composition
    letters' product, rendered as powers of a."""

    name = "monomial"

    def letter_str(self, payload):
        return f"a^{payload}"


class QLetters(LetterSystem):
    """q-analog letters with product q_s * q_t = q_{s+t} + (1-q) q_{s+t-1}."""

    name = "q"

    def product(self, x, y):
        return [(1, x + y), (ONE_MINUS_Q, x + y - 1)]

    def letter_str(self, payload):
        return f"q[{payload}]"


# word-letter payloads
X0 = 0  # dt/t
X1 = 1  # dt/(1-t)


class WordLetters(LetterSystem):
    """Two-letter alphabet of the iterated-integral encoding, zero product."""

    name = "word"
    zero_product = True

    def product(self, x, y):
        return []

    def letter_str(self, payload):
        return "x0" if payload == X0 else "x1"


COMPOSITION = CompositionLetters()
MONOMIAL = MonomialLetters()
QLETTERS = QLetters()
WORD = WordLetters()
