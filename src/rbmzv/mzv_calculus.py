"""The stuffle and shuffle products on zeta symbols, and the relation
generators (double shuffle, Hoffman partition, Spitzer, congruence).

The stuffle is the weight-1 mixable shuffle of composition letters.  The
shuffle comes from the iterated-integral representation, where zeta(s) is
the word x0^(s1-1) x1 ... x0^(sn-1) x1 in the letters x0 = dt/t and
x1 = dt/(1-t); it is the shuffle of those words (Hoffman, J. Algebra 194,
1997), computed on the compositions themselves, one part at a time.

Compositions and the admissibility rule live in ``compositions``.  A
ZetaCombo is a dict composition -> coefficient.
A Relation is a sum-to-zero combination of monomials, each monomial a
sorted tuple of compositions standing for a product of zeta symbols.
Its coefficients are exact: an integral one is an ``int`` and any other a
``Fraction`` (only Spitzer's 1/order! makes one).  ``Relation.json_text``
is a relation's one JSON form; ``cli.canonical_json`` renders a relation
through it.

The Hoffman and Spitzer relations share one sum, the Bohnenblust-Spitzer
formula over the set partitions of the exponent positions:

    sum_sigma zeta(s_sigma) = sum_pi w(pi) prod_{B in pi} zeta(sum_{i in B} s_i),
    w(pi) = (-1)^(n - #blocks) prod_B (|B| - 1)!.

For equal exponents (k, ..., k) the left side is n! zeta(k, ..., k), so
Spitzer's relation is the partition sum divided by n!.  The congruence
generator takes zeta(s)^p from ``identity_engine.freshman_power``, the
p-th Sha power of 1 (x) s, which for composition letters is the stuffle
power; it keeps the integer power, not the F_p one ``congruence_check``
takes, because the relation prints every word of the power with its
integer coefficient.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring

from .coefficients import PolyQ
from .compositions import (Composition, InadmissibleError, check_composition,
                           composition_str, require_admissible)
from .identity_engine import (_check_range, _mod_p_failure, _signed_set_partitions,
                              freshman_power)
from .letters import COMPOSITION, QLETTERS, LetterSystem
from .tensor_algebra import _prepend, mixable_shuffle

ZetaCombo = dict  # Composition -> coefficient
Monomial = tuple  # sorted tuple of Compositions

#: the largest order ``spitzer_zeta_relation`` takes
MAX_SPITZER_ORDER = 6


def stuffle(a: Composition, b: Composition, memo=None) -> ZetaCombo:
    """Quasi-shuffle (weight-1 mixable shuffle) of compositions; ``memo``, a
    stuffle memo shared by many calls, is ``mixable_shuffle``'s."""
    check_composition(a)
    check_composition(b)
    return mixable_shuffle(COMPOSITION, a, b, 1, memo)


def _count_paths(x, y):
    """The q-letter product with every coefficient 1."""
    return [(1, p) for _, p in QLETTERS.product(x, y)]


#: the q-letters whose products count paths, for ``q_stuffle``
_Q_PATHS = LetterSystem("q paths", _count_paths, QLETTERS.fmt)


def q_stuffle(a: Composition, b: Composition) -> ZetaCombo:
    """Stuffle over q-letters; coefficients are polynomials in q.

    The q-letter product is q_s q_t = q_{s+t} + (1-q) q_{s+t-1} (Bradley,
    Multiple q-zeta values, J. Algebra 283, 2005).  Each (1-q) branch
    lowers the weight by exactly 1, so every path to an output word w
    carries (1-q)^e with e = wt(a) + wt(b) - wt(w), and w's coefficient is
    its number of paths times that power.  So the kernel counts the paths
    in ints, over the same letters with every coefficient 1, and each word
    then gets its power once: an int where e = 0, and otherwise one
    ``PolyQ`` per distinct (e, count), which the words that have it share.
    No count is zero, so no word is deleted and re-added: the keys, their
    order and the coefficients are those of
    ``mixable_shuffle(QLETTERS, a, b, 1)``.
    """
    check_composition(a)
    check_composition(b)
    wt = sum(a) + sum(b)
    coeffs: dict = {}  # (e, count) -> count * (1-q)^e
    out = mixable_shuffle(_Q_PATHS, a, b, 1)
    for w, n in out.items():
        e = wt - sum(w)
        if e:
            c = coeffs.get((e, n))
            if c is None:
                c = coeffs[e, n] = PolyQ(
                    [(-1) ** k * n * math.comb(e, k) for k in range(e + 1)])
            out[w] = c
    return out


def shuffle_zeta(a: Composition, b: Composition, memo=None) -> ZetaCombo:
    """Shuffle product of zeta(a) and zeta(b), from their iterated integrals.

    It is the shuffle of the words x0^(s1-1) x1 ... x0^(sn-1) x1, run on
    compositions part by part (``_shuffle_parts``).  ``memo`` is that
    recursion's; by default the call makes its own.  A memo shared by
    several calls keeps their subproblems but not the pair (a, b) itself,
    so the returned dict is the caller's to change.
    """
    require_admissible(a)
    require_admissible(b)
    a, b = tuple(a), tuple(b)
    if memo is None:
        memo = {}
    out = _shuffle_parts(a, b, memo)
    memo.pop((a, b), None)
    return out


def _shuffle_parts(a, b, memo):
    """The word shuffle of compositions, grouped by whose x1 comes first.

    With a = x0^p x1 U and b = x0^q x1 V (p = a1 - 1, q = b1 - 1), the first
    x1 is a's with k <= q of b's leading x0s before it, in C(p+k, k)
    interleavings, or symmetrically b's:

        sha(a, b) = sum_{k<b1} C(p+k, k) (a1+k) . sha(U, (b1-k,) + V)
                  + sum_{k<a1} C(q+k, k) (b1+k) . sha((a1-k,) + U, V),

    where (h) . S puts the part h in front of every composition of S, and
    sha(a, ()) = a, sha((), b) = b.  ``memo`` maps a pair of what is left of
    a and b (suffixes whose first part may be cut down) to its result; it
    serves only this shuffle, for one top-level product or, shared, for
    many (``shuffle_zeta``).
    """
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    get = out.get
    a0, arest = a[0], a[1:]
    b0, brest = b[0], b[1:]
    # the heads a0 + k are distinct, so this first sum only inserts
    for k in range(b0):
        coef = math.comb(a0 - 1 + k, k)
        head = (a0 + k,)
        for w, c in _shuffle_parts(arest, (b0 - k,) + brest, memo).items():
            out[head + w] = coef * c
    for k in range(a0):
        coef = math.comb(b0 - 1 + k, k)
        head = (b0 + k,)
        for w, c in _shuffle_parts((a0 - k,) + arest, brest, memo).items():
            nw = head + w
            v = get(nw)
            out[nw] = coef * c if v is None else v + coef * c
    memo[key] = out
    return out


def _exact(c):
    """The coefficient rule: an integral ``c`` as ``int``, any other as
    ``Fraction``; ``str`` and ``float`` of the two agree on equal values."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class Relation:
    """A combination of zeta monomials asserted to sum to zero.

    Each coefficient is an ``int`` when integral and a ``Fraction``
    otherwise (``_exact``).  ``json_text`` is the relation's one JSON form.
    """

    terms: tuple  # ((Monomial, int | Fraction), ...) in canonical order
    source: str

    @classmethod
    def from_dict(cls, terms: dict, source: str) -> "Relation":
        items = tuple(
            (m, _exact(c)) for m, c in sorted(terms.items()) if c
        )
        return cls(items, source)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def json_text(self, texts=None) -> str:
        """``{"source": ..., "terms": [{"coef": ..., "monomial": ...}, ...]}``
        with ``cli.canonical_json``'s sorted keys and separators.

        ``texts`` maps a monomial to its JSON text; by default the call
        makes its own, and a corpus build shares one across its relations,
        whose monomials repeat."""
        if texts is None:
            texts = {}
        parts = []
        for m, c in self.terms:
            text = texts.get(m)
            if text is None:
                # str of a list of int lists is its JSON text, with ", " separators
                text = texts[m] = str([list(comp) for comp in m])
            parts.append(f'{{"coef": "{c!s}", "monomial": {text}}}')
        terms = ", ".join(parts)
        return f'{{"source": {encode_basestring(self.source)}, "terms": [{terms}]}}'

    @classmethod
    def from_json(cls, data: dict) -> "Relation":
        terms = {
            tuple(tuple(c) for c in t["monomial"]): Fraction(t["coef"])
            for t in data["terms"]
        }
        return cls.from_dict(terms, data["source"])


def _mono(*comps) -> Monomial:
    return tuple(sorted(comps))


def double_shuffle_relation(a: Composition, b: Composition,
                            stuffle_memo=None, shuffle_memo=None) -> Relation:
    """stuffle(a, b) - shuffle(a, b) = 0, in single zeta symbols.

    ``stuffle_memo`` and ``shuffle_memo`` go to ``stuffle`` and
    ``shuffle_zeta``; a corpus build passes one of each to all its pairs.
    """
    shuffle = shuffle_zeta(a, b, shuffle_memo)  # requires a, then b, admissible
    # the caller's own dict, since no memo keeps a top-level product
    terms = stuffle(a, b, stuffle_memo)
    _prepend(terms, (), shuffle, -1)
    # both products count paths, so every coefficient is already an int
    return Relation(
        tuple([((c,), v) for c, v in sorted(terms.items())]),
        f"double_shuffle({composition_str(a)}|{composition_str(b)})",
    )


def _add_partition_sum(terms: dict, s: tuple, scale):
    """Add scale * sum_pi w(pi) prod_B zeta(sum_{i in B} s_i) into terms."""
    for coef, blocks in _signed_set_partitions(len(s)):
        mono = _mono(*((sum(s[i - 1] for i in block),) for block in blocks))
        terms[mono] = terms.get(mono, 0) + scale * coef


def hoffman_partition_relation(s: tuple) -> Relation:
    """Permutation sum of zeta(s_sigma) vs the signed partition sum."""
    if not 2 <= len(s) <= 5:
        raise ValueError("need 2..5 exponents")
    if any(p < 2 for p in s):
        raise InadmissibleError("all exponents must be >= 2")
    terms = Counter(map(_mono, itertools.permutations(s)))
    _add_partition_sum(terms, s, -1)
    return Relation.from_dict(
        terms, f"hoffman({','.join(str(p) for p in s)})"
    )


def spitzer_zeta_relation(k: int, order: int) -> Relation:
    """zeta(k,...,k) (order copies) as a polynomial in zeta(k)..zeta(order*k).

    The Bohnenblust-Spitzer sum of (k,)*order divided by order!: all
    order! permutations of equal exponents give the same zeta(k,...,k).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _check_range("order", order, 1, MAX_SPITZER_ORDER)
    terms: dict = {_mono((k,) * order): 1}
    _add_partition_sum(terms, (k,) * order, Fraction(-1, math.factorial(order)))
    return Relation.from_dict(terms, f"spitzer(k={k},order={order})")


def congruence_zeta_relation(s: Composition, p: int) -> dict:
    """zeta(s)^p = zeta(p*s1,...,p*sn) mod p, expanded through the stuffle,
    as its JSON dict; ``holds`` says whether the power is the target mod p."""
    require_admissible(s)
    power = freshman_power(s, p)
    target = tuple(p * part for part in s)
    return {
        "source": f"congruence({composition_str(s)},p={p})",
        "modulus": p,
        "target": list(target),
        "power": [{"coef": str(c), "comp": list(m)} for m, c in sorted(power.items())],
        "holds": _mod_p_failure(power, target, p) is None,
    }
