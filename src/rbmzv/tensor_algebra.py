"""Tensor words, the mixable shuffle and the free commutative Rota-Baxter
algebra Sha(A) with its shift operator.

Words are tuples of letter payloads (see ``letters``).  Linear
combinations of words are plain dicts word -> coefficient with zero
coefficients dropped; the empty word () stands for the ring unit of the
unitarized word algebra.  An element of Sha(A) (``ShaElement``) is such a
dict whose words' first letter is the A-factor; there the payload ``None``
is the unit letter of the unitarization of A.

Hoffman's quasi-shuffle is the weight-1 mixable shuffle,
``mixable_shuffle(system, a, b, 1)``.  The mixable shuffle and the Sha(A)
product share one recursion, ``_msh``.  Its memo is created by each
top-level product and lives only for that product, so it is keyed on the
suffix pair alone and can never return a result computed for another
letter system or weight.  ``mixable_shuffle`` of a word a of at least 4
letters by a word b of at least 2 does not run ``_msh`` on the whole pair:
it cuts a in the middle and joins the two halves' products, both from
``_msh`` with one memo, so that it builds about one word tuple per
output word rather than one per word of every subproblem (measured in its
docstring; below that size the join gains little or loses); its prefix
side is one step of the same recursion on reversed words.
``ShaElement.__mul__`` calls ``_msh`` directly, since its tails are short
and share one memo.  The p-th power of one pure tensor over composition
letters, behind the Freshman's-Dream congruence, is
``identity_engine.freshman_power``.  ``_msh``, the join, ``freshman_power``
and Sha(A)'s P, +, - and product build their terms through ``_prepend``,
which holds the join's unit rule and drops zeros as it adds.
"""

from __future__ import annotations

from .letters import LetterSystem

Word = tuple
LinComb = dict  # Word -> coefficient


def _prepend(out: dict, head: Word, combo: LinComb, coef=1):
    """Add coef * (head + w) into ``out`` for every term c * w of ``combo``,
    deleting a word whose coefficient sums to zero.  An int ``coef`` of 1
    multiplies nothing, since ``1 * PolyQ`` is slow."""
    unit = type(coef) is int and coef == 1
    get = out.get
    for w, c in combo.items():
        nw = head + w
        if not unit:
            c = coef * c
        v = get(nw)
        if v is not None:
            c = v + c
            if not c:
                del out[nw]
                continue
        out[nw] = c


def _unit_product(system: LetterSystem, x, y):
    """Letter product in the unitarization k + A (None is the unit)."""
    if x is None:
        return [(1, y)]
    if y is None:
        return [(1, x)]
    return system.product(x, y)


def mixable_shuffle(system: LetterSystem, a: Word, b: Word, weight=1) -> LinComb:
    """Mixable shuffle of weight ``weight``, joined from two halves of a.

    Cut a at c = len(a) // 2.  A path through the grid of the four-case
    recursion enters column c exactly once: by taking a[c-1] alone after
    consuming b[:j], or by merging it with b[j-1].  So the product is the
    sum over j = 0..len(b) of prefix * suffix, where the prefixes are the
    words of a[:c] ш b[:j] whose last letter uses a[c-1], and the suffixes
    are the words of a[c:] ш b[j:].  Both sides come from ``_msh`` with
    one memo: the prefixes reversed, as one step of the recursion on the
    reversed words, so that their subproblems are suffix pairs too, each
    prefix reversed once (``_prepend``'s unit rule spares ``PolyQ``
    coefficients, as at weight 1 - q, their products by 1).  The join
    builds about one tuple per output word, where the plain recursion
    builds one per word of every memoized subproblem: a 7x7 stuffle on the
    benchmark's parts makes about 50,000 tuples instead of about 115,000.

    The join runs when a has at least 4 letters and b at least 2.  Measured
    as plain / join time of the stuffle and the q-stuffle of
    (1, 2, 3, 4, 6, 8, 9)[:m] by (1, 2, 4, 5, 6, 7, 9)[:n], best of 10
    timeit runs on a 2-CPU Xeon with Python 3.11.7:

    - below the rule: 0.75 and 0.95 at 2x2, 1.00 and 0.99 at 3x3, 0.83
      and 0.86 at 4x1, 1.05 and 1.09 at 6x1, 1.36 and 1.07 at 3x4
    - above it: 1.14 and 1.27 at 4x2, 1.31 and 1.54 at 4x3, 1.57 and 1.78
      at 4x4, 1.88 and 1.89 at 5x5, 3.21 and 3.25 at 6x6, 3.65 and 2.55
      at 7x7
    """
    a, b = tuple(a), tuple(b)
    if len(a) < 4 or len(b) < 2:
        return _msh(system, a, b, weight, {})
    c, n = len(a) // 2, len(b)
    last, head, tail = a[c - 1], a[:c - 1][::-1], a[c:]
    rb = b[::-1]  # rb[n - j:] is b[:j] reversed
    memo: dict = {}
    out: dict = {}
    for j in range(n + 1):
        pre: dict = {}  # the prefixes, reversed
        _prepend(pre, (last,), _msh(system, head, rb[n - j:], weight, memo))
        if weight and j:
            sub = _msh(system, head, rb[n - j + 1:], weight, memo)
            for pc, p in _unit_product(system, last, b[j - 1]):
                _prepend(pre, (p,), sub, weight * pc)
        suf = _msh(system, tail, b[j:], weight, memo)
        for pw, cp in pre.items():
            _prepend(out, pw[::-1], suf, cp)
    return out


def _msh(system, a, b, lam, memo):
    """Four-case recursion; ``memo`` maps a suffix pair (a, b) to its result."""
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    a0, arest = a[0], a[1:]
    b0, brest = b[0], b[1:]
    _prepend(out, (a0,), _msh(system, arest, b, lam, memo))
    _prepend(out, (b0,), _msh(system, a, brest, lam, memo))
    if lam:
        merged = _unit_product(system, a0, b0)
        if merged:
            tail = _msh(system, arest, brest, lam, memo)
            for pc, p in merged:
                _prepend(out, (p,), tail, lam * pc)
    memo[key] = out
    return out


def render_word(system: LetterSystem, w: Word) -> str:
    if not w:
        return "1"
    return "⊗".join(
        "1" if x is None else system.letter_str(x) for x in w
    )


class ShaAlgebra:
    """Sha(A) = A x (k + Sha+(A)) with the shift operator P(x) = 1 (x) x.

    An element maps each pure tensor a0 (x) a1 (x) ... (x) an, stored as the
    word (a0, a1, ..., an), to its coefficient: the head a0 is a letter
    payload or None (the unit of the unitarized letter algebra), and the tail
    letters may include None.  P, +, - and x build through ``_prepend``.
    """

    def __init__(self, system: LetterSystem, weight=1):
        self.system = system
        self.weight = weight

    def zero(self) -> "ShaElement":
        return ShaElement(self, {})

    def one(self) -> "ShaElement":
        return ShaElement(self, {(None,): 1})

    def j(self, payload) -> "ShaElement":
        """The embedding A -> Sha(A), a -> a (x) 1."""
        return ShaElement(self, {(payload,): 1})

    def pure(self, head, tail) -> "ShaElement":
        return ShaElement(self, {(head,) + tuple(tail): 1})

    def p(self, x: "ShaElement") -> "ShaElement":
        """Shift operator P(head (x) tail) = 1 (x) head (x) tail."""
        if x.alg is not self:
            raise ValueError("element from a different algebra")
        out: dict = {}
        _prepend(out, (None,), x.terms)
        return ShaElement(self, out)

    def star(self, u: "ShaElement", v: "ShaElement") -> "ShaElement":
        """u * P(v) + P(u) * v + lambda u * v; satisfies P(u)P(v) = P(u * v)."""
        w = u * self.p(v) + self.p(u) * v
        if self.weight:
            prod = u * v
            if self.weight != 1:
                prod = self.weight * prod
            w = w + prod
        return w

    def nested_p(self, payloads) -> "ShaElement":
        """P(a1 P(a2 ... P(an))) for a sequence of letter payloads."""
        payloads = list(payloads)
        if not payloads:
            raise ValueError("need at least one letter")
        acc = self.p(self.j(payloads[-1]))
        for x in reversed(payloads[:-1]):
            acc = self.p(self.j(x) * acc)
        return acc


class ShaElement:
    __slots__ = ("alg", "terms")

    def __init__(self, alg: ShaAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, ShaElement) or other.alg is not self.alg:
            raise ValueError("elements from different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _prepend(out, (), other.terms)
        return ShaElement(self.alg, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        _prepend(out, (), other.terms, -1)
        return ShaElement(self.alg, out)

    def __rmul__(self, scalar):
        if isinstance(scalar, ShaElement):
            return NotImplemented
        if not scalar:
            return ShaElement(self.alg, {})
        return ShaElement(
            self.alg, {k: scalar * c for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        """(a0 (x) U)(b0 (x) V) = a0 b0 (x) (U ш V); the tails share a memo."""
        if not isinstance(other, ShaElement):
            return self.__rmul__(other)
        self._check(other)
        alg = self.alg
        system, lam = alg.system, alg.weight
        out: dict = {}
        memo: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                heads = _unit_product(system, w1[0], w2[0])
                if not heads:
                    continue
                c = c1 * c2
                tails = _msh(system, w1[1:], w2[1:], lam, memo)
                for hc, h in heads:
                    _prepend(out, (h,), tails, c * hc)
        return ShaElement(alg, out)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, ShaElement):
            return self.alg is other.alg and self.terms == other.terms
        if not other:
            return not self.terms
        return NotImplemented

    def sort_key(self, w):
        def lk(x):
            return (0,) if x is None else (1, x)

        return (lk(w[0]), len(w), tuple(map(lk, w[1:])))

    def __str__(self):
        system = self.alg.system
        return " + ".join(
            f"{self.terms[w]}*{render_word(system, w)}"
            for w in sorted(self.terms, key=self.sort_key)
        ) or "0"

    def __repr__(self):
        return f"ShaElement({self})"
