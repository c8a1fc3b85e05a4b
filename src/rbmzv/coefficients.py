"""Exact coefficient tower: rationals, polynomials and rational functions
in a formal parameter q, and exp and log of truncated power series.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced).
There is one dense polynomial type, ``DensePoly``, generic over its
coefficient ring: ``PolyQ`` is its instance over the rationals, and
``operator_gallery.XPoly`` its instance over ``RatFuncQ``.  A ``PolyQ`` is
stored as one rational content times a primitive integer polynomial with a
positive leading coefficient, so its arithmetic runs on Python ints: a
product is one ``Fraction`` product and an integer convolution (by Gauss's
lemma a product of primitive polynomials is primitive), and a sum takes one
integer gcd.  ``poly_gcd`` is the primitive polynomial remainder sequence
over Z (Collins, JACM 14, 1967; Brown and Traub, JACM 18, 1971), made monic
once at the end.  Rational functions are kept in canonical form (coprime,
monic denominator) so equality is a tuple comparison; they add, negate
and multiply, but neither subtract nor divide.  The constructor reduces
its input by one gcd of the whole numerator and denominator; a sum or
product of two canonical operands instead takes Henrici's gcds of their
parts (JACM 3, 1956; Knuth, TAOCP Vol. 2, 4.5.1), which are smaller and
for coprime denominators end the work, and a constant or zero operand
takes none.  The canonical form is unique, so both give the same result.

A truncated power series is a plain list of its coefficients, of order
len - 1; ``series_exp`` and ``series_log1p`` work over any coefficient
module whose elements support ``+``, ``*`` and left-multiplication by a
Fraction (``series_exp`` also takes another product, such as the star
product, as a ``mul`` callable), and run by first-order recurrences
(Knuth, TAOCP Vol. 2, 4.7), which need a commutative, associative
product.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable


def _convolve(a, b) -> list:
    """Coefficients of the product of two nonzero dense polynomials."""
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        # the slot starts at its first product, not at zero: that saves
        # one addition per slot (adding onto a zero RatFuncQ returns the
        # other operand and takes no gcd)
        s = a[lo] * b[k - lo]
        for i in range(lo + 1, hi + 1):
            s = s + a[i] * b[k - i]
        out.append(s)
    return out


class DensePoly:
    """Dense polynomial over a coefficient ring, no trailing zeros.

    The arithmetic is written once here; a subclass fixes the ring with
    three class attributes: ``_coeff`` coerces one input to a ring element,
    ``_zero`` is the ring's zero, and ``_scalars`` are the types read as
    constant polynomials.  Only the subclass itself and those scalars are
    accepted as operands, so two polynomial types never read each other's
    coefficients.  A subclass declares the ``coeffs`` slot that holds the
    coefficient tuple; ``PolyQ`` instead derives ``coeffs`` from its own
    representation and overrides the methods that representation changes.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):
        coerce = self._coeff
        cs = [coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # the default copy and pickle paths restore slots by setattr
        return type(self), (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, self._scalars):
            return type(self)((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return type(self)(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return type(self)()
        return type(self)(_convolve(a, b))

    __rmul__ = __mul__

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            # constants hash like their coefficient, so they match scalars
            return hash(self.coeffs[0] if self.coeffs else self._zero)
        return hash(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


def _primitive(ints) -> tuple[int, tuple]:
    """(c, p) with ints = c * p, p primitive with a positive leading
    coefficient and no trailing zeros; (0, ()) for the zero vector."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return 0, ()
    g = math.gcd(*ints[:n])
    if ints[n - 1] < 0:
        g = -g
    return g, tuple(x // g for x in ints[:n])


def _pseudo_divmod(a: tuple, b: tuple) -> tuple[int, list, list]:
    """(s, q, r) with s*a = q*b + r over Z and len(r) = len(b) - 1, for
    integer vectors with a >= b in length and b[-1] > 0.

    s > 0 divides a power of b[-1]: a step scales the remainder only when
    the leading coefficient does not already divide its top term, so an
    exact division over Z (b primitive and dividing a) has s = 1.
    """
    lc, db = b[-1], len(b) - 1
    n = len(a) - db
    r, q, s = list(a), [0] * n, 1
    for k in reversed(range(n)):
        t = r[k + db]
        if not t:
            continue
        if t % lc:
            g = math.gcd(t, lc)
            m = lc // g
            s *= m
            for i in range(k + db):
                r[i] *= m
            for i in range(k + 1, n):
                q[i] *= m
            t = t * m
        q[k] = c = t // lc
        for i in range(db):
            r[k + i] -= c * b[i]
    return s, q, r[:db]


class PolyQ(DensePoly):
    """Dense polynomial in q over the rationals, no trailing zeros.

    Stored as ``content * prim``: ``prim`` is a primitive integer tuple
    with a positive leading coefficient, ``content`` a nonzero Fraction;
    the zero polynomial is ``Fraction(0) * ()``.  This form is unique, so
    equality compares the two parts.  ``coeffs`` gives the rational
    coefficients.  Coefficients must be exact: ``int`` or ``Fraction``.
    """

    __slots__ = ("content", "prim")
    _zero = Fraction(0)
    _scalars = (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        nums, dens = [], []
        for c in coeffs:
            if not isinstance(c, self._scalars):
                raise TypeError(
                    "PolyQ coefficients must be int or Fraction, "
                    f"not {type(c).__name__}")
            nums.append(c.numerator)
            dens.append(c.denominator)
        den = math.lcm(*dens)
        g, p = _primitive([n * (den // d) for n, d in zip(nums, dens)])
        object.__setattr__(self, "content", Fraction(g, den))
        object.__setattr__(self, "prim", p)

    @classmethod
    def _make(cls, content: Fraction, prim: tuple) -> "PolyQ":
        # trusts its arguments to be in the stored form
        out = object.__new__(cls)
        object.__setattr__(out, "content", content)
        object.__setattr__(out, "prim", prim)
        return out

    @classmethod
    def _from_ints(cls, scale: Fraction, ints) -> "PolyQ":
        """The polynomial scale * ints, for an integer vector ints."""
        g, p = _primitive(ints)
        return cls._make(scale * g, p)

    @property
    def coeffs(self) -> tuple:
        c = self.content
        return tuple(c * x for x in self.prim)

    @property
    def degree(self) -> int:
        return len(self.prim) - 1

    def __bool__(self) -> bool:
        return bool(self.prim)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.prim:
            return self
        if not self.prim:
            return o
        # over the lcm of the denominators, with the numerators' gcd out
        a, b = self.content, o.content
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
        g = math.gcd(na, nb)
        den = da // math.gcd(da, db) * db
        fa, fb = na // g * (den // da), nb // g * (den // db)
        pa, pb = self.prim, o.prim
        if len(pa) < len(pb):
            pa, pb, fa, fb = pb, pa, fb, fa
        ints = [fa * x + fb * y for x, y in zip(pa, pb)]
        ints.extend(fa * x for x in pa[len(pb):])
        return self._from_ints(Fraction(g, den), ints)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.content, self.prim)

    def __mul__(self, other):
        # a scalar only rescales the content; int * PolyQ comes from
        # _prepend's coef * c at weight 1 - q and from Sha products over QLETTERS
        if isinstance(other, self._scalars):
            if not other or not self.prim:
                return PolyQ()
            return self._make(self.content * other, self.prim)
        if type(other) is not PolyQ:
            return NotImplemented
        if not self.prim or not other.prim:
            return PolyQ()
        return self._make(self.content * other.content,
                          tuple(_convolve(self.prim, other.prim)))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.prim == o.prim and self.content == o.content

    # defining __eq__ drops the inherited hash; constants still hash like
    # their coefficient
    __hash__ = DensePoly.__hash__

    def evaluate(self, q) -> Fraction:
        v = 0
        for c in reversed(self.prim):
            v = v * q + c
        return self.content * v

    def __str__(self):
        if not self.prim:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


#: the weight factor 1 - q of the q-letter product
ONE_MINUS_Q = PolyQ((1, -1))
_ONE = PolyQ((1,))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd by the primitive remainder sequence over Z; gcd(0, 0) = 0.

    Each step replaces (u, v) by v and the primitive part of an integer
    pseudo-remainder of u by v, so no rational arithmetic runs until the
    last nonzero remainder is made monic.
    """
    u, v = a.prim, b.prim
    if len(u) < len(v):
        u, v = v, u
    if not u:
        return PolyQ()
    while v:
        u, v = v, _primitive(_pseudo_divmod(u, v)[2])[1]
    return PolyQ._make(Fraction(1, u[-1]), u)


def _exact_quo(p: PolyQ, g: PolyQ) -> PolyQ:
    """p over the primitive part of g, for g dividing p: by Gauss's lemma
    that part divides p's over Z, so the pseudo-division is exact."""
    if len(g.prim) == 1:
        return p
    return PolyQ._make(p.content, tuple(_pseudo_divmod(p.prim, g.prim)[1]))


def _gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """gcd(a, b) for nonzero a and b; a constant is coprime to anything,
    so it runs no ``poly_gcd``."""
    if len(a.prim) == 1 or len(b.prim) == 1:
        return _ONE
    return poly_gcd(a, b)


def _monic(num: PolyQ, den: PolyQ) -> tuple:
    """(num, den) rescaled so that den is monic."""
    lc = den.prim[-1]
    return (PolyQ._make(num.content / (den.content * lc), num.prim),
            PolyQ._make(Fraction(1, lc), den.prim))


class RatFuncQ:
    """Rational function in q, canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        if not isinstance(num, PolyQ):
            num = PolyQ((num,))
        if not isinstance(den, PolyQ):
            den = PolyQ((den,))
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            den = _ONE
        else:
            g = poly_gcd(num, den)
            num, den = _monic(_exact_quo(num, g), _exact_quo(den, g))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, num: PolyQ, den: PolyQ) -> "RatFuncQ":
        # trusts its arguments to be in canonical form
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("RatFuncQ is immutable")

    def __reduce__(self):
        return RatFuncQ, (self.num, self.den)

    def _coerce(self, other):
        if isinstance(other, RatFuncQ):
            return other
        if isinstance(other, (int, Fraction)):
            other = PolyQ((other,))
        if isinstance(other, PolyQ):
            # a polynomial over 1 is already in canonical form
            return RatFuncQ._make(other, _ONE)
        return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        # Henrici: with g = gcd(b, d) and t = a(d/g) + c(b/g), a/b + c/d
        # is t/g2 over (b/g)(d/g2) in lowest terms, where g2 = gcd(t, g)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        g = _gcd(b, d)
        bg = _exact_quo(b, g)
        t = a * _exact_quo(d, g) + c * bg
        if not t:
            return RatFuncQ._make(t, _ONE)
        if len(g.prim) > 1:
            g = _gcd(t, g)
            t, d = _exact_quo(t, g), _exact_quo(d, g)
        return RatFuncQ._make(*_monic(t, bg * d))

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the canonical form, so skip the constructor's gcd
        return RatFuncQ._make(-self.num, self.den)

    def __mul__(self, other):
        # Henrici: (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) for
        # g1 = gcd(a, d) and g2 = gcd(c, b), already in lowest terms
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return self
        if not o.num:
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        g1, g2 = _gcd(a, d), _gcd(c, b)
        return RatFuncQ._make(*_monic(
            _exact_quo(a, g1) * _exact_quo(c, g2),
            _exact_quo(b, g2) * _exact_quo(d, g1)))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # the denominator is monic, so degree 0 means it is 1 and the
        # value equals its numerator
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFuncQ({self.num!r}, {self.den!r})"


def _require_zero_constant(coeffs):
    if not coeffs:
        raise ValueError("series needs a constant term")
    if coeffs[0]:
        raise ValueError("series must have zero constant term")


def series_exp(coeffs: list, one, mul=operator.mul) -> list:
    """exp(a) = sum a^n / n!, for a = sum coeffs[k] t^k with zero constant
    term, truncated at order len(coeffs) - 1; ``one`` is the unit.

    Differentiating e = exp(a) gives e' = a' e, so the coefficients follow
    the first-order recurrence (Knuth, TAOCP Vol. 2, 4.7)

        n e_n = n a_n + sum_{k=1}^{n-1} k a_k e_{n-k},

    which takes O(order^2) products against the result's own coefficients
    instead of forming every power a^n.  The k = n term n a_n e_0 is taken
    without a product, so ``mul`` never meets the unit and a non-unital
    product (such as the star product) works too.  The recurrence equals
    the power sum for any commutative, associative, bilinear ``mul``;
    products with a zero coefficient of a are skipped.
    """
    _require_zero_constant(coeffs)
    da = [k * c for k, c in enumerate(coeffs)]  # k a_k
    e = [one]
    for n in range(1, len(coeffs)):
        s = da[n]
        for k in range(1, n):
            if da[k]:
                s = s + mul(da[k], e[n - k])
        e.append(Fraction(1, n) * s)
    return e


def series_log1p(coeffs: list) -> list:
    """log(1 + a) = sum (-1)^(n-1) a^n / n, for a = sum coeffs[k] t^k with
    zero constant term, truncated at order len(coeffs) - 1.

    Differentiating l = log(1 + a) gives l' + a l' = a', so

        n l_n = n a_n - sum_{k=1}^{n-1} k l_k a_{n-k},

    O(order^2) products against the result's own coefficients, none of
    them by the unit.  The recurrence equals the power sum for any
    commutative, associative, bilinear ``*``; products with a zero
    coefficient of a are skipped.
    """
    _require_zero_constant(coeffs)
    neg = [(-1) * c for c in coeffs]
    dl, log = [coeffs[0]], [coeffs[0]]  # k l_k and l_k
    for n in range(1, len(coeffs)):
        s = n * coeffs[n]
        for j in range(1, n):
            if coeffs[j]:
                s = s + dl[n - j] * neg[j]
        dl.append(s)
        log.append(Fraction(1, n) * s)
    return log
