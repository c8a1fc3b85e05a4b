"""Exact coefficient tower: rationals, polynomials and rational functions
in a formal parameter q, and truncated power series.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced).
There is one dense polynomial type, ``DensePoly``, generic over its
coefficient ring: ``PolyQ`` is its instance over the rationals, and
``operator_gallery.XPoly`` its instance over ``RatFuncQ``.  Rational
functions are kept in canonical form (coprime, monic denominator) so
equality is a tuple comparison.  Truncated series work over any
coefficient module whose elements support ``+``, ``*`` and
left-multiplication by a Fraction.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class DensePoly:
    """Dense polynomial over a coefficient ring, no trailing zeros.

    The arithmetic is written once here; a subclass fixes the ring with
    three class attributes: ``_coeff`` coerces one input to a ring element,
    ``_zero`` is the ring's zero, and ``_scalars`` are the types read as
    constant polynomials.  Only the subclass itself and those scalars are
    accepted as operands, so two polynomial types never read each other's
    coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        coerce = self._coeff
        cs = [coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def degree(self) -> int:
        # -1 is the zero-polynomial sentinel
        return len(self.coeffs) - 1

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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return type(self)()
        out = []
        for k in range(len(a) + len(b) - 1):
            lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
            # the slot starts at its first product, not at zero: adding
            # onto zero costs a gcd for rational-function coefficients
            s = a[lo] * b[k - lo]
            for i in range(lo + 1, hi + 1):
                s = s + a[i] * b[k - i]
            out.append(s)
        return type(self)(out)

    __rmul__ = __mul__

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._zero

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

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


class PolyQ(DensePoly):
    """Dense polynomial in q over the rationals, no trailing zeros."""

    __slots__ = ()
    _coeff = staticmethod(_as_fraction)
    _zero = Fraction(0)
    _scalars = (int, Fraction)

    def monic(self) -> "PolyQ":
        lc = self.leading()
        return PolyQ(c / lc for c in self.coeffs)

    def divmod(self, d: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dl = d.leading()
        dd = d.degree
        q = [Fraction(0)] * max(len(r) - dd, 0)
        for k in reversed(range(len(q))):
            q[k] = c = r[k + dd] / dl
            for i, dc in enumerate(d.coeffs):
                r[k + i] -= c * dc
        return PolyQ(q), PolyQ(r[:dd])

    def __floordiv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.divmod(o)[0]

    def __mod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.divmod(o)[1]

    def evaluate(self, q) -> Fraction:
        v = Fraction(0)
        for c in reversed(self.coeffs):
            v = v * q + c
        return v

    def __str__(self):
        if not self.coeffs:
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


#: the formal variable q
Q_VAR = PolyQ((0, 1))
#: the weight factor 1 - q of the q-letter product
ONE_MINUS_Q = PolyQ((1, -1))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


class RatFuncQ:
    """Rational function in q, canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PolyQ((1,))):
        if not isinstance(num, PolyQ):
            num = PolyQ((num,))
        if not isinstance(den, PolyQ):
            den = PolyQ((den,))
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            den = PolyQ((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lc = den.leading()
            if lc != 1:
                num = num * (1 / lc)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFuncQ is immutable")

    def _coerce(self, other):
        if isinstance(other, RatFuncQ):
            return other
        if isinstance(other, (int, Fraction, PolyQ)):
            return RatFuncQ(other if isinstance(other, PolyQ) else PolyQ((other,)))
        return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFuncQ(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the canonical form, so skip the constructor's gcd
        out = object.__new__(RatFuncQ)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFuncQ(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RatFuncQ(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.den == PolyQ((1,)) and self.num.degree <= 0:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def evaluate(self, q) -> Fraction:
        d = self.den.evaluate(q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return self.num.evaluate(q) / d

    def __str__(self):
        if self.den == PolyQ((1,)):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFuncQ({self.num!r}, {self.den!r})"


class TruncSeries:
    """Power series in t truncated at a fixed order.

    Coefficients live in any module with ``+``, a bilinear ``*`` (or the
    ``mul`` callable supplied here) and scalar multiplication by Fraction
    from the left.  ``one`` is the multiplicative unit of the module.
    """

    __slots__ = ("order", "coeffs", "one", "mul")

    def __init__(self, order: int, coeffs, one=Fraction(1), mul=operator.mul):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        zero = 0 * one
        cs = list(coeffs)[: order + 1]
        cs.extend(zero for _ in range(order + 1 - len(cs)))
        self.order = order
        self.coeffs = cs
        self.one = one
        self.mul = mul

    def _check(self, other: "TruncSeries"):
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    def unit(self) -> "TruncSeries":
        return TruncSeries(self.order, [self.one], self.one, self.mul)

    def zero(self) -> "TruncSeries":
        return TruncSeries(self.order, [], self.one, self.mul)

    def __add__(self, other):
        self._check(other)
        return TruncSeries(
            self.order,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.one,
            self.mul,
        )

    def __sub__(self, other):
        self._check(other)
        return TruncSeries(
            self.order,
            [a + (-1) * b for a, b in zip(self.coeffs, other.coeffs)],
            self.one,
            self.mul,
        )

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        zero = 0 * self.one
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            for j in range(self.order + 1 - i):
                out[i + j] = out[i + j] + self.mul(a, other.coeffs[j])
        return TruncSeries(self.order, out, self.one, self.mul)

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(
            self.order, [c * a for a in self.coeffs], self.one, self.mul
        )

    def map(self, f) -> "TruncSeries":
        return TruncSeries(
            self.order, [f(a) for a in self.coeffs], self.one, self.mul
        )

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        return " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs))


def _require_zero_constant(a: TruncSeries):
    zero = 0 * a.one
    if a.coeffs[0] != zero:
        raise ValueError("series must have zero constant term")


def series_exp(a: TruncSeries) -> TruncSeries:
    """exp(a) = sum a^n / n!, for a with zero constant term."""
    _require_zero_constant(a)
    # starts from the degree-1 term, so the product never meets the unit
    # and a non-unital product (such as the star product) works too
    result = a.unit() + a
    term = a
    for n in range(2, a.order + 1):
        term = (term * a).scale(Fraction(1, n))
        result = result + term
    return result


def series_log1p(a: TruncSeries) -> TruncSeries:
    """log(1 + a) = sum (-1)^(n-1) a^n / n, for a with zero constant term."""
    _require_zero_constant(a)
    result = a.zero()
    power = a.unit()
    for n in range(1, a.order + 1):
        power = power * a
        result = result + power.scale(Fraction((-1) ** (n - 1), n))
    return result
