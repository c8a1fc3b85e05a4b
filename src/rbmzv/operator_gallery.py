"""Concrete Rota-Baxter operators with exact axiom verification: the
partial-sum operator Z on finite windows, polynomial integration I on
``PolyQ``, and the Jackson-integral operators P_q, P_q-hat and J on
``XPoly``, polynomials in x with rational-function coefficients.  Both
polynomial types are the one dense polynomial ``coefficients.DensePoly``
over different coefficient rings.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import DensePoly, PolyQ, RatFuncQ, ONE_MINUS_Q


# --- partial sums on finite windows -----------------------------------------

def z_apply(f: list) -> list:
    """Z[f](k) = sum_{i<k} f(i); Z[f](1) = 0.  Sequences are 1-indexed lists."""
    out = []
    acc = Fraction(0)
    for v in f:
        out.append(acc)
        acc += v
    return out


def seq_mul(f: list, g: list) -> list:
    if len(f) != len(g):
        raise ValueError("window size mismatch")
    return [a * b for a, b in zip(f, g)]


def z_rb_defect(f: list, g: list) -> list:
    """Pointwise Z[f]Z[g] - Z[fZ[g]] - Z[Z[f]g] - Z[fg]; all zeros iff the
    weight-1 Rota-Baxter identity holds on the window."""
    zf, zg = z_apply(f), z_apply(g)
    lhs = seq_mul(zf, zg)
    rhs1 = z_apply(seq_mul(f, zg))
    rhs2 = z_apply(seq_mul(zf, g))
    rhs3 = z_apply(seq_mul(f, g))
    return [a - b - c - d for a, b, c, d in zip(lhs, rhs1, rhs2, rhs3)]


# --- polynomial integration --------------------------------------------------

def integrate(f) -> PolyQ:
    """I(x^m) = x^(m+1)/(m+1), extended linearly; f is a PolyQ or a dense
    Q-coefficient list, constant term first."""
    return PolyQ([0] + [c / (m + 1) for m, c in enumerate(PolyQ(f))])


def integration_rb_defect(f, g) -> PolyQ:
    """I(f)I(g) - I(f I(g)) - I(I(f) g); zero iff the weight-0 identity holds."""
    f, g = PolyQ(f), PolyQ(g)
    i_f, i_g = integrate(f), integrate(g)
    return i_f * i_g - integrate(f * i_g) - integrate(i_f * g)


# --- Jackson operators -------------------------------------------------------

def _as_ratfunc(c) -> RatFuncQ:
    return c if isinstance(c, RatFuncQ) else RatFuncQ(c)


class XPoly(DensePoly):
    """Polynomial in x with rational-function-in-q coefficients."""

    __slots__ = ("coeffs",)
    _coeff = staticmethod(_as_ratfunc)
    _zero = RatFuncQ(PolyQ())
    _scalars = (int, Fraction, PolyQ, RatFuncQ)

    def shift_x(self) -> "XPoly":
        """Multiply by x."""
        return XPoly((self._zero,) + self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in enumerate(self.coeffs):
            if not c:
                continue
            xs = "" if m == 0 else ("x" if m == 1 else f"x^{m}")
            cs = str(c)
            if "/" in cs or " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{xs}" if xs else cs)
        return " + ".join(parts)


def _q_power(m: int) -> PolyQ:
    return PolyQ([0] * m + [1])


def p_q(f: XPoly) -> XPoly:
    """P_q[f](x) = sum_{n>0} f(x q^n): x^m -> x^m q^m/(1 - q^m), m >= 1."""
    if f.coeffs and f.coeffs[0]:
        raise ValueError("P_q requires a zero constant term")
    out = [RatFuncQ(PolyQ())]
    for m in range(1, len(f.coeffs)):
        # canonical as built: -q^m over the monic q^m - 1, coprime to it
        factor = RatFuncQ._make(-_q_power(m), PolyQ((-1,) + (0,) * (m - 1) + (1,)))
        out.append(f.coeffs[m] * factor)
    return XPoly(out)


def p_hat_q(f: XPoly) -> XPoly:
    """P_q-hat = id + P_q, a Rota-Baxter operator of weight -1."""
    return f + p_q(f)


def jackson_j(f: XPoly) -> XPoly:
    """Jackson integral J[f](x) = (1-q) sum_{n>=0} f(x q^n) x q^n:
    x^m -> (1-q)/(1 - q^(m+1)) x^(m+1)."""
    out = [RatFuncQ(PolyQ())]
    for m, c in enumerate(f.coeffs):
        # canonical as built: 1 over the monic 1 + q + ... + q^m
        factor = RatFuncQ._make(PolyQ((1,)), PolyQ((1,) * (m + 1)))
        out.append(c * factor)
    return XPoly(out)


def rb_defect(op, f: XPoly, g: XPoly, weight: int) -> XPoly:
    """op(f)op(g) - op(f op(g)) - op(op(f) g) - weight*op(fg)."""
    pf, pg = op(f), op(g)
    d = pf * pg - op(f * pg) - op(pf * g)
    if weight:
        d = d - op(f * g) * RatFuncQ(PolyQ((weight,)))
    return d


def jackson_defect(f: XPoly, g: XPoly) -> XPoly:
    """J[f]J[g] + (1-q) J[f g id] - J[J[f] g + f J[g]]; zero identically."""
    jf, jg = jackson_j(f), jackson_j(g)
    lam = RatFuncQ(ONE_MINUS_Q)
    fg_id = (f * g).shift_x()
    return jf * jg + jackson_j(fg_id) * lam - jackson_j(jf * g + f * jg)
