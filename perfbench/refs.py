"""High-precision references for the numeric workload, computed with mpmath
before any op is timed, and the accuracy each value is checked against.

Closed forms: zeta(3,1,1) = 2 zeta(5) - zeta(2) zeta(3), zeta(2,{1}^m) =
zeta(m+2), zeta({2}^n) = pi^(2n)/(2n+1)!, zeta(3,1) = pi^4/360, and for the
multiple polylogarithm with letters (z, 1, ..., 1) and exponents (1, ..., 1)
the sum over n1 > ... > nk of z^n1/(n1...nk) = (-log(1-z))^k/k!. q-MZVs have
no closed form here; their reference is the nested sum in 40-digit
arithmetic, truncated where the remainder is below 1e-45.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from mpmath import mpf

mpmath.mp.dps = 40
EPS = 2.0 ** -53


@lru_cache(maxsize=None)
def zeta_reference(s: tuple):
    if s == (3, 1):
        return mpmath.pi ** 4 / 360
    if s == (3, 1, 1):
        return 2 * mpmath.zeta(5) - mpmath.zeta(2) * mpmath.zeta(3)
    if s[0] == 2 and all(p == 1 for p in s[1:]):
        return mpmath.zeta(len(s) + 1)
    if all(p == 2 for p in s):
        return mpmath.pi ** (2 * len(s)) / mpmath.factorial(2 * len(s) + 1)
    raise ValueError(f"no closed form for zeta{s}")


def log_power_reference(z, depth: int):
    """(-log(1 - z))^depth / depth!, for |z| < 1."""
    z = mpmath.mpc(z.real, z.imag) if isinstance(z, complex) else mpf(z)
    return (-mpmath.log(1 - z)) ** depth / mpmath.factorial(depth)


@lru_cache(maxsize=None)
def qmzv_reference(s: tuple, q_num: int, q_den: int):
    q = mpf(q_num) / q_den
    # the outer summand is at most q^(k (s1 - 1)) times a polynomial in k
    k_max = int(50 * math.log(10) / ((s[0] - 1) * math.log(q_den / q_num))) + 200
    qk = [q ** k for k in range(1, k_max + 1)]
    brackets = [(1 - x) / (1 - q) for x in qk]
    inner = [mpf(1)] * k_max
    for sj in reversed(s):
        cur = [x ** (sj - 1) / b ** sj * i for x, b, i in zip(qk, brackets, inner)]
        # exclusive prefix sums feed the next-outer index
        inner, total = [], mpf(0)
        for c in cur:
            inner.append(total)
            total += c
    return total


def reference(op):
    """(reference value, stated accuracy) for a numeric op.

    The accuracy is twice a truncation estimate plus a rounding allowance of
    16 k n eps max(1, |ref|) for k levels of n-term float64 prefix sums. For
    zeta-type sums the estimate bounds the inner sums by (k + log n)^(k-1),
    and the integral of that over n^-s1 beyond n.
    """
    a, depth = op.args, len(op.args["s"])
    s = a["s"]
    n = a.get("N", a.get("K"))
    if op.family in ("zeta", "mpl_real_one"):
        ref = zeta_reference(s)
        trunc = (depth + math.log(n)) ** (depth - 1) / ((s[0] - 1) * n ** (s[0] - 1))
    elif op.family in ("mpl_real", "mpl_complex"):
        ref = log_power_reference(a["z"][0], depth)
        if op.family == "mpl_complex":
            ref = abs(ref)  # mpl_num reports |value| for complex letters
        r = abs(a["z"][0])
        trunc = r ** n / (1 - r) * (depth + math.log(n)) ** (depth - 1)
    else:
        q = a["q"]
        ref = qmzv_reference(s, q.numerator, q.denominator)
        trunc = float(q) ** (n * (s[0] - 1)) * n ** depth / (1 - float(q)) ** sum(s)
    rounding = 16 * depth * n * EPS * max(1.0, abs(float(ref)))
    return ref, 2 * trunc + rounding


def error(value: float, ref) -> float:
    return float(abs(mpf(value) - ref))
