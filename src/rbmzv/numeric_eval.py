"""Floating-point evaluation of MZVs, multiple Hurwitz zeta values,
multiple polylogarithms and q-MZVs by truncated nested sums, plus the
exact-rational nested-loop oracle and numeric verification of relations.

The production path uses the O(k*N) prefix-sum recursion: for
s = (s1,...,sk) and f_j(n) = (x+n)^(-s_j),

    g_k = f_k,   g_{j} (n) = f_j(n) * sum_{m < n} g_{j+1}(m),

and the value is sum_n g_1(n).  The naive O(N^k) loop in exact rationals
(``nested_sum_oracle``) is the ground truth it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mzv_calculus import Relation, require_admissible


@dataclass
class EvalConfig:
    N: int = 100_000
    x: Fraction = Fraction(0)
    q: Fraction = Fraction(1, 2)
    K: int = 400
    compensated: bool = False

    def __post_init__(self):
        if self.N < 10:
            raise ValueError("truncation N must be >= 10")
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")
        if self.x < 0:
            raise ValueError("Hurwitz offset x must be >= 0")


@dataclass
class EvalResult:
    value: float
    tail_bound: float

    def to_json(self) -> dict:
        return {"value": self.value, "tail_bound": self.tail_bound}


def _final_sum(terms: np.ndarray, compensated: bool) -> float:
    if compensated:
        return math.fsum(terms.tolist())
    return float(terms.sum())


def _nested(levels) -> np.ndarray:
    """Summands g_1 of the prefix-sum recursion.

    ``levels`` yields the per-depth term arrays f_k, ..., f_1, innermost
    first; pass a generator, so only one level's array is live at a time.
    Each level multiplies the exclusive prefix sums of the level inside it.
    """
    levels = iter(levels)
    cur = next(levels)
    for f in levels:
        inner = np.empty_like(cur)
        inner[:1] = 0
        np.cumsum(cur[:-1], out=inner[1:])
        cur = np.multiply(f, inner, out=inner)
    return cur


def zeta_num(s: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated multiple (Hurwitz) zeta value by the prefix-sum recursion."""
    cfg = cfg or EvalConfig()
    require_admissible(s)
    n = np.arange(1, cfg.N + 1, dtype=np.float64) + float(cfg.x)
    terms = _nested(n ** float(-sj) for sj in reversed(s))
    value = _final_sum(terms, cfg.compensated)
    k = len(s)
    tail = 2.0 * math.log(cfg.N) ** (k - 1) * cfg.N ** (1 - s[0]) / (s[0] - 1)
    return EvalResult(value=value, tail_bound=tail)


def mpl_num(s: tuple, z: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated multiple polylogarithm / Lerch sum.

    Convergence precondition: |z1| < 1, or z1 = 1 with s1 >= 2, and
    |z_i| <= 1 for the inner letters.
    """
    cfg = cfg or EvalConfig()
    if len(z) != len(s):
        raise ValueError("need one z per exponent")
    z = tuple(complex(w) for w in z)
    if abs(z[0]) > 1 or (abs(z[0]) == 1 and not (z[0] == 1 and s[0] >= 2)):
        raise ValueError("outer letter violates convergence: need |z1| < 1 "
                         "or z1 = 1 with s1 >= 2")
    if any(abs(w) > 1 for w in z[1:]):
        raise ValueError("inner letters need |z| <= 1")
    n = np.arange(1, cfg.N + 1, dtype=np.float64)
    shifted = n + float(cfg.x)
    terms = _nested(np.power(zj, n) * shifted ** float(-sj)
                    for sj, zj in zip(reversed(s), reversed(z)))
    total = complex(terms.sum())
    value = total.real if all(w.imag == 0 for w in z) else abs(total)
    r = abs(z[0])
    if r < 1:
        tail = abs(z[0]) ** cfg.N / (1 - r) * cfg.N ** (-s[0])
    else:
        tail = 2.0 * math.log(cfg.N) ** (len(s) - 1) * cfg.N ** (1 - s[0]) / max(s[0] - 1, 1)
    return EvalResult(value=value, tail_bound=tail)


def qmzv_num(s: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated q-MZV: sum over K >= k1 > ... > kd > 0 of
    q^(sum k_i (s_i - 1)) / prod [k_i]_q^(s_i)."""
    cfg = cfg or EvalConfig()
    require_admissible(s)
    q = float(cfg.q)
    k = np.arange(1, cfg.K + 1, dtype=np.float64)
    bracket = (1.0 - q**k) / (1.0 - q)
    terms = _nested(q ** (k * (sj - 1)) / bracket**sj for sj in reversed(s))
    value = _final_sum(terms, cfg.compensated)
    tail = q ** (cfg.K * (s[0] - 1)) * cfg.K * (1.0 - q) ** sum(s)
    return EvalResult(value=value, tail_bound=tail)


def nested_sum_oracle(s: tuple, N: int, x: Fraction = Fraction(0)) -> Fraction:
    """Naive nested loop in exact rationals; ground truth for zeta_num."""
    if N > 200:
        raise ValueError("oracle truncation capped at N = 200")
    x = Fraction(x)

    def rec(i: int, upper: int) -> Fraction:
        if i == len(s):
            return Fraction(1)
        total = Fraction(0)
        for n in range(len(s) - i, upper):
            total += rec(i + 1, n) / (x + n) ** s[i]
        return total

    return rec(0, N + 1)


def eval_monomial(m: tuple, cfg: EvalConfig, cache: dict | None = None) -> float:
    value = 1.0
    for comp in m:
        if cache is not None and comp in cache:
            r = cache[comp]
        else:
            r = zeta_num(comp, cfg)
            if cache is not None:
                cache[comp] = r
        value *= r.value
    return value


def eval_relation(r: Relation, cfg: EvalConfig | None = None,
                  cache: dict | None = None) -> float:
    """Absolute residual of a relation under numeric evaluation."""
    cfg = cfg or EvalConfig()
    for comp in r.compositions():
        require_admissible(comp)
    total = 0.0
    for m, c in r.terms:
        total += float(c) * eval_monomial(m, cfg, cache)
    return abs(total)
