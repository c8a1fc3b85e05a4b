"""Floating-point evaluation of MZVs, multiple Hurwitz zeta values,
multiple polylogarithms and q-MZVs by truncated nested sums, plus the
exact-rational nested-loop oracle and numeric verification of relations.

The production path uses the O(k*N) prefix-sum recursion: for
s = (s1,...,sk) and f_j(n) = (x+n)^(-s_j),

    g_k = f_k,   g_{j} (n) = f_j(n) * sum_{m < n} g_{j+1}(m),

and the value is sum_n g_1(n).  g_j depends only on the suffix
(s_j, ..., s_k), so ``zeta_values`` evaluates a whole set of compositions
in one depth-first walk over the trie of their suffixes (``_walk``, the
only prefix-sum kernel; ``mpl_num`` and ``qmzv_num`` walk a single chain).
Each distinct suffix costs one term array f_j, one multiply by its
parent's prefix sums and, only if a longer suffix extends it, one cumsum;
each requested composition then costs one sum.  A node's prefix sums are
freed once its last child has read them, so at most (max depth + 3)
length-N arrays are live, however many compositions share the walk.
The naive O(N^k) loop in exact rationals (``nested_sum_oracle``) is the
ground truth it is tested against.
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
        return math.fsum(terms)  # no list of N floats: fsum is exact in any order
    return float(terms.sum())


def _walk(chains, level, total) -> dict:
    """``{chain: total(g_1)}`` for each chain by one walk of the suffix trie.

    A chain lists the per-depth keys outermost first; ``level(key)`` returns
    a fresh term array f for one key.  Each trie node's summands are its own
    f times the exclusive prefix sums of its parent (the suffix one key
    shorter), multiplied into f so no array another node reads is written.
    """
    trie: dict = {}
    for chain in chains:
        node = trie
        for key in reversed(chain):
            node = node.setdefault(key, {})
    wanted = set(chains)
    values = {}
    # (suffix, its subtrie, the parent's prefix sums); the stack's entries
    # are a node's only hold on its parent's sums
    stack = [((key,), sub, None) for key, sub in reversed(trie.items())]
    while stack:
        suffix, sub, prefix = stack.pop()
        g = level(suffix[0])
        if prefix is not None:
            np.multiply(g, prefix, out=g)
        prefix = None  # frees the parent's sums once its last child has read them
        if suffix in wanted:
            values[suffix] = total(g)
        if sub:
            prefix = np.empty_like(g)
            prefix[:1] = 0
            np.cumsum(g[:-1], out=prefix[1:])
            stack.extend(((key,) + suffix, child, prefix)
                         for key, child in reversed(sub.items()))
        del g, prefix  # before the next level() allocates
    return values


def zeta_values(comps, cfg: EvalConfig | None = None) -> dict:
    """``{comp: EvalResult}`` for every composition, by one suffix-trie walk."""
    cfg = cfg or EvalConfig()
    comps = [tuple(s) for s in comps]
    for s in comps:
        require_admissible(s)
    n = np.arange(1, cfg.N + 1, dtype=np.float64) + float(cfg.x)
    values = _walk(comps, lambda sj: n ** float(-sj),
                   lambda terms: _final_sum(terms, cfg.compensated))
    log_n = math.log(cfg.N)
    return {
        s: EvalResult(
            value=values[s],
            tail_bound=2.0 * log_n ** (len(s) - 1) * cfg.N ** (1 - s[0]) / (s[0] - 1),
        )
        for s in comps
    }


def zeta_num(s: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated multiple (Hurwitz) zeta value by the prefix-sum recursion."""
    s = tuple(s)
    return zeta_values((s,), cfg)[s]


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
    chain = tuple(zip(s, z))  # one key (s_j, z_j) per depth
    total = _walk((chain,),
                  lambda key: np.power(key[1], n) * shifted ** float(-key[0]),
                  lambda terms: complex(terms.sum()))[chain]
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
    chain = tuple(s)
    value = _walk((chain,), lambda sj: q ** (k * (sj - 1)) / bracket**sj,
                  lambda terms: _final_sum(terms, cfg.compensated))[chain]
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


def eval_monomial(m: tuple, values: dict) -> float:
    """Product of the values of a monomial's compositions, taken from
    ``values`` (a ``zeta_values`` result)."""
    value = 1.0
    for comp in m:
        value *= values[comp].value
    return value


def eval_relation(r: Relation, cfg: EvalConfig | None = None,
                  values: dict | None = None) -> float:
    """Absolute residual of a relation under numeric evaluation.

    ``values`` is a ``zeta_values`` result holding every composition of
    ``r``; without it they are evaluated here in one walk.
    """
    if values is None:
        values = zeta_values(r.compositions(), cfg)
    total = 0.0
    for m, c in r.terms:
        total += float(c) * eval_monomial(m, values)
    return abs(total)
