"""Correctness checks for symbolic and corpus ops, written independently of
the library: a stuffle oracle, Delannoy and binomial counts, and dense
polynomial arithmetic on tuples of Fractions (constant term first).

Nothing here calls into ``rbmzv``; the checks only read the results, so
they cannot warm a library cache that a later timed op would hit.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def delannoy(m: int, n: int) -> int:
    """Number of stuffle terms with multiplicity: sum_k C(m,k) C(n,k) 2^k."""
    return sum(math.comb(m, k) * math.comb(n, k) * 2 ** k
               for k in range(min(m, n) + 1))


def stuffle_oracle(a: tuple, b: tuple) -> dict:
    """Quasi-shuffle of compositions by the three-case recursion on suffixes."""
    memo = {}

    def rec(i, j):
        if i == len(a):
            return {b[j:]: 1}
        if j == len(b):
            return {a[i:]: 1}
        if (i, j) in memo:
            return memo[(i, j)]
        out: dict = {}
        for head, sub in ((a[i], rec(i + 1, j)), (b[j], rec(i, j + 1)),
                          (a[i] + b[j], rec(i + 1, j + 1))):
            for w, c in sub.items():
                key = (head,) + w
                out[key] = out.get(key, 0) + c
        memo[(i, j)] = out
        return out

    return rec(0, 0)


def check_stuffle(a, b, out) -> str | None:
    total = sum(out.values())
    if total != delannoy(len(a), len(b)):
        return f"coefficient sum {total} != D({len(a)},{len(b)})"
    wt = sum(a) + sum(b)
    bad = [c for c in out if sum(c) != wt]
    if bad:
        return f"term {bad[0]} has weight != {wt}"
    return None


def check_shuffle_zeta(a, b, out) -> str | None:
    wa, wb = sum(a), sum(b)
    total = sum(out.values())
    if total != math.comb(wa + wb, wa):
        return f"coefficient sum {total} != C({wa + wb},{wa})"
    bad = [c for c in out if sum(c) != wa + wb or c[0] < 2]
    if bad:
        return f"term {bad[0]} is not admissible of weight {wa + wb}"
    return None


def check_q_stuffle(a, b, out) -> str | None:
    at_one = {}
    for comp, coef in out.items():
        coeffs = getattr(coef, "coeffs", None)
        v = sum(coeffs) if coeffs is not None else coef
        if v:
            at_one[comp] = v
    if at_one != stuffle_oracle(tuple(a), tuple(b)):
        return "q_stuffle at q = 1 differs from the stuffle"
    return None


# --- dense polynomials over Q: tuples of Fractions, constant term first ------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def pmul(f, g):
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return _trim(out)


def padd(f, g):
    n = max(len(f), len(g))
    return _trim((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                 for i in range(n))


def prem(f, g):
    """Remainder of f by a nonzero g."""
    r = list(_trim(f))
    g = _trim(g)
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        for i, x in enumerate(g):
            r[shift + i] -= c * x
        r = list(_trim(r))
    return tuple(r)


def pgcd_degree(f, g) -> int:
    f, g = _trim(f), _trim(g)
    while g:
        f, g = g, prem(f, g)
    return len(f) - 1


def check_poly_gcd(a, b, r) -> str | None:
    """r = gcd(a, b): monic, divides both, and leaves coprime cofactors."""
    if not r or r[-1] != 1:
        return "gcd is not monic"
    if prem(a, r) or prem(b, r):
        return "gcd does not divide both inputs"
    # r | a and r | b; r is the gcd iff deg r equals the true gcd degree
    if pgcd_degree(a, b) != len(r) - 1:
        return "gcd has the wrong degree"
    return None


def check_ratfunc(expected_num, expected_den, num, den) -> str | None:
    """num/den is the canonical form of expected_num/expected_den."""
    if not den or den[-1] != 1:
        return "denominator is not monic"
    if pmul(num, expected_den) != pmul(expected_num, den):
        return "value differs"
    if not num and den != (1,):
        return "zero is not stored as 0/1"
    if num and pgcd_degree(num, den) != 0:
        return "numerator and denominator are not coprime"
    return None


# --- canonical text for digests ----------------------------------------------

def canonical(out) -> str:
    """Deterministic text of an op result, for the per-seed output digest."""
    if isinstance(out, dict):
        return ";".join(f"{k}:{out[k]}" for k in sorted(out))
    to_json = getattr(out, "to_json", None)
    if to_json is not None:
        return json.dumps(to_json(), sort_keys=True)
    return str(out)
