"""Symbolic verification inside Sha(A): Spitzer's identity, the
exp-star/log identity, the Bohnenblust-Spitzer formula and the mod-p
power congruence, all in exact arithmetic.

The congruence rests on ``freshman_power``, the p-th Sha power of a pure
tensor 1 (x) w over composition letters, computed in one pass over the
multiset of the p copies' positions.  ``congruence_check`` asks for that
power in F_p, where it is cheap: a step that moves j of the p copies at
one position has multiplicity C(p, j), which p divides for 0 < j < p, so
only the step that moves all p copies survives and the recursion reaches
n = len(w) states instead of every multiset.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import series_exp, series_log1p
from .compositions import check_composition
from .letters import COMPOSITION, MONOMIAL
from .tensor_algebra import ShaAlgebra, ShaElement, _prepend

_PRIMES = (2, 3, 5, 7, 11)


def _check_prime(p: int):
    if p not in (2, 3, 5, 7):
        raise ValueError("p must be a prime in {2, 3, 5, 7}")


def _check_range(name: str, value: int, lo: int, hi: int):
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}")


@dataclass
class IdentityReport:
    name: str
    params: dict
    verdict: str
    lhs: str
    rhs: str
    first_diff: str | None = None

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if self.first_diff is not None:
            out["first_diff"] = self.first_diff
        return out


def set_partitions(n: int) -> list[list[list[int]]]:
    """All set partitions of {1..n}, in restricted-growth-string order.

    Blocks are listed by minimum element; block contents are increasing.
    """
    _check_range("n", n, 1, 8)
    results = []

    def extend(i, blocks):
        if i > n:
            results.append([list(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            extend(i + 1, blocks)
            b.pop()
        blocks.append([i])
        extend(i + 1, blocks)
        blocks.pop()

    extend(1, [])
    return results


def _signed_set_partitions(n: int):
    """Yield (coef, blocks) over ``set_partitions(n)``, where coef is the
    Bohnenblust-Spitzer weight (-1)^(n - #blocks) prod_B (|B| - 1)!."""
    for blocks in set_partitions(n):
        coef = (-1) ** (n - len(blocks))
        for block in blocks:
            coef *= math.factorial(len(block) - 1)
        yield coef, blocks


def _series_compare(name, params, lhs: list, rhs: list) -> IdentityReport:
    """Compare two series given as coefficient lists of one order."""
    first_diff = None
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            first_diff = f"t^{i}: lhs={a} rhs={b}"
            break
    return IdentityReport(
        name=name,
        params=params,
        verdict="equal" if first_diff is None else "unequal",
        lhs=" ; ".join(f"t^{i}: {c}" for i, c in enumerate(lhs)),
        rhs=" ; ".join(f"t^{i}: {c}" for i, c in enumerate(rhs)),
        first_diff=first_diff,
    )


def _element_compare(name, params, lhs: ShaElement, rhs: ShaElement) -> IdentityReport:
    diff = lhs - rhs
    first_diff = None
    if diff:
        w = min(diff.terms, key=diff.sort_key)
        first_diff = f"coefficient {diff.terms[w]} at {(w[0], w[1:])}"
    return IdentityReport(
        name=name,
        params=params,
        verdict="equal" if first_diff is None else "unequal",
        lhs=str(lhs),
        rhs=str(rhs),
        first_diff=first_diff,
    )


def spitzer_check(order: int) -> IdentityReport:
    """exp(P(log(1 + a t))) = sum_i t^i 1 (x) a (x) ... (x) a in Sha(Q[a])
    at weight 1.

    The series log(1 + a t) has t^i coefficient (-1)^(i-1)/i * a^i; P is
    applied to the series coefficientwise.
    """
    _check_range("order", order, 1, 8)
    alg = ShaAlgebra(MONOMIAL, 1)
    one = alg.one()
    log_coeffs = [alg.zero()]
    for i in range(1, order + 1):
        log_coeffs.append(Fraction((-1) ** (i - 1), i) * alg.j(i))
    lhs = series_exp([alg.p(c) for c in log_coeffs], one)
    rhs = [one] + [alg.pure(None, (1,) * i) for i in range(1, order + 1)]
    return _series_compare("spitzer", {"order": order}, lhs, rhs)


def exp_star_log_check(order: int) -> IdentityReport:
    """exp_star(log(1 + x t)) = 1 + x t + (x t)^(x)2 + ... at weight 1.

    log uses the ordinary Sha product, exp the star product.
    """
    _check_range("order", order, 1, 8)
    alg = ShaAlgebra(MONOMIAL, 1)
    one = alg.one()
    xt = [alg.zero(), alg.j(1)] + [alg.zero() for _ in range(order - 1)]
    lhs = series_exp(series_log1p(xt), one, alg.star)
    rhs = [one] + [alg.pure(1, (1,) * (i - 1)) for i in range(1, order + 1)]
    return _series_compare("expstar", {"order": order}, lhs, rhs)


def bohnenblust_spitzer_check(n: int) -> IdentityReport:
    """Permutation sum of nested P-words vs the signed set-partition sum."""
    _check_range("n", n, 2, 5)
    alg = ShaAlgebra(COMPOSITION, 1)
    letters = _PRIMES[:n]
    lhs = alg.zero()
    for perm in itertools.permutations(letters):
        lhs = lhs + alg.nested_p(perm)
    rhs = alg.zero()
    for coef, blocks in _signed_set_partitions(n):
        term = alg.one()
        for block in blocks:
            term = term * alg.p(alg.j(sum(letters[i - 1] for i in block)))
        rhs = rhs + coef * term
    return _element_compare("bohnenblust_spitzer", {"n": n}, lhs, rhs)


def freshman_power(w: tuple, p: int, modulus: int | None = None) -> dict:
    """p-th power of the pure tensor 1 (x) w under the Sha product over
    composition letters.

    Returns the tail combination {word: integer coefficient}.  The unit
    head multiplies trivially, so this is the p-th stuffle power of w (the
    weight-1 quasi-shuffle of p copies), computed by one p-ary recursion.

    The copies are interchangeable, so a state is the multiset of their
    positions, kept as counts c[i] of copies at position i < n (the others
    are done).  A step advances j[i] <= c[i] copies from each position i,
    at least one in all, with multiplicity prod C(c[i], j[i]); their
    letters merge into the one letter sum j[i] w[i], put in front of the
    child state's words by ``_prepend``.  The child state is built from the
    parent's counts, so a copy moved into position i + 1 is not moved again
    in the same step.  Every coefficient is positive, so no term cancels.
    The memo is local to the call.

    With a ``modulus`` the power is taken in Z/modulus: each multiplicity
    is reduced and a step whose multiplicity is 0 is skipped, and each
    state's combination is reduced after its steps, dropping every word
    whose coefficient is 0 (``_prepend`` drops only exact zeros), so every
    coefficient returned lies in 1..modulus - 1.  At ``modulus=p`` the
    start state holds all p copies at position 0, and C(p, j) = 0 mod p
    for 0 < j < p, so only the step that moves all p copies survives; its
    child holds them all at position 1, and so on: the recursion visits n
    states and returns {(p*w1, ..., p*wn): 1}.
    """
    _check_prime(p)
    w = tuple(w)
    check_composition(w)
    n = len(w)
    memo: dict = {}

    def rec(counts):
        if not any(counts):
            return {(): 1}
        hit = memo.get(counts)
        if hit is not None:
            return hit
        out: dict = {}
        for js in itertools.product(*[range(c + 1) for c in counts]):
            if not any(js):
                continue
            mult = math.prod(map(math.comb, counts, js))
            if modulus is not None:
                mult %= modulus
                if not mult:
                    continue
            child = tuple(
                counts[i] - js[i] + (js[i - 1] if i else 0) for i in range(n)
            )
            head = (sum(map(operator.mul, js, w)),)
            _prepend(out, head, rec(child), mult)
        if modulus is not None:
            out = {u: c % modulus for u, c in out.items() if c % modulus}
        memo[counts] = out
        return out

    return rec((p,) + (0,) * (n - 1))


def _mod_p_failure(power: dict, target: tuple, p: int) -> str | None:
    """The target's coefficient if it breaks power = target mod p, else the
    coefficient of the least other word that does, or None."""
    tc = power.get(target, 0)
    if tc % p != 1 % p:
        return f"coefficient of target {target} is {tc}, not 1 mod {p}"
    bad = [w for w, c in power.items() if w != target and c % p != 0]
    if bad:
        word = min(bad)
        return f"coefficient of {word} is {power[word]}, not 0 mod {p}"
    return None


def congruence_check(w: tuple, p: int) -> IdentityReport:
    """Check (a1 (x) ... (x) an)^p = a1^p (x) ... (x) an^p mod p for
    composition letters, whose p-th power is p*a; the power is taken in
    F_p."""
    power = freshman_power(w, p, modulus=p)
    w = tuple(w)
    target = tuple(p * a for a in w)
    bad = _mod_p_failure(power, target, p)
    return IdentityReport(
        name="congruence",
        params={"word": list(w), "p": p},
        verdict="equal" if bad is None else "unequal",
        lhs=f"(1(x){w})^{p} mod {p}",
        rhs=f"1(x){target} mod {p}",
        first_diff=bad,
    )
