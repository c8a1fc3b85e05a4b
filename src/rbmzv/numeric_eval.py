"""Floating-point evaluation of MZVs, multiple Hurwitz zeta values,
multiple polylogarithms and q-MZVs by truncated nested sums, plus the
exact-rational nested-loop oracle.

The production path uses the O(k*N) prefix-sum recursion: for
s = (s1,...,sk) and f_j(n) = (x+n)^(-s_j),

    g_k = f_k,   g_{j} (n) = f_j(n) * sum_{m < n} g_{j+1}(m),

and the value is sum_n g_1(n).  g_j depends only on the suffix
(s_j, ..., s_k), so ``zeta_values`` evaluates a whole set of compositions
in one depth-first walk over the trie of their suffixes (``_walk``, the
only prefix-sum kernel; ``mpl_num`` and ``qmzv_num`` walk a single chain).
The walk's preorder is the sorted list of the suffixes read innermost part
first, in which a suffix's parent is the suffix without its outermost part.

The walk goes block by block over n = 1..N, in ceil(N / ``_LEAF``) blocks
of equal length (to within one element).  In each block the shared inputs
(n + x; for q-MZVs k and the q-bracket) and each distinct key's term block
f_j are computed once; every trie node then costs one multiply by its
parent's prefix sums and, only if a longer suffix extends it, one cumsum,
and each requested composition one numpy sum.  An inner node carries its
running prefix sum from block to block and starts its block's cumsum from
it, which is the order of one long cumsum.  A value is ``math.fsum`` of
its block sums, their exactly rounded sum (Shewchuk, Adaptive Precision
Floating-Point Arithmetic, DCG 18, 1997), with the real and imaginary
parts of a complex walk added apart.  So the bits depend on ``_LEAF`` and
on numpy's sum of one block, not on how numpy would reduce a whole array.
No length-N array is allocated: at most (max depth + distinct keys + a
few) blocks are live, since a node's prefix block is freed once its last
child has read it.  ``mpl_num`` walks in float64 when every letter is real
and in complex128 otherwise.

Powers of a real letter, of q and of n + x come from numpy's ``power``.
That is not libm's ``pow``: numpy 2.4.6 dispatching X86_V4 / AVX512_ICL
gives n ** -3.0 over n = 1..16384 unlike ``math.pow`` in 884 elements,
and n ** -2.0 unlike the correctly rounded 1/n^2 in 976.  So the bits of
zeta values, of the corpus and of its pinned digests rest on numpy's SIMD
dispatch; whether another CPU gives other bits is unverified.  Powers of
a complex letter take no ``cpow``, which cost about 190 ns each on a
shared 2-CPU Xeon against 6 ns for a real base: ``_powers`` builds each
block's powers from one scalar power by doubling, in complex multiplies.

The polylog and q-MZV walks stop early.  Where a power q^(k m) or z^n
falls below 2^-``_ZERO_BITS`` it is written as +0 without calling
``pow``, which returns an exact zero there anyway, and a power of a
letter equal to 1 (or q^0) is never computed.  From the first index where
the outermost power is zero, every outer summand is that zero times finite
factors in (0, 1] and prefix sums, so ``_walk``'s blocks cover only the
indices before it.  ``mpl_num`` with |z1| < 1 and ``qmzv_num`` thus
compute their live summands alone, in one block when there are at most
``_LEAF`` of them, whatever N or K is.  Every zero value is +0, as
``fsum`` returns for an exact zero.
The naive O(N^k) loop in exact rationals (``nested_sum_oracle``) is the
ground truth it is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compositions import check_composition, require_admissible


@dataclass
class EvalConfig:
    N: int = 100_000
    x: Fraction = Fraction(0)
    q: Fraction = Fraction(1, 2)
    K: int = 400

    def __post_init__(self):
        for name in ("N", "K"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"truncation {name} must be an integer")
        if self.N < 10:
            raise ValueError("truncation N must be >= 10")
        if self.K < 1:
            raise ValueError("truncation K must be >= 1")
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")
        # the walks compute in floats: a q that rounds to 0 or 1 takes the
        # log of 0 or divides by 1 - q = 0, and a huge x overflows
        if not 0.0 < float(self.q) < 1.0:
            raise ValueError("q must round to a float in (0, 1)")
        if self.x < 0:
            raise ValueError("Hurwitz offset x must be >= 0")
        try:
            finite = math.isfinite(float(self.x))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("Hurwitz offset x must round to a finite float")


@dataclass
class EvalResult:
    value: float
    tail_bound: float

    def to_json(self) -> dict:
        return {"value": self.value, "tail_bound": self.tail_bound}


#: Most elements per block of the walk.  Measured on a shared 2-CPU Xeon
#: with numpy 2.4.6, 2-5 processes per size, at sizes 2^12 .. 2^17: the
#: corpus's 12 builds' walks (N = 1e5) took 1.29-1.33, 1.13-1.14,
#: 1.02-1.31, 1.17-1.62, 1.39-1.77 and 1.73-2.03 s, zeta (2,2,2,2) at
#: N = 1e7 took 196-215, 180-184, 159-176, 166-193, 222-287 and 224-247 ms;
#: zeta (3,1,1) at N = 1e7 took 143-149 ms at 2^14 against 165-213 ms at
#: 2^15 (three processes each).  Smaller blocks pay numpy's per-call cost
#: more often; larger ones fall out of the cache.  Each size gives its own
#: last bits, since a value is the sum of its block sums: changing it
#: changes ``eval``'s and the corpus's bytes.
_LEAF = 1 << 14


#: Bits past which a power is written as an exact +0 without computing
#: it.  A true value below 2^-1100 is 2^-26 of the least subnormal double
#: (2^-1074), so ``pow`` already returns an exact zero there: its own
#: error, and the rounding of the cutoff below, are far inside those 26
#: bits.  ``tests/test_numeric_eval.py`` checks this premise.
_ZERO_BITS = 1100


def _first_zero(bits: float, size: int) -> int:
    """The first index i < size, holding n = i + 1, with n * bits >=
    ``_ZERO_BITS``, or ``size`` if there is none: from there on a power
    whose log2 falls by ``bits`` per step of n is an exact zero."""
    if bits <= 0:
        return size
    return min(size, max(0, math.ceil(_ZERO_BITS / bits) - 1))


def _powers(base, e, lo: int, zero_from: int, dtype):
    """``base ** e`` over the block of indices starting at ``lo``, with
    +0 written from index ``zero_from`` on and nothing computed there.

    A real base takes numpy's ``power``.  A complex base z, with
    e = lo + 1, lo + 2, ..., takes no ``cpow``: the block's first power
    z^(lo + 1) is the product, lowest bit first, of the squares z^(2^i)
    over the set bits of lo + 1, and then, for k = 1, 2, 4, ...,
    ``out[k:2k] = out[:k] * z^k`` over the live indices, z^k squared up
    in Python ``complex``.  Every block starts afresh, and the powers of
    +-1 and +-1j are exact."""
    out = np.zeros(len(e), dtype)
    live = min(len(e), max(0, zero_from - lo))
    if dtype != np.complex128:
        np.power(base, e[:live], out=out[:live])
    elif live:
        first, square, m = None, base, lo + 1
        while m:
            if m & 1:
                first = square if first is None else first * square
            m >>= 1
            square *= square
        out[0] = first
        k, zk = 1, base
        while k < live:
            np.multiply(out[:min(k, live - k)], zk, out=out[k:min(2 * k, live)])
            k, zk = 2 * k, zk * zk
    return out


def _walk(chains, size: int, dtype, block_terms, stop: float = math.inf) -> dict:
    """``{chain: sum_n g_1(n)}`` for each chain by one walk of the suffix trie.

    A chain lists the per-depth keys outermost first.  Blocks: [0, end),
    end = min(size, stop), cut into k = ceil(end / ``_LEAF``) blocks
    [end * i // k, end * (i + 1) // k), first to last.
    ``block_terms(lo, hi)`` computes a block's shared inputs once and
    returns ``level``, mapping a key to its term block f, which is computed
    once per distinct key.  The
    trie's nodes, the chains' suffixes sorted innermost key first, are then
    visited in that order, depth-first: a node's summands g are f times its
    parent's (its suffix less the outermost key) exclusive prefix sums, in
    a fresh array, so no block another node reads is written.

    Carry rule: an inner node carries its running prefix sum across blocks
    and its block cumsum starts from it (``carry + g[0]`` first, as one
    whole-array cumsum adds); the first block's carry is 0.0.
    A requested chain keeps one numpy sum per block, and its value is
    ``math.fsum`` of them, real and imaginary parts apart for complex128.
    No length-``size`` array is allocated: at most max depth + distinct
    keys + the shared inputs + 1 blocks are live, as a node's prefix block
    is freed once its last child has read it.

    Cutoff: the caller may pass ``stop`` when every outermost summand from
    index ``stop`` on is an exact zero; the blocks then end there, so a walk
    with at most ``_LEAF`` live summands computes one block, whatever
    ``size`` is.
    """
    # a path is a suffix read innermost key first; sorted, the paths are the
    # trie's preorder.  Only zeta_values passes several chains, with int keys;
    # one chain's paths are prefixes of one another, so mpl_num's complex
    # letters are never ordered.
    paths = sorted({chain[j:][::-1] for chain in chains for j in range(len(chain))})
    index = {path: i for i, path in enumerate(paths)}
    last_child = {path[:-1]: i for i, path in enumerate(paths)}  # by parent path
    wanted = {chain[::-1]: chain for chain in chains}
    # (key, parent's index or -1, is the parent's last child, chain or None, inner)
    nodes = [(path[-1], index.get(path[:-1], -1), last_child[path[:-1]] == i,
              wanted.get(path), path in last_child) for i, path in enumerate(paths)]
    sums = {chain: [] for chain in wanted.values()}
    carries = [0.0] * len(nodes)
    # Block lifetime: the previous block's arrays (``level``'s inputs and
    # ``terms``) are still alive while ``block_terms`` allocates the next
    # block's inputs, and the speed depends on it.  A walk that freed each
    # block's arrays before the next block was allocated gave the same bits
    # but ran slower on a shared 2-CPU Xeon: zeta (3,1) at N = 1e6 took
    # 31-38 ms, not 13-19 ms, and mpl (2,2) at z = (1,1), N = 2e6 took
    # 89-120 ms, not 30-41 ms.
    # With glibc's MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_ raised
    # for that process the two ran equal, which points at freed blocks going
    # back to the system and faulting in again.  A rework of the walk keeps
    # this.
    end = min(size, stop)
    count = -(-end // _LEAF)
    for b in range(count):
        lo, hi = end * b // count, end * (b + 1) // count
        level = block_terms(lo, hi)
        terms = {}
        # an inner node's buf: buf[:-1] its exclusive prefix sums, buf[-1] its next carry
        prefixes = {}
        for i, (key, parent, last, chain, inner) in enumerate(nodes):
            f = terms.get(key)
            if f is None:
                f = terms[key] = level(key)
            if inner:  # g is written where its cumsum goes
                buf = np.empty(hi - lo + 1, dtype)
                g = buf[1:]
            else:
                buf = g = None
            if parent >= 0:
                g = np.multiply(f, prefixes[parent][:-1], out=g)
                if last:
                    del prefixes[parent]  # its last child has read it
            elif inner:
                g[:] = f
            else:
                g = f
            if chain is not None:
                sums[chain].append(g.sum())
            if inner:
                buf[0] = carries[i]
                g[0] += buf[0]
                np.cumsum(g, out=g)
                carries[i] = buf[-1]
                prefixes[i] = buf
            del f, g, buf  # a leaf's summands go before the next node allocates
    if dtype == np.complex128:
        return {chain: complex(math.fsum(p.real for p in parts),
                               math.fsum(p.imag for p in parts))
                for chain, parts in sums.items()}
    return {chain: math.fsum(parts) for chain, parts in sums.items()}


def _zeta_tail(s: tuple, N: int) -> float:
    """The truncation bound of zeta(s) at N; it needs no walk, so a bound
    that overflows raises ``OverflowError`` before any term is summed."""
    return 2.0 * math.log(N) ** (len(s) - 1) * N ** (1 - s[0]) / (s[0] - 1)


def zeta_values(comps, cfg: EvalConfig | None = None) -> dict:
    """``{comp: EvalResult}`` for every composition, by one suffix-trie walk."""
    cfg = cfg or EvalConfig()
    comps = [tuple(s) for s in comps]
    for s in comps:
        require_admissible(s)
    tails = {s: _zeta_tail(s, cfg.N) for s in comps}
    x = float(cfg.x)

    def block_terms(lo, hi):
        n = np.arange(lo + 1, hi + 1, dtype=np.float64) + x
        return lambda sj: n ** float(-sj)

    values = _walk(comps, cfg.N, np.float64, block_terms)
    return {s: EvalResult(value=values[s], tail_bound=tails[s]) for s in comps}


def zeta_num(s: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated multiple (Hurwitz) zeta value by the prefix-sum recursion."""
    s = tuple(s)
    return zeta_values((s,), cfg)[s]


def mpl_num(s: tuple, z: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated multiple polylogarithm / Lerch sum.

    Convergence precondition: |z1| < 1, or z1 = 1 with s1 >= 2, and
    |z_i| <= 1 for the inner letters.  The exponents must be positive
    integers, so every (n + x)^(-s_j) lies in (0, 1].

    The walk is in float64 when every letter is real, and in complex128
    otherwise.  A letter equal to 1 computes no power, and a letter's
    power z^n is written as +0 from the first n with
    n * log2(1/|z|) >= ``_ZERO_BITS`` on; the walk stops at the outer
    letter's first zero, past which every summand is zero times finite
    factors.  A complex letter's powers are built by doubling
    (``_powers``).
    """
    cfg = cfg or EvalConfig()
    check_composition(s)
    if len(z) != len(s):
        raise ValueError("need one z per exponent")
    z = tuple(complex(w) for w in z)
    for i, w in enumerate(z, 1):
        if not cmath.isfinite(w):
            raise ValueError(f"letter z{i} = {w} is not finite")
    if abs(z[0]) > 1 or (abs(z[0]) == 1 and not (z[0] == 1 and s[0] >= 2)):
        raise ValueError("outer letter violates convergence: need |z1| < 1 "
                         "or z1 = 1 with s1 >= 2")
    if any(abs(w) > 1 for w in z[1:]):
        raise ValueError("inner letters need |z| <= 1")
    r = abs(z[0])
    # z1 = 1 comes with s1 >= 2, where zeta's bound holds
    tail = r ** cfg.N / (1 - r) * cfg.N ** (-s[0]) if r < 1 else _zeta_tail(s, cfg.N)
    real = all(w.imag == 0 for w in z)
    dtype = np.float64 if real else np.complex128
    if real:
        z = tuple(w.real for w in z)
    x = float(cfg.x)
    zero_from = {w: _first_zero(-math.log2(abs(w)) if w else math.inf, cfg.N)
                 for w in set(z)}

    def block_terms(lo, hi):
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        shifted = n + x
        z_pow = {w: _powers(w, n, lo, zero_from[w], dtype) for w in zero_from if w != 1}
        s_pow = {sj: shifted ** float(-sj) for sj in set(s)}
        return lambda key: (s_pow[key[0]] if key[1] == 1
                            else z_pow[key[1]] * s_pow[key[0]])

    chain = tuple(zip(s, z))  # one key (s_j, z_j) per depth
    total = _walk((chain,), cfg.N, dtype, block_terms, zero_from[z[0]])[chain]
    return EvalResult(value=total if real else abs(total), tail_bound=tail)


def qmzv_num(s: tuple, cfg: EvalConfig | None = None) -> EvalResult:
    """Truncated q-MZV: sum over K >= k1 > ... > kd > 0 of
    q^(sum k_i (s_i - 1)) / prod [k_i]_q^(s_i).

    Each power q^(k m) is written as +0 from the first k with
    k * m * log2(1/q) >= ``_ZERO_BITS`` on, q^0 is never computed, and the
    walk stops where the outer power q^(k (s1 - 1)) turns zero.
    """
    cfg = cfg or EvalConfig()
    require_admissible(s)
    q = float(cfg.q)
    bits = -math.log2(q)

    def powers(k, lo, m):  # q ** (k * m) for m >= 1
        return _powers(q, k * m, lo, _first_zero(m * bits, cfg.K), np.float64)

    def block_terms(lo, hi):
        k = np.arange(lo + 1, hi + 1, dtype=np.float64)
        q_k = powers(k, lo, 1)
        bracket = (1.0 - q_k) / (1.0 - q)
        # q^(k (sj - 1)): q^k is the bracket's own block
        return lambda sj: (1.0 if sj == 1 else q_k if sj == 2
                           else powers(k, lo, sj - 1)) / bracket**sj

    chain = tuple(s)
    value = _walk((chain,), cfg.K, np.float64, block_terms, qmzv_stop(s, cfg))[chain]
    tail = q ** (cfg.K * (s[0] - 1)) * cfg.K * (1.0 - q) ** sum(s)
    return EvalResult(value=value, tail_bound=tail)


def qmzv_stop(s: tuple, cfg: EvalConfig) -> int:
    """How many k the q-MZV walk of ``s`` visits: K, or fewer where the
    outer power q^(k (s1 - 1)) turns zero."""
    return _first_zero((s[0] - 1) * -math.log2(float(cfg.q)), cfg.K)


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
