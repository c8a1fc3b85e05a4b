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

The walk goes block by block over n = 1..N.  The leaves are those of
numpy's pairwise-summation tree cut at ``_LEAF`` elements: numpy splits a
run of n float64 after h - h % 8 elements (h = n // 2) and a run of n
complex128 after (n - n % 8) // 2.  A block is a run of whole consecutive
leaves of at most ``_LEAF`` elements; without a cutoff (below) every leaf
is longer than half of that, so each block is one leaf.  In each block the
shared inputs (n + x; for q-MZVs k and the q-bracket) and each distinct
key's term block f_j are computed once; every trie node then costs one
multiply by its parent's prefix sums and, only if a longer suffix extends
it, one cumsum, and each requested composition one sum per leaf.  The bits
are those of whole-array arithmetic: an inner node carries its running
prefix sum from block to block and starts its block's cumsum from it,
which is the order of one long cumsum, and a value adds its leaf sums back
along numpy's tree, which is the order of ``terms.sum()``.  No length-N
array is allocated: at most (max depth + distinct keys + a few) blocks are
live, since a node's prefix block is freed once its last child has read it.

The polylog and q-MZV walks stop early.  Where a power q^(k m) or z^n
falls below 2^-``_ZERO_BITS`` it is written as +0 without calling ``pow``
or ``cpow``, which return an exact zero there anyway, and a power of a
letter equal to 1 (or q^0) is written as an exact 1.  From the first
index where the outermost power is zero, every outer summand is that zero
times finite factors in (0, 1] and prefix sums, so ``_walk`` leaves out
each subtree of numpy's tree that starts there, and cuts the leaf that
holds the cutoff along that tree down to one run of numpy's unrolled
kernel (``_KERNEL``).  Those cut leaves, at most about
log2(_LEAF / _KERNEL) of them, join one block with each other and any
earlier leaf that fits.  So ``mpl_num`` with |z1| < 1 and ``qmzv_num``
compute their live summands plus less than one kernel run, in one block
when the cutoff lies within ``_LEAF`` elements, whatever N or K is.  Nonzero
values are unchanged bit for bit, since adding a zero leaves a nonzero
sum unchanged.  A zero value keeps its sign too for q-MZVs, whose zeros are
all +0, and does not show it for complex polylogs, which report ``abs``;
for a real polylog whose summands are all zeros the sign bit rests on
the bitwise tests, which compare it.
The naive O(N^k) loop in exact rationals (``nested_sum_oracle``) is the
ground truth it is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .identity_engine import check_composition
from .mzv_calculus import require_admissible


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


#: Elements per block of the walk, where it stops cutting numpy's
#: pairwise-sum tree.  Measured on a 2-CPU Xeon with numpy 2.4.6, two runs
#: each, at leaf sizes 2^12 .. 2^17: the corpus's 12 builds' walks
#: (N = 1e5) took 2.4, 1.8-1.9, 1.5-1.7, 1.65-1.9, 1.8-2.3 and 2.6-3.0 s,
#: zeta (2,2,2,2) at N = 1e7 took 375, 300, 255, 220-250, 255-275 and
#: 290-330 ms.  Smaller blocks pay numpy's per-call cost more often;
#: larger ones fall out of the cache.  Every size gives the same bits.
_LEAF = 1 << 15


def _split(n: int, dtype) -> int:
    """Where numpy's pairwise sum splits a run of n elements: its kernel
    halves the run rounded down to its 8-way unroll, counted in float64
    components, so a complex128 run splits after (n - n % 8) // 2."""
    if dtype == np.complex128:
        return (n - n % 8) // 2
    h = n // 2
    return h - h % 8


#: float64 components numpy's pairwise sum adds in one unrolled loop, its
#: PW_BLOCKSIZE: 128 float64 or 64 complex128 elements.  numpy never splits
#: a run this short, so neither may the walk.
_KERNEL = 128


def _is_leaf(lo: int, n: int, dtype, stop: float) -> bool:
    """Whether the walk sums the run ``[lo, lo + n)`` as one block: it is at
    most ``_LEAF`` long and either ends by ``stop`` or fits numpy's unrolled
    kernel, so a leaf holding the cutoff is split down to one kernel run."""
    components = 2 * n if dtype == np.complex128 else n
    return n <= _LEAF and (lo + n <= stop or components <= _KERNEL)


def _leaves(n: int, dtype, lo: int = 0, stop: float = math.inf) -> list:
    """The ``[lo, hi)`` runs, in order, at which ``_is_leaf`` stops cutting
    numpy's pairwise-sum tree over n elements, leaving out every subtree
    that starts at or after ``stop``."""
    if lo >= stop:
        return []
    if _is_leaf(lo, n, dtype, stop):
        return [(lo, lo + n)]
    h = _split(n, dtype)
    return _leaves(h, dtype, lo, stop) + _leaves(n - h, dtype, lo + h, stop)


def _tree_sum(sums: list, n: int, dtype, stop: float = math.inf):
    """Add the leaves' sums back along the tree ``_leaves`` cut them from;
    this is ``terms.sum()`` of the whole array, bit for bit, since both
    stop cutting where ``_is_leaf`` says.  A subtree ``_leaves`` left out
    counts as one +0."""
    sums = iter(sums)
    zero = np.dtype(dtype).type(0)

    def node(lo, n):
        if lo >= stop:
            return zero
        if _is_leaf(lo, n, dtype, stop):
            return next(sums)
        h = _split(n, dtype)
        return node(lo, h) + node(lo + h, n - h)

    return node(0, n)


#: Bits past which a power is written as an exact +0 without calling
#: ``pow`` or ``cpow``.  A true value below 2^-1100 is 2^-26 of the least
#: subnormal double (2^-1074), so both already return an exact zero there:
#: their own error, and the rounding of the cutoff below, are far inside
#: those 26 bits.  ``tests/test_numeric_eval.py`` checks this premise.
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
    +0 written from index ``zero_from`` on instead of calling ``pow``."""
    out = np.zeros(len(e), dtype)
    live = min(len(e), max(0, zero_from - lo))
    np.power(base, e[:live], out=out[:live])
    return out


def _walk(chains, size: int, dtype, block_terms, stop: float = math.inf) -> dict:
    """``{chain: sum_n g_1(n)}`` for each chain by one walk of the suffix trie.

    A chain lists the per-depth keys outermost first.  Blocks: the leaves
    of numpy's pairwise-sum tree over [0, size) (``_leaves``, split by
    ``_split`` for ``dtype``), first to last, consecutive leaves joining
    one block while it stays within ``_LEAF`` elements; without ``stop``
    every leaf is longer than half of that, so none join.
    ``block_terms(lo, hi)`` computes a block's shared inputs once and
    returns ``level``, mapping a key to its term block f, which is computed
    once per distinct key.  The
    trie's nodes, the chains' suffixes sorted innermost key first, are then
    visited in that order, depth-first: a node's summands g are f times its
    parent's (its suffix less the outermost key) exclusive prefix sums, in
    a fresh array, so no block another node reads is written.

    Carry rule: an inner node carries its running prefix sum across blocks
    and its block cumsum starts from it (``carry + g[0]`` first, as one
    whole-array cumsum adds); the first block has none, so a -0.0 stays.
    A requested chain keeps one sum per leaf, over its slice of the block,
    and adds them back along the tree, numpy's own order for
    ``terms.sum()`` (``_tree_sum``).  Hence every
    value is bit-identical to whole-array arithmetic.  No length-``size``
    array is allocated: at most max depth + distinct keys + the shared
    inputs + 1 blocks are live, as a node's prefix block is freed once its
    last child has read it.

    Cutoff: the caller may pass ``stop`` when every outermost summand from
    index ``stop`` on is an exact zero.  Subtrees that start at or after it
    are not visited and each counts as one +0 in the sums, and the leaf
    that holds it is cut down to one kernel run (``_is_leaf``), so the
    blocks cover the live summands and less than one kernel run past them.
    The cut leaves join one block, so a walk whose live summands and that
    kernel run fit in ``_LEAF`` elements computes one block, whatever the
    number of leaves it sums.
    A nonzero value stays bit-identical, as adding a zero leaves a nonzero
    sum unchanged; a value whose summands are all zeros stays a zero, and
    +0 if they all are.
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
    # block's inputs, and the speed depends on it.  One recursion over the tree in place of
    # ``_leaves`` and ``_tree_sum``, which freed each leaf's arrays before
    # the next block was allocated, gave the same bits but ran slower on a
    # shared 2-CPU Xeon: zeta (3,1) at N = 1e6 took 31-38 ms, not 13-19 ms,
    # and mpl (2,2) at z = (1,1), N = 2e6 took 89-120 ms, not 30-41 ms.
    # With glibc's MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_ raised
    # for that process the two ran equal, which points at freed blocks going
    # back to the system and faulting in again.  A rework of the walk keeps
    # this.
    blocks = []  # each a run of whole leaves, listed by its bounds
    for lo, hi in _leaves(size, dtype, stop=stop):
        if blocks and hi - blocks[-1][0] <= _LEAF:
            blocks[-1].append(hi)
        else:
            blocks.append([lo, hi])
    for bounds in blocks:
        lo, hi = bounds[0], bounds[-1]
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
            if chain is not None:  # one sum per leaf
                sums[chain] += [g[a - lo:b - lo].sum() for a, b in zip(bounds, bounds[1:])]
            if inner:
                buf[0] = carries[i]
                if lo:
                    g[0] += buf[0]
                np.cumsum(g, out=g)
                carries[i] = buf[-1]
                prefixes[i] = buf
            del f, g, buf  # a leaf's summands go before the next node allocates
    return {chain: _tree_sum(parts, size, dtype, stop).item()
            for chain, parts in sums.items()}


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

    A letter equal to 1 gets exact ones in place of ``cpow``, and a
    letter's power z^n is written as +0 from the first n with
    n * log2(1/|z|) >= ``_ZERO_BITS`` on; the walk stops at the outer
    letter's first zero, past which every summand is zero times finite
    factors.
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
    x = float(cfg.x)
    zero_from = {w: _first_zero(-math.log2(abs(w)) if w else math.inf, cfg.N)
                 for w in set(z)}

    def block_terms(lo, hi):
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        shifted = n + x
        # exact zeros, and a unit letter's exact ones as the real block cast
        # to complex128 like cpow's: the term blocks are summed along numpy's
        # complex tree, which splits unlike the float one
        z_pow = {w: _powers(w, n, lo, zero_from[w], np.complex128)
                 for w in zero_from if w != 1}
        s_pow = {sj: shifted ** float(-sj) for sj in set(s)}
        return lambda key: (s_pow[key[0]].astype(np.complex128) if key[1] == 1
                            else z_pow[key[1]] * s_pow[key[0]])

    chain = tuple(zip(s, z))  # one key (s_j, z_j) per depth
    total = _walk((chain,), cfg.N, np.complex128, block_terms, zero_from[z[0]])[chain]
    value = total.real if all(w.imag == 0 for w in z) else abs(total)
    return EvalResult(value=value, tail_bound=tail)


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
    stop = _first_zero((s[0] - 1) * bits, cfg.K)
    value = _walk((chain,), cfg.K, np.float64, block_terms, stop)[chain]
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
