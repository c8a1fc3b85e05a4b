import cmath
import itertools
import math
import platform
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbmzv.compositions import InadmissibleError
from rbmzv.mzv_calculus import (
    Relation,
    double_shuffle_relation,
    hoffman_partition_relation,
    q_stuffle,
    spitzer_zeta_relation,
)
from rbmzv.numeric_eval import (
    EvalConfig,
    EvalResult,
    mpl_num,
    nested_sum_oracle,
    qmzv_num,
    zeta_num,
    zeta_values,
)
from rbmzv import corpus
from rbmzv import numeric_eval
from rbmzv.corpus import eval_relation
from rbmzv.numeric_eval import _LEAF, _first_zero, _walk


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.N == 100_000 and cfg.q == Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(N=5)
        with pytest.raises(ValueError):
            EvalConfig(q=Fraction(3, 2))
        with pytest.raises(ValueError):
            EvalConfig(x=Fraction(-1))

    @pytest.mark.parametrize("K", [0, -3])
    def test_truncation_k_positive(self, K):
        with pytest.raises(ValueError, match="K must be >= 1"):
            EvalConfig(K=K)

    @pytest.mark.parametrize("field, value", [
        ("x", Fraction(10**400)),
        ("x", math.inf),
        ("q", Fraction(1, 10**400)),
        ("q", 1 - Fraction(1, 10**400)),
    ], ids=["x-overflows", "x-infinite", "q-rounds-to-0", "q-rounds-to-1"])
    def test_value_without_a_usable_float(self, field, value):
        # exact, and in range, but the float walks cannot use it
        with pytest.raises(ValueError, match=f"{field} must round to a"):
            EvalConfig(**{field: value})

    @pytest.mark.parametrize("name", ["N", "K"])
    @pytest.mark.parametrize("value", [100.5, 100.0, Fraction(201, 2)])
    def test_truncation_integral(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EvalConfig(**{name: value})

    def test_fractional_n_depth_one(self):
        # summed 101 terms but reported the tail bound at N = 100.5
        with pytest.raises(ValueError, match="N must be an integer"):
            zeta_num((2,), EvalConfig(N=100.5))

    def test_fractional_n_depth_two(self):
        # raised a numpy TypeError from inside the walk
        with pytest.raises(ValueError, match="N must be an integer"):
            zeta_num((2, 1), EvalConfig(N=100.5))


class TestZetaNum:
    def test_matches_oracle_depth_one(self):
        cfg = EvalConfig(N=150)
        got = zeta_num((2,), cfg).value
        assert abs(got - float(nested_sum_oracle((2,), 150))) < 1e-12

    def test_matches_oracle_depth_two(self):
        cfg = EvalConfig(N=80)
        got = zeta_num((2, 1), cfg).value
        assert abs(got - float(nested_sum_oracle((2, 1), 80))) < 1e-12

    def test_matches_oracle_depth_three(self):
        cfg = EvalConfig(N=40)
        got = zeta_num((3, 1, 1), cfg).value
        assert abs(got - float(nested_sum_oracle((3, 1, 1), 40))) < 1e-13

    def test_hand_value_small(self):
        # sum over 3 >= n1 > n2 >= 1 of 1/(n1^2 n2^2) = 1/4 + 1/9 + 1/36
        assert nested_sum_oracle((2, 2), 3) == Fraction(7, 18)

    def test_monotone_in_truncation(self):
        values = [zeta_num((2,), EvalConfig(N=n)).value for n in (100, 1000, 10000)]
        assert values[0] < values[1] < values[2] < math.pi**2 / 6

    def test_converges_to_basel(self):
        r = zeta_num((2,), EvalConfig(N=100_000))
        assert abs(r.value - math.pi**2 / 6) < r.tail_bound

    def test_hurwitz_shift(self):
        cfg = EvalConfig(N=120, x=Fraction(1, 2))
        got = zeta_num((2,), cfg).value
        assert abs(got - float(nested_sum_oracle((2,), 120, Fraction(1, 2)))) < 1e-12

    def test_divergent_refused(self):
        with pytest.raises(InadmissibleError):
            zeta_num((1, 2))


class TestMplNum:
    def test_z_one_matches_zeta_bitwise(self):
        cfg = EvalConfig(N=500)
        assert mpl_num((2, 1), (1, 1), cfg).value == zeta_num((2, 1), cfg).value

    def test_log_two(self):
        # Li_1(1/2) = log 2
        got = mpl_num((1,), (0.5,), EvalConfig(N=200))
        assert abs(got.value - math.log(2)) < got.tail_bound + 1e-15

    def test_zero_argument(self):
        assert mpl_num((2,), (0.0,), EvalConfig(N=50)).value == 0.0

    def test_convergence_preconditions(self):
        with pytest.raises(ValueError):
            mpl_num((1,), (1,))
        with pytest.raises(ValueError):
            mpl_num((2,), (1.5,))
        with pytest.raises(ValueError):
            mpl_num((2, 1), (0.5, 2.0))
        with pytest.raises(ValueError):
            mpl_num((2, 1), (0.5,))

    @pytest.mark.parametrize("z, bad", [
        ((0.5, math.nan), "z2"),
        ((math.nan, 1.0), "z1"),
        ((0.5, complex(0.1, math.nan)), "z2"),
    ], ids=["inner", "outer", "complex"])
    def test_non_finite_letter_named(self, z, bad):
        # a NaN letter passed the |z| checks and failed in _first_zero
        with pytest.raises(ValueError, match=f"letter {bad} = .* is not finite"):
            mpl_num((2, 1), z, EvalConfig(N=10))

    def test_complex_inner_letter(self):
        got = mpl_num((2, 1), (0.5, 1j), EvalConfig(N=100))
        assert got.value >= 0.0

    @pytest.mark.parametrize("s", [(0,), (-1,), (2, -1), (2.5,), (-200,)])
    def test_exponents_positive_integers(self, s):
        # (-200,) let an OverflowError escape; (2, -1) was summed with a
        # tail bound that ignored the growing inner factor
        with pytest.raises(ValueError, match="not a composition"):
            mpl_num(s, (0.5,) * len(s), EvalConfig(N=50))


def qmzv_loop(s, q, K):
    """Direct nested loop over K >= k1 > ... > kd > 0 in exact rationals."""

    def bracket(k):
        return (1 - q**k) / (1 - q)

    def rec(i, upper):
        if i == len(s):
            return Fraction(1)
        total = Fraction(0)
        for k in range(len(s) - i, upper):
            total += rec(i + 1, k) * q ** (k * (s[i] - 1)) / bracket(k) ** s[i]
        return total

    return rec(0, K + 1)


class TestQmzvNum:
    def test_matches_direct_loop(self):
        q = Fraction(1, 2)
        cfg = EvalConfig(K=30, q=q)
        for s in [(2,), (3,), (2, 1), (2, 2)]:
            assert abs(qmzv_num(s, cfg).value - float(qmzv_loop(s, q, 30))) < 1e-12

    def test_q_stuffle_relation_exact_at_matched_truncation(self):
        # product of truncated q-sums equals the q-stuffle expansion of the
        # product, so the residual is pure float rounding
        q = Fraction(1, 2)
        cfg = EvalConfig(K=200, q=q)
        lhs = qmzv_num((2,), cfg).value * qmzv_num((3,), cfg).value
        rhs = 0.0
        for comp, coef in q_stuffle((2,), (3,)).items():
            c = coef if isinstance(coef, int) else coef.evaluate(q)
            rhs += float(c) * qmzv_num(comp, cfg).value
        assert abs(lhs - rhs) < 1e-10

    def test_q_to_one_drift(self):
        # q-value at q -> 1 approaches the classical truncated sum
        target = zeta_num((2,), EvalConfig(N=60)).value
        errs = []
        for q in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            errs.append(abs(qmzv_num((2,), EvalConfig(K=60, q=q)).value - target))
        assert errs[0] > errs[1] > errs[2]

    def test_divergent_refused(self):
        with pytest.raises(InadmissibleError):
            qmzv_num((1,))


class TestOracle:
    def test_truncation_cap(self):
        with pytest.raises(ValueError):
            nested_sum_oracle((2,), 500)

    def test_depth_one_harmonic(self):
        assert nested_sum_oracle((1,), 4) == Fraction(25, 12)

    def test_strict_ordering(self):
        # depth 2 at N=2: only (n1, n2) = (2, 1) contributes
        assert nested_sum_oracle((2, 3), 2) == Fraction(1, 4)


class TestEvalRelation:
    @staticmethod
    def compositions(r):
        """A relation's distinct compositions, in order of first appearance."""
        return list(dict.fromkeys(c for m, _ in r.terms for c in m))

    def residual(self, r, cfg):
        return eval_relation(r, zeta_values(self.compositions(r), cfg))

    def test_empty_relation(self):
        assert eval_relation(Relation((), "empty"), {}) == 0.0

    def test_double_shuffle_residual(self):
        r = double_shuffle_relation((2,), (2,))
        assert self.residual(r, EvalConfig(N=20_000)) < 1e-4

    def test_hoffman_residual_tiny(self):
        # stuffle-derived, exact at matched truncation
        r = hoffman_partition_relation((2, 3))
        assert self.residual(r, EvalConfig(N=5000)) < 1e-10

    def test_spitzer_residual_tiny(self):
        r = spitzer_zeta_relation(2, 3)
        assert self.residual(r, EvalConfig(N=5000)) < 1e-10

    def test_precomputed_values_used(self):
        cfg = EvalConfig(N=1000)
        r = hoffman_partition_relation((2, 2))
        values = zeta_values(self.compositions(r), cfg)
        assert (2, 2) in values and (4,) in values
        # the corpus build passes one walk's values for many relations
        shared = zeta_values(self.compositions(r) + [(3,), (2, 1)], cfg)
        assert eval_relation(r, shared) == eval_relation(r, values)
        ones = {comp: EvalResult(1.0, 0.0) for comp in values}
        assert eval_relation(r, ones) == abs(sum(float(c) for _, c in r.terms))


# --- the suffix-trie walk against the per-composition recursion -----------
#
# The references below evaluate one composition at a time by the plain
# recursion over whole arrays: per-level term arrays innermost first, each
# level multiplied by the exclusive prefix sums cumsum(g[:-1]) of the level
# inside it, over the indices before the walk's cutoff.  They then add the
# summands in the walk's documented order: one numpy sum per block, and
# math.fsum of the block sums.  The walk shares suffixes and goes block by
# block, but must reproduce them bit for bit.


def _blocks(end):
    """The walk's blocks over [0, end): ceil(end / _LEAF) of them, of equal
    length to within one element."""
    count = -(-end // _LEAF)
    return [(end * b // count, end * (b + 1) // count) for b in range(count)]


def documented_sum(terms):
    """``terms`` added in the walk's order: a numpy sum per block, then
    ``math.fsum`` of those, real and imaginary parts apart."""
    sums = [terms[lo:hi].sum() for lo, hi in _blocks(len(terms))]
    if terms.dtype == np.complex128:
        return complex(math.fsum(p.real for p in sums), math.fsum(p.imag for p in sums))
    return math.fsum(sums)


def _exclusive_nested(levels):
    cur = levels[0]
    for f in levels[1:]:
        # f times prefix, in _walk's operand order (see TestBlockWalk)
        cur = np.multiply(f, np.concatenate(([0.0], np.cumsum(cur[:-1]))))
    return cur


def zeta_reference(s, cfg):
    n = np.arange(1, cfg.N + 1, dtype=np.float64) + float(cfg.x)
    return documented_sum(_exclusive_nested([n ** float(-sj) for sj in reversed(s)]))


def doubled_powers(w, stop, N):
    """w^1 .. w^stop by the documented per-block doubling, +0 from w's own
    first zero on: in each block [lo, hi), w^(lo + 1) is the product,
    lowest bit first, of the squares w^(2^i) over the set bits of lo + 1,
    and the offsets j in [k, 2k) are w^(lo + 1 + j - k) times w^k."""
    zero_from = _first_zero(-math.log2(abs(w)) if w else math.inf, N)
    p = np.zeros(stop, np.complex128)
    for lo, hi in _blocks(stop):
        live = min(hi, zero_from) - lo
        if live <= 0:
            continue
        squares = [w]  # w^(2^i)
        while len(squares) < max(lo + 1, live).bit_length():
            squares.append(squares[-1] * squares[-1])
        bits = [i for i in range(len(squares)) if (lo + 1) >> i & 1]
        first = squares[bits[0]]
        for i in bits[1:]:
            first *= squares[i]
        p[lo] = first
        for i in range((live - 1).bit_length()):
            k = 1 << i
            width = min(k, live - k)
            p[lo + k:lo + k + width] = p[lo:lo + width] * squares[i]
    return p


def mpl_reference(s, z, cfg):
    z = [complex(w) for w in z]
    real = all(w.imag == 0 for w in z)
    if real:  # a real walk is a float64 walk
        z = [w.real for w in z]
    stop = _first_zero(-math.log2(abs(z[0])) if z[0] else math.inf, cfg.N)
    n = np.arange(1, stop + 1, dtype=np.float64)
    shifted = n + float(cfg.x)
    if real:
        powers = [np.power(zj, n) for zj in z]
    else:  # a complex walk doubles its powers and computes none of 1
        powers = [np.ones(stop, np.complex128) if zj == 1 else doubled_powers(zj, stop, cfg.N)
                  for zj in z]
    terms = _exclusive_nested([pj * shifted ** float(-sj)
                               for sj, pj in zip(reversed(s), reversed(powers))])
    total = documented_sum(terms)
    return total if real else abs(total)


def qmzv_reference(s, cfg):
    q = float(cfg.q)
    stop = _first_zero((s[0] - 1) * -math.log2(q), cfg.K)
    k = np.arange(1, stop + 1, dtype=np.float64)
    bracket = (1.0 - q**k) / (1.0 - q)
    return documented_sum(_exclusive_nested([q ** (k * (sj - 1)) / bracket**sj
                                             for sj in reversed(s)]))


@st.composite
def composition_sets(draw):
    """Admissible compositions built on a few shared suffixes."""
    parts = st.integers(1, 4)
    stems = draw(st.lists(st.lists(parts, max_size=3).map(tuple),
                          min_size=1, max_size=3))
    comps = []
    for _ in range(draw(st.integers(1, 8))):
        stem = draw(st.sampled_from(stems))
        middle = tuple(draw(st.lists(parts, max_size=2)))
        comps.append((draw(st.integers(2, 5)),) + middle + stem)
    return comps


#: N or K of several blocks, one element apart in length; the cutoff cases
#: below are placed for this N
MULTI_BLOCK = 3 * 2**15 + 5
#: N or K of one short block, one full block of ``_LEAF``, two blocks and
#: four blocks
BLOCK_EDGE_N = [10, _LEAF, _LEAF + 1, 3 * _LEAF + 7]
SHARED_SUFFIXES = [(2,), (3, 1), (2, 1, 1), (4, 2, 1), (2, 2, 1, 1), (5, 1)]
MPL_CASES = [
    ((2, 1), (0.5, 1)),
    ((1, 2, 1), (0.3, -0.5, 0.9)),
    ((3, 1, 1), (1, 1, 1)),
    ((2, 1), (0.5, 1j)),
    ((3,), (0.7j,)),
    ((2, 2, 1), (0.4 + 0.3j, -1, 1j)),
]


class TestZetaValues:
    @given(composition_sets(), st.integers(10, 300),
           st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5, 2)]))
    @example(SHARED_SUFFIXES, MULTI_BLOCK, Fraction(1, 3))
    @example(SHARED_SUFFIXES, MULTI_BLOCK, Fraction(0))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_composition_recursion(self, comps, N, x):
        cfg = EvalConfig(N=N, x=x)
        got = zeta_values(comps, cfg)
        assert list(got) == list(dict.fromkeys(comps))
        for s in comps:
            assert got[s].value == zeta_reference(s, cfg)
            assert got[s] == zeta_num(s, cfg)

    def test_divergent_refused(self):
        with pytest.raises(InadmissibleError):
            zeta_values([(2, 1), (1, 2)])

    @pytest.mark.parametrize("s, z, N", [
        pytest.param(s, z, N, id=f"s{i}-z{i}" + ("" if N == 3000 else f"-N{N}"))
        for N in (3000, MULTI_BLOCK) for i, (s, z) in enumerate(MPL_CASES)
    ])
    def test_mpl_bitwise(self, s, z, N):
        cfg = EvalConfig(N=N, x=Fraction(1, 4))
        assert mpl_num(s, z, cfg).value == mpl_reference(s, z, cfg)

    @pytest.mark.parametrize("s", [(2,), (3, 1), (2, 1, 1), (4, 2, 3, 1)])
    @pytest.mark.parametrize("K", [  # ids kept stable for test histories
        pytest.param(K, id="False" + ("" if K == 500 else f"-K{K}"))
        for K in (500, MULTI_BLOCK)
    ])
    def test_qmzv_bitwise(self, s, K):
        cfg = EvalConfig(K=K, q=Fraction(2, 3))
        assert qmzv_num(s, cfg).value == qmzv_reference(s, cfg)

    # z1 = 1 walks to N; |z1| = 0.3 stops at index 633 when N is larger
    @pytest.mark.parametrize("s, z", [
        ((3, 1, 2), (1, 1, 1)), ((2, 1), (0.3, -1)),
        ((3, 1, 2), (1, 1j, 1)), ((2, 1), (0.3j, -1)),
    ], ids=["float", "float-cut", "complex", "complex-cut"])
    @pytest.mark.parametrize("N", BLOCK_EDGE_N)
    def test_mpl_bitwise_at_block_edges(self, s, z, N):
        cfg = EvalConfig(N=N, x=Fraction(1, 4))
        assert _same_bits(mpl_num(s, z, cfg).value, mpl_reference(s, z, cfg))

    @pytest.mark.parametrize("N", BLOCK_EDGE_N)
    def test_zeta_and_qmzv_bitwise_at_block_edges(self, N):
        cfg = EvalConfig(N=N, K=N, x=Fraction(1, 3), q=Fraction(19, 20))
        assert zeta_num((3, 1, 2), cfg).value == zeta_reference((3, 1, 2), cfg)
        # at q = 19/20, (2, 1) stops at index 14,864 and (3, 2, 1) at 7,432
        # when K is larger
        for s in [(2, 1), (3, 2, 1)]:
            assert _same_bits(qmzv_num(s, cfg).value, qmzv_reference(s, cfg))


def _same_bits(got, want):
    return got == want and math.copysign(1, got) == math.copysign(1, want)


def _cutoff_place(first_zero, n):
    """Where a walk over n elements stops: in its first block without a
    cutoff, in a later one, or past n (no stop)."""
    if first_zero >= n:
        return "past"
    return "first" if first_zero < _blocks(n)[0][1] else "middle"


#: outer letters whose powers turn zero in the first block, in a later
#: block, or only past MULTI_BLOCK; 0.999 turns zero in a later block at
#: N = 10^6
CUTOFF_Z1 = [0.999, -0.999, 1e-300, -1e-300, 0.9j, 0.3 + 0.4j, 0.981, -0.981j]
CUTOFF_SHAPES = [((2,), ()), ((2, 1), (1,)), ((1, 2, 1), (-1, 0.5j))]


class TestCutoff:
    """The walks stop where the outer summands are exact zeros and write
    zeros and skip the powers of 1; every value, sign bit included, stays
    that of whole-array arithmetic up to the cutoff, added in the walk's
    documented order."""

    def test_cases_place_the_cutoff_everywhere(self):
        places = {_cutoff_place(_first_zero(-math.log2(abs(z1)), MULTI_BLOCK),
                                MULTI_BLOCK) for z1 in CUTOFF_Z1}
        assert places == {"first", "middle", "past"}
        cut = _first_zero(-math.log2(0.999), 10**6)
        assert _cutoff_place(cut, 10**6) == "middle"

    @pytest.mark.parametrize("z1", CUTOFF_Z1, ids=str)
    @pytest.mark.parametrize("s, inner", CUTOFF_SHAPES, ids=["d1", "d2", "d3"])
    def test_mpl_bitwise(self, s, inner, z1):
        cfg = EvalConfig(N=MULTI_BLOCK, x=Fraction(1, 4))
        z = (z1,) + inner
        assert _same_bits(mpl_num(s, z, cfg).value, mpl_reference(s, z, cfg))

    def test_mpl_bitwise_long(self):
        cfg = EvalConfig(N=10**6)
        s, z = (2, 1), (0.999, 1)
        assert _same_bits(mpl_num(s, z, cfg).value, mpl_reference(s, z, cfg))

    @pytest.mark.parametrize("q, s, K", [
        (Fraction(99, 100), (2,), MULTI_BLOCK),
        (Fraction(99, 100), (3, 1, 1), MULTI_BLOCK),
        (Fraction(99, 100), (2, 3, 1), MULTI_BLOCK),
        (Fraction(999, 1000), (9, 1), MULTI_BLOCK),
        (Fraction(999, 1000), (2, 1), 10**6),
    ])
    def test_qmzv_bitwise(self, q, s, K):
        cut = _first_zero((s[0] - 1) * -math.log2(q), K)
        assert _cutoff_place(cut, K) == "middle"
        cfg = EvalConfig(K=K, q=q)
        assert _same_bits(qmzv_num(s, cfg).value, qmzv_reference(s, cfg))

    # the benchmark's deepest strata, cut in the first block
    @pytest.mark.parametrize("z1", [0.3, 0.9, cmath.rect(0.9, 1.0)], ids=str)
    def test_mpl_bitwise_benchmark_scale(self, z1):
        cfg = EvalConfig(N=10**6)
        s, z = (1, 1, 1, 1), (z1, 1, 1, 1)
        assert _same_bits(mpl_num(s, z, cfg).value, mpl_reference(s, z, cfg))

    # a unit letter, one whose powers last past N and one that turns zero
    # in a later block; a later block's powers weigh too little to show in
    # a value's bits, so the powers are compared themselves
    @pytest.mark.parametrize("w", [cmath.rect(1, 0.7), cmath.rect(0.999, 1.7), -0.981j],
                             ids=str)
    def test_complex_powers_bitwise(self, w):
        n = np.arange(1, MULTI_BLOCK + 1, dtype=np.float64)
        zero_from = _first_zero(-math.log2(abs(w)), MULTI_BLOCK)
        got = np.concatenate([numeric_eval._powers(w, n[lo:hi], lo, zero_from, np.complex128)
                              for lo, hi in _blocks(MULTI_BLOCK)])
        want = doubled_powers(w, MULTI_BLOCK, MULTI_BLOCK)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 4)], ids=str)
    def test_qmzv_bitwise_benchmark_scale(self, q):
        cfg = EvalConfig(K=10**6, q=q)
        s = (2, 1, 1, 1)
        assert _same_bits(qmzv_num(s, cfg).value, qmzv_reference(s, cfg))

    # the benchmark's q-MZV strata with the most live summands at q = 2/3;
    # they are one block
    @pytest.mark.parametrize("s", [(2, 1), (3, 1, 1)], ids=str)
    def test_qmzv_bitwise_merged_leaves(self, s):
        cfg = EvalConfig(K=10**6, q=Fraction(2, 3))
        stop = _first_zero((s[0] - 1) * -math.log2(2 / 3), cfg.K)
        assert len(_blocks(stop)) == 1
        assert _same_bits(qmzv_num(s, cfg).value, qmzv_reference(s, cfg))


def _handed_over(monkeypatch, run):
    """(elements ``_walk`` hands to ``block_terms``, its ``stop``) in ``run()``."""
    sizes, stops = [], []
    walk = numeric_eval._walk

    def counting(chains, size, dtype, block_terms, stop=math.inf):
        def counted(lo, hi):
            sizes.append(hi - lo)
            return block_terms(lo, hi)

        stops.append(stop)
        return walk(chains, size, dtype, counted, stop)

    monkeypatch.setattr(numeric_eval, "_walk", counting)
    run()
    (stop,) = stops
    return sum(sizes), stop


class TestCutoffCost:
    """A walk that stops early computes its live summands alone, not the
    whole first block."""

    @pytest.mark.parametrize("run", [
        pytest.param(lambda: mpl_num((1, 1, 1), (0.6, 1, 1), EvalConfig(N=10**6)), id="mpl"),
        pytest.param(lambda: qmzv_num((2, 1), EvalConfig(K=10**6, q=Fraction(1, 2))),
                     id="qmzv-1/2"),
        pytest.param(lambda: qmzv_num((2, 1), EvalConfig(K=10**6, q=Fraction(3, 4))),
                     id="qmzv-3/4"),
    ])
    def test_stopping_walk_pays_for_live_summands(self, monkeypatch, run):
        elements, stop = _handed_over(monkeypatch, run)
        assert stop < _LEAF
        assert elements == stop

    def test_walk_without_cutoff_covers_all(self, monkeypatch):
        N = 10**6
        elements, stop = _handed_over(monkeypatch, lambda: zeta_num((3, 1), EvalConfig(N=N)))
        assert (elements, stop) == (N, math.inf)

    # an early cutoff leaves one block; a walk without a cutoff computes
    # ceil(N / _LEAF) blocks
    @pytest.mark.parametrize("run, blocks", [
        pytest.param(lambda: mpl_num((1, 1, 1), (0.6, 1, 1), EvalConfig(N=10**6)), 1,
                     id="mpl"),
        pytest.param(lambda: qmzv_num((2, 1), EvalConfig(K=10**6, q=Fraction(1, 2))), 1,
                     id="qmzv-1/2"),
        pytest.param(lambda: qmzv_num((2, 1), EvalConfig(K=10**6, q=Fraction(3, 4))), 1,
                     id="qmzv-3/4"),
        pytest.param(lambda: zeta_num((3, 1), EvalConfig(N=10**6)),
                     len(_blocks(10**6)), id="zeta"),
        pytest.param(lambda: zeta_values(corpus._admissible_compositions(12, 5),
                                         EvalConfig(N=10**5)),
                     len(_blocks(10**5)), id="corpus"),
    ])
    def test_block_count(self, monkeypatch, run, blocks):
        computed = []
        walk = numeric_eval._walk

        def counting(chains, size, dtype, block_terms, stop=math.inf):
            def counted(lo, hi):
                computed.append((lo, hi))
                return block_terms(lo, hi)

            return walk(chains, size, dtype, counted, stop)

        monkeypatch.setattr(numeric_eval, "_walk", counting)
        run()
        assert len(computed) == blocks


class TestPowerPremise:
    """The cutoff is bit-identical only while this platform's numpy and
    libm return exact ones for 1^n and exact zeros past ``_first_zero``.
    A failure here names a platform whose pow or cpow breaks that.
    Complex letters take no cpow: ``_powers`` itself writes their zeros."""

    PLATFORM = (f"{platform.platform()}, libc {' '.join(platform.libc_ver())}, "
                f"numpy {np.__version__}")

    def test_unit_powers_exact(self):
        p = np.power(1 + 0j, np.arange(1, 2**20 + 1, dtype=np.float64))
        assert (p.real == 1.0).all() and (p.imag == 0.0).all(), self.PLATFORM
        assert not np.signbit(p.imag).any(), self.PLATFORM

    @staticmethod
    def _past_cutoff(bits):
        first = _first_zero(bits, 10**13) + 1  # the exponent n at that index
        return np.concatenate([first + np.arange(8192.0), [1e6, 1e9, 1e12]])

    @pytest.mark.parametrize("q", [1 / 1000, 1 / 2, 3 / 4, 999 / 1000], ids=str)
    def test_real_powers_zero(self, q):
        e = self._past_cutoff(-math.log2(q))
        assert (q ** e == 0).all(), f"{q} ** e is not zero past the cutoff on {self.PLATFORM}"

    # 1e-20 has one live power, 0.999 about 763,000
    @pytest.mark.parametrize("r", [0.3, 0.9, 0.999, 1e-20], ids=str)
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, 1.0, math.pi], ids=str)
    def test_complex_powers_zero(self, monkeypatch, r, phase):
        w = {0.0: complex(r), math.pi / 2: r * 1j, math.pi: complex(-r)}.get(
            phase, cmath.rect(r, phase))
        zero_from = _first_zero(-math.log2(abs(w)), 10**13)
        written = []  # the [start, stop) of each multiply's output in its block

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def multiply(a, b, out):
                start = (out.ctypes.data - out.base.ctypes.data) // out.itemsize
                written.append((start, start + len(out)))
                return np.multiply(a, b, out=out)

        monkeypatch.setattr(numeric_eval, "np", Spy())
        # a block across the first zero, one starting at it, one far past it
        for lo in (max(0, zero_from - 100), zero_from, 10**12):
            written.clear()
            e = np.arange(lo + 1, lo + 8193, dtype=np.float64)
            out = numeric_eval._powers(w, e, lo, zero_from, np.complex128)
            live = max(0, zero_from - lo)
            zeros = out[live:]
            assert (zeros == 0).all(), lo
            assert not (np.signbit(zeros.real) | np.signbit(zeros.imag)).any(), lo
            # the doubling writes [1, live) once over, and nothing from live on
            assert sorted(written) == [(k, min(2 * k, live)) for k in
                                       (1 << i for i in range(max(0, live - 1).bit_length()))]


class TestComplexLetterAccuracy:
    """Complex letters against mpmath: sum over n1 > ... > nd of
    z^n1 / (n1 ... nd) is (-log(1 - z))^d / d!, and mpl_num reports its
    modulus.  With cpow's powers the sweep's worst relative error was
    9.6e-14; with the doubled ones it is 3.9e-15."""

    @pytest.mark.parametrize("theta", [0.001, 0.05, 0.5, 1.7, 3.1], ids=str)
    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9, 0.99, 0.999], ids=str)
    def test_log_powers(self, r, theta):
        import mpmath

        z = cmath.rect(r, theta)
        cfg = EvalConfig(N=10**6)
        with mpmath.workdps(40):
            log = -mpmath.log(1 - mpmath.mpc(z.real, z.imag))
            for d in (1, 2, 3):
                got = mpl_num((1,) * d, (z,) + (1,) * (d - 1), cfg).value
                want = abs(log**d / mpmath.factorial(d))
                assert abs(got - want) <= 1e-14 * want, d

    def test_unit_letter_powers_exact(self, monkeypatch):
        cycles = {1j: [1, 1j, -1, -1j], -1j: [1, -1j, -1, 1j]}  # w^n by n mod 4
        seen = []
        powers = numeric_eval._powers

        def recording(base, e, lo, zero_from, dtype):
            out = powers(base, e, lo, zero_from, dtype)
            seen.append((base, lo, out))
            return out

        monkeypatch.setattr(numeric_eval, "_powers", recording)
        mpl_num((2, 1, 1), (1, 1j, -1j), EvalConfig(N=MULTI_BLOCK))
        assert sorted(lo for _, lo, _ in seen) == sorted(
            lo for lo, _ in _blocks(MULTI_BLOCK) for _ in cycles)
        for base, lo, out in seen:
            n = np.arange(lo + 1, lo + 1 + len(out))
            assert (out == np.array(cycles[base])[n % 4]).all(), (base, lo)


def _wide_random(rng, n, dtype):
    """Random terms of both signs over 2^-60..2^60, so that any change in
    the order of additions changes the bits."""
    a = rng.standard_normal(n) * np.exp2(rng.integers(-60, 61, n))
    if dtype is np.complex128:
        a = a + 1j * rng.standard_normal(n) * np.exp2(rng.integers(-60, 61, n))
    return a


#: the cutoff draws after ``where`` (see ``_drawn_stop``), and the number
#: of nonzero terms before the cutoff (``_keep_window``)
STOP_DRAWS = (st.sampled_from([None, "lo", "hi"]), st.integers(-1, 1),
              st.sampled_from([16, 128, 1024, None]))


def _drawn_stop(n, where, edge, nudge):
    """A cutoff ``where`` / 2^16 of the way through n elements, or on the
    multiple of ``_LEAF`` below or above that point, where the number of
    blocks changes, or one element either side of it."""
    stop = where * n >> 16
    if edge and stop:
        lo = stop // _LEAF * _LEAF
        stop = min(n, max(0, (lo if edge == "lo" else lo + _LEAF) + nudge))
    return stop


def _keep_window(a, stop, window):
    """Zero ``a`` from ``stop`` on, and before the ``window`` terms that end
    there (if a window is drawn), so that the order of additions in the
    block next to ``stop`` shows in a total."""
    a[stop:] = 0
    a[:max(0, stop - (window or stop))] = 0


WALK_CHAINS = [("a", "b", "c"), ("b", "c"), ("c", "b", "c"), ("a",)]


def _whole_array_sum(terms, chain, stop=math.inf):
    """``chain``'s value by whole-array arithmetic over ``terms`` before
    ``stop``, added in the walk's documented order."""
    whole = terms[chain[-1]]
    for key in reversed(chain[:-1]):
        prefix = np.zeros_like(whole)
        np.cumsum(whole[:-1], out=prefix[1:])
        # f times prefix, in this operand order: complex products are
        # not bitwise commutative, and ``f * <temporary>`` lets numpy
        # reuse the temporary as the output with the operands swapped
        whole = np.multiply(terms[key], prefix)
    return documented_sum(whole[:min(len(whole), stop)])


def _visiting_walk(terms, dtype, stop):
    """``_walk`` over ``WALK_CHAINS`` with ``terms``, and the blocks it
    computed."""
    visited = []

    def block_terms(lo, hi):
        visited.append((lo, hi))
        return lambda key: terms[key][lo:hi].copy()

    n = len(terms["a"])
    return _walk(WALK_CHAINS, n, np.dtype(dtype), block_terms, stop), visited


class TestBlockWalk:
    """The walk computes blocks of equal length, at most ``_LEAF`` elements
    each, over the indices before its cutoff, carries each prefix sum
    across blocks, and adds each value's block sums with ``math.fsum``: its
    values equal whole-array arithmetic added in that order, on any numpy."""

    @given(st.integers(1, 4), st.integers(-24, 24),
           st.sampled_from([np.float64, np.complex128]), st.integers(0, 2**32 - 1),
           st.none() | st.integers(0, 1 << 16), *STOP_DRAWS)
    @example(2, 7, np.float64, 1, 50000, None, 0, 128)
    @example(2, 7, np.complex128, 1, 30000, None, 0, 128)
    @example(2, 7, np.float64, 1, 30000, "hi", 1, 16)
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_whole_array_arithmetic(self, leaves, offset, dtype, seed,
                                                 where, edge, nudge, window):
        # arbitrary terms: unlike zeta's, late blocks matter to the values,
        # so a prefix sum off by one rounding shows in them; with a drawn
        # cutoff, every term from it on is zero and the walk stops there
        n = max(1, leaves * _LEAF + offset)
        rng = np.random.default_rng(seed)
        terms = {key: _wide_random(rng, n, dtype) for key in "abc"}
        stop = math.inf
        if where is not None:
            stop = _drawn_stop(n, where, edge, nudge)
            for t in terms.values():
                _keep_window(t, stop, window)
        got, visited = _visiting_walk(terms, dtype, stop)
        assert visited == _blocks(min(n, stop))
        for chain in WALK_CHAINS:
            assert got[chain] == _whole_array_sum(terms, chain, stop), chain

    @pytest.mark.parametrize("stop", ["none", "last", "half"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", BLOCK_EDGE_N)
    def test_walk_at_block_edges(self, n, dtype, stop):
        stop = {"none": math.inf, "last": n - 1, "half": n // 2}[stop]
        rng = np.random.default_rng(n)
        terms = {key: _wide_random(rng, n, dtype) for key in "abc"}
        if stop < n:
            for t in terms.values():
                _keep_window(t, stop, None)
        got, visited = _visiting_walk(terms, dtype, stop)
        assert visited == _blocks(min(n, stop))
        assert all(0 < hi - lo <= _LEAF for lo, hi in visited)
        for chain in WALK_CHAINS:
            assert got[chain] == _whole_array_sum(terms, chain, stop), chain

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("where", ["inside", "at", "past", "start", "end"])
    def test_stop_matches_zeroed_tail(self, dtype, where):
        # every summand from ``stop`` on is zero, so the walk's blocks end
        # there; ``_LEAF`` is where a second block starts.  With terms only
        # in the 128 before ``stop``, a misplaced block edge near it shows
        # in the values
        n = MULTI_BLOCK
        stop = {"inside": _LEAF - 5, "at": _LEAF, "past": _LEAF + 5,
                "start": 0, "end": n}[where]
        for window in (None, 128):
            rng = np.random.default_rng(7)
            terms = {key: _wide_random(rng, n, dtype) for key in "abc"}
            for t in terms.values():
                _keep_window(t, stop, window)
            got, visited = _visiting_walk(terms, dtype, stop)
            assert visited == _blocks(stop)
            for chain in WALK_CHAINS:
                want = _whole_array_sum(terms, chain, stop)
                assert got[chain] == want, (window, chain)
                assert np.signbit(want.real) == np.signbit(got[chain].real), (window, chain)

def _traced_peak(fn):
    fn()  # first call outside tracing, so lazy set-up is not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    N = 200_000
    ARRAY = 8 * N
    SLACK = 64 * 1024

    @pytest.mark.parametrize("N", [N], ids=["False"])  # id kept stable for test histories
    def test_single_chain_peak(self, N):
        cfg = EvalConfig(N=N)
        peak = _traced_peak(lambda: zeta_num((5, 4, 3, 2, 1), cfg))
        assert peak <= 4 * self.ARRAY + self.SLACK

    def test_batch_peak_bounded_by_depth(self):
        comps = [
            c for k in range(1, 5)
            for c in itertools.product(range(1, 11), repeat=k)
            if c[0] >= 2 and sum(c) <= 10
        ]
        assert len(comps) == 255
        cfg = EvalConfig(N=self.N)
        peak = _traced_peak(lambda: zeta_values(comps, cfg))
        assert peak <= (4 + 3) * self.ARRAY

    def test_peak_below_one_array(self):
        # blocks of at most _LEAF elements: a few of them, never one of length N
        N = 2_000_000
        cfg = EvalConfig(N=N)
        peak = _traced_peak(lambda: zeta_num((2, 2, 2, 2), cfg))
        assert peak < 8 * N


@pytest.mark.parametrize("N", [_LEAF, 4 * _LEAF])
def test_deep_chain_frees_each_prefix_after_its_last_child(N):
    # a chain of depth 8 holds about 4 blocks; keeping every ancestor's
    # prefix block alive until its subtree ends would hold about 10
    block = 8 * _LEAF
    peak = _traced_peak(lambda: zeta_num((2,) * 8, EvalConfig(N=N)))
    assert peak <= 5 * block
