"""Seeded op streams for the three workloads.

Only the standard library is imported here: this module is loaded by the
measuring interpreter before its first timed op, so whatever it imports
counts toward ``setup_s``.

Each workload is a sequence of *cycles*. A cycle is a fixed list of strata
(an op family at a fixed size class) whose order and concrete arguments the
seed draws. Runs measure whole cycles, so every run on every seed times the
same mix of sizes; that keeps medians and the p90 comparable across seeds.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("corpus", "symbolic", "numeric")

#: upper bound on the cycles one run may generate; a run stops earlier
#: when its time is used up
MAX_CYCLES = 200

# --- corpus ------------------------------------------------------------------

CORPUS_WEIGHTS = (9, 10, 11, 12)
CORPUS_DEPTHS = (3, 4, 5)
#: the CLI's default truncation; the benchmark checks every entry used it
CORPUS_N = 100_000

# --- symbolic ----------------------------------------------------------------

# Strata are chosen so that ops within one stratum cost about the same on
# every seed: run-to-run spread then comes from the machine, not the draw.
# stuffle and q-stuffle arguments are permutations of fixed parts, one set
# per depth and side; how often sums of parts coincide sets the cost
LEFT_PARTS = {4: (1, 3, 4, 6), 5: (1, 2, 4, 6, 9), 6: (1, 2, 3, 5, 7, 9),
              7: (1, 2, 3, 4, 6, 8, 9)}
RIGHT_PARTS = {4: (2, 3, 5, 8), 5: (2, 3, 5, 7, 8), 6: (2, 3, 4, 6, 8, 9),
               7: (1, 2, 4, 5, 6, 7, 9)}
STUFFLE_DEPTHS = ((5, 5), (5, 6), (6, 6), (5, 7), (6, 7), (7, 7))
# word lengths |wa| x |wb| come from permutations of fixed parts, which keeps
# the cost of one stratum within about 10%; 14 x 18 takes minutes at the
# seed commit, 12 x 12 (the largest kept) about two seconds
SHUFFLE_PARTS = (((4, 3, 2), (5, 2, 2)), ((4, 3, 2), (5, 3, 2)),
                 ((4, 4, 2), (5, 4, 2)), ((5, 4, 3), (6, 4, 2)))
Q_STUFFLE_DEPTHS = ((4, 4), (4, 5), (5, 5))
# (word length, p); length 5 at p = 3 and length 3 at p = 5 take seconds to
# minutes, so the largest bounded cases are length 4 at p = 3 and 2 at p = 5
CONGRUENCE_CASES = ((2, 3), (3, 3), (4, 3), (1, 5), (2, 5))
# these checks take only an order, so their calls repeat from cycle to cycle
SPITZER_ORDER = 8
EXPSTAR_ORDER = 8
BOHNENBLUST_N = 5
GALLERY_DEGREE = 3
POLY_GCD_DEGREES = (8, 9, 10, 11, 12)
RATFUNC_DEGREES = (8, 10, 12)

# --- numeric -----------------------------------------------------------------

Q_CHOICES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
             Fraction(3, 4))
# (family, exponents, base truncation); N is drawn from [base, N_JITTER base],
# capped at MAX_N, so one array is 8-80 MB (16 B per element for mpl_num).
# Two strata sit at 1e7 so that the p90 falls inside one tier of op costs
# rather than on the gap between two.
NUMERIC_STRATA = (
    ("zeta", (3, 1), 1_000_000),
    ("zeta", (2, 1, 1), 2_000_000),
    ("zeta", (3, 1, 1), 10_000_000),
    ("zeta", (2, 2, 2, 2), 10_000_000),
    ("mpl_real_one", (2, 2), 2_000_000),
    ("mpl_real", (1, 1, 1), 1_000_000),
    ("mpl_real", (1, 1, 1, 1), 1_000_000),
    ("mpl_complex", (1, 1), 1_000_000),
    ("mpl_complex", (1, 1, 1), 1_000_000),
    ("qmzv", (2, 1), 1_000_000),
    ("qmzv", (3, 1, 1), 1_000_000),
    ("qmzv", (2, 1, 1, 1), 1_000_000),
)
MAX_N = 10_000_000
N_JITTER = 1.05


@dataclass
class Op:
    """One closed-loop call: ``family`` names the op kind, ``args`` are plain
    data the worker turns into library calls, ``work`` is its work units."""

    family: str
    args: dict
    work: int = 1
    cycle: int = 0
    index: int = 0


def cycles(workload: str, seed: int):
    """Yield the cycles (lists of ``Op``) of ``workload`` for ``seed``."""
    gen = {"corpus": _corpus_cycle, "symbolic": _SymbolicGen(),
           "numeric": _numeric_cycle}[workload]
    rng = random.Random(f"rbmzv-bench:{workload}:{seed}")
    for c in range(MAX_CYCLES):
        ops = gen(rng)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op.cycle, op.index = c, i
        yield ops


def _corpus_cycle(rng):
    return [Op("corpus", {"max_weight": w, "max_depth": d})
            for w in CORPUS_WEIGHTS for d in CORPUS_DEPTHS]


def _distinct_parts(rng, depth):
    return tuple(rng.sample(range(1, 10), depth))


def _permutation(rng, parts):
    return tuple(rng.sample(parts, len(parts)))


class _SymbolicGen:
    """Symbolic cycles; arguments never repeat within a run where the
    family's parameter space allows it."""

    def __init__(self):
        self.seen = set()

    def _fresh(self, family, draw):
        for _ in range(100):
            args = draw()
            key = (family, repr(sorted(args.items())))
            if key not in self.seen:
                break
        self.seen.add(key)
        return Op(family, args)

    def __call__(self, rng):
        ops = []
        for m, n in STUFFLE_DEPTHS:
            ops.append(self._fresh("stuffle", lambda: {
                "a": _permutation(rng, LEFT_PARTS[m]),
                "b": _permutation(rng, RIGHT_PARTS[n])}))
        for pa, pb in SHUFFLE_PARTS:
            ops.append(self._fresh("shuffle_zeta", lambda: {
                "a": _permutation(rng, pa), "b": _permutation(rng, pb)}))
        for m, n in Q_STUFFLE_DEPTHS:
            ops.append(self._fresh("q_stuffle", lambda: {
                "a": _permutation(rng, LEFT_PARTS[m]),
                "b": _permutation(rng, RIGHT_PARTS[n])}))
        for length, p in CONGRUENCE_CASES:
            ops.append(self._fresh("congruence_check", lambda: {
                "w": _distinct_parts(rng, length), "p": p}))
        ops.append(Op("spitzer_check", {"order": SPITZER_ORDER}))
        ops.append(Op("exp_star_log_check", {"order": EXPSTAR_ORDER}))
        ops.append(Op("bohnenblust_spitzer_check", {"n": BOHNENBLUST_N}))
        for family, weight in (("jackson_defect", None), ("rb_defect_p_q", 1),
                               ("rb_defect_p_hat_q", -1)):
            ops.append(self._fresh(family, lambda: {
                "f": _xpoly_data(rng), "g": _xpoly_data(rng), "weight": weight}))
        for degree in POLY_GCD_DEGREES:
            ops.append(self._fresh("poly_gcd", lambda: _gcd_data(rng, degree)))
        for family in ("ratfunc_add", "ratfunc_mul"):
            for degree in RATFUNC_DEGREES:
                ops.append(self._fresh(family, lambda: {
                    "x": _ratfunc_data(rng, degree), "y": _ratfunc_data(rng, degree)}))
        return ops


def _rational(rng, num=9, den=5):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _poly_data(rng, degree):
    """Coefficients (constant first) of a random degree-``degree`` polynomial."""
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return tuple(_rational(rng) for _ in range(degree)) + (lead,)


def _gcd_data(rng, degree):
    g = rng.randint(2, 4)
    return {"g": _poly_data(rng, g), "u": _poly_data(rng, degree - g),
            "v": _poly_data(rng, degree - g)}


def _ratfunc_data(rng, degree):
    return {"num": _poly_data(rng, degree), "den": _poly_data(rng, degree)}


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _xpoly_data(rng):
    """Zero constant term, then GALLERY_DEGREE coefficients (a + b q)/(c + d q)
    with a, b, d nonzero and c > 0, as ((a, b), (c, d))."""
    return tuple(((_nonzero(rng, 3), _nonzero(rng, 3)),
                  (rng.randint(1, 3), _nonzero(rng, 3)))
                 for _ in range(GALLERY_DEGREE))


def _numeric_cycle(rng):
    ops = []
    for family, s, base in NUMERIC_STRATA:
        n = min(MAX_N, int(base * rng.uniform(1.0, N_JITTER)))
        depth = len(s)
        if family == "qmzv":
            args = {"s": s, "K": n, "q": rng.choice(Q_CHOICES)}
        elif family == "zeta":
            args = {"s": s, "N": n}
        elif family == "mpl_real_one":
            args = {"s": s, "z": (1.0,) * depth, "N": n}
        else:
            r = rng.uniform(0.3, 0.9)
            z1 = cmath.rect(r, rng.uniform(0.1, 3.0)) if family == "mpl_complex" else r
            args = {"s": s, "z": (z1,) + (1.0,) * (depth - 1), "N": n}
        ops.append(Op(family, args, work=depth * n))
    return ops
