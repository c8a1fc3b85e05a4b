"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Symbolic criteria are exact; numeric criteria
state their tolerance and truncation inline.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from rbmzv.cli import main as cli_main
from rbmzv.coefficients import ONE_MINUS_Q, PolyQ, RatFuncQ
from rbmzv.identity_engine import (
    bohnenblust_spitzer_check,
    congruence_check,
    exp_star_log_check,
    spitzer_check,
)
from rbmzv.letters import COMPOSITION
from rbmzv.mzv_calculus import (
    double_shuffle_relation,
    hoffman_partition_relation,
    q_stuffle,
    shuffle_zeta,
    stuffle,
)
from rbmzv.numeric_eval import EvalConfig, nested_sum_oracle, qmzv_num, zeta_num
from rbmzv.operator_gallery import (
    XPoly,
    integration_rb_defect,
    jackson_defect,
    p_hat_q,
    p_q,
    rb_defect,
    z_rb_defect,
)
from rbmzv.tensor_algebra import ShaAlgebra, mixable_shuffle

from conftest import random_sha_element


def report(num, name, ok):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def hoffman_quasi_shuffle(system, a, b, memo):
    """Hoffman's quasi-shuffle recursion, written apart from the library
    kernel so that criterion 1 compares two computations.  ``memo`` serves
    one letter system and keeps only pairs of total length <= 6, whose
    results are small and shared by many pairs of the sweep."""
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    hit = memo.get((a, b))
    if hit is not None:
        return hit
    out = {}
    for x, rest in (
        (a[0], hoffman_quasi_shuffle(system, a[1:], b, memo)),
        (b[0], hoffman_quasi_shuffle(system, a, b[1:], memo)),
    ):
        for w, c in rest.items():
            out[(x,) + w] = out.get((x,) + w, 0) + c
    tail = hoffman_quasi_shuffle(system, a[1:], b[1:], memo)
    for pc, p in system.product(a[0], b[0]):
        for w, c in tail.items():
            out[(p,) + w] = out.get((p,) + w, 0) + pc * c
    out = {w: c for w, c in out.items() if c}
    if len(a) + len(b) <= 6:
        memo[(a, b)] = out
    return out


def test_01_quasi_shuffle_coincidence():
    words = [
        w
        for L in range(1, 5)
        for w in itertools.product(range(1, 5), repeat=L)
    ]
    ok = True
    memo = {}
    for i, a in enumerate(words):
        for b in words[i:]:
            if mixable_shuffle(COMPOSITION, a, b, 1) != hoffman_quasi_shuffle(
                COMPOSITION, a, b, memo
            ):
                ok = False
                break
        if not ok:
            break
    # the sweep covers unordered pairs; commutativity closes the rest
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.choice(words), rng.choice(words)
        if mixable_shuffle(COMPOSITION, a, b, 1) != mixable_shuffle(
            COMPOSITION, b, a, 1
        ):
            ok = False
    report(1, "quasi-shuffle coincidence", ok)


def test_02_rb_axiom_randomized():
    rng = random.Random(20240817)
    ok = True
    for lam in (0, 1, -1):
        alg = ShaAlgebra(COMPOSITION, lam)
        for _ in range(200):
            x = random_sha_element(alg, rng)
            y = random_sha_element(alg, rng)
            lhs = alg.p(x) * alg.p(y)
            rhs = alg.p(x * alg.p(y)) + alg.p(alg.p(x) * y)
            if lam:
                rhs = rhs + lam * alg.p(x * y)
            if lhs != rhs:
                ok = False
    report(2, "Rota-Baxter axiom on the tensor algebra", ok)


def test_03_stuffle_product(capsys):
    code = cli_main(["product", "--mode", "stuffle", "2", "2"])
    data = json.loads(capsys.readouterr().out)
    symbolic_ok = code == 0 and data["terms"] == [
        {"coef": "2", "comp": "2,2"},
        {"coef": "1", "comp": "4"},
    ]
    cfg = EvalConfig(N=100_000)
    residual = abs(
        zeta_num((2,), cfg).value ** 2
        - 2 * zeta_num((2, 2), cfg).value
        - zeta_num((4,), cfg).value
    )
    with capsys.disabled():
        report(3, "stuffle zeta(2)^2 expansion", symbolic_ok and residual < 1e-4)


def test_04_shuffle_product():
    ok = shuffle_zeta((2,), (2,)) == {(3, 1): 4, (2, 2): 2}
    report(4, "shuffle zeta(2)^2 expansion", ok)


def test_05_double_shuffle():
    rel = double_shuffle_relation((2,), (2,))
    symbolic_ok = rel.as_dict() == {
        ((4,),): Fraction(1),
        ((3, 1),): Fraction(-4),
    }
    cfg = EvalConfig(N=100_000)
    residual = abs(zeta_num((4,), cfg).value - 4 * zeta_num((3, 1), cfg).value)
    report(5, "double shuffle zeta(4) = 4 zeta(3,1)", symbolic_ok and residual < 1e-4)


def test_06_spitzer():
    symbolic_ok = spitzer_check(6).equal
    cfg = EvalConfig(N=100_000)
    residual = abs(
        zeta_num((2, 2), cfg).value
        - 0.5 * zeta_num((2,), cfg).value ** 2
        + 0.5 * zeta_num((4,), cfg).value
    )
    report(6, "Spitzer identity to order 6", symbolic_ok and residual < 1e-4)


def test_07_exp_star_log():
    report(7, "exp-star/log identity to order 5", exp_star_log_check(5).equal)


def test_08_bohnenblust_spitzer():
    symbolic_ok = all(bohnenblust_spitzer_check(n).equal for n in (2, 3, 4))
    rel = hoffman_partition_relation((2, 3, 4))
    cfg = EvalConfig(N=100_000)
    cache = {}
    residual = 0.0
    for mono, coef in rel.terms:
        value = 1.0
        for comp in mono:
            if comp not in cache:
                cache[comp] = zeta_num(comp, cfg).value
            value *= cache[comp]
        residual += float(coef) * value
    report(
        8,
        "Bohnenblust-Spitzer and partition identity",
        symbolic_ok and abs(residual) < 1e-4,
    )


def test_09_freshman_congruence():
    ok = True
    words = [
        w
        for L in (1, 2)
        for w in itertools.product(range(1, 5), repeat=L)
    ]
    for p in (2, 3, 5):
        for w in words:
            if not congruence_check(w, p).equal:
                ok = False
    # corollary: the mod-3 reduction of zeta(2)^3 is exactly zeta(6)
    cube = stuffle((2,), (2,))
    total = {}
    for c, v in cube.items():
        for d, u in mixable_shuffle(COMPOSITION, c, (2,), 1).items():
            total[d] = total.get(d, 0) + v * u
    reduced = {c: v % 3 for c, v in total.items() if v % 3}
    ok = ok and reduced == {(6,): 1}
    report(9, "mod-p power congruence", ok)


def test_10_q_stuffle_numeric():
    cfg = EvalConfig(K=200, q=Fraction(1, 2))
    lhs = qmzv_num((2,), cfg).value * qmzv_num((3,), cfg).value
    rhs = 0.0
    for comp, coef in q_stuffle((2,), (3,)).items():
        c = coef if isinstance(coef, int) else coef.evaluate(cfg.q)
        rhs += float(c) * qmzv_num(comp, cfg).value
    report(10, "q-deformed stuffle relation", abs(lhs - rhs) < 1e-10)


def test_11_operator_gallery():
    rng = random.Random(11)
    ok = True

    def rand_seq(k):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]

    for _ in range(10):
        if any(z_rb_defect(rand_seq(50), rand_seq(50))):
            ok = False
    for _ in range(10):
        f = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 7))]
        g = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 7))]
        if integration_rb_defect(f, g):
            ok = False

    def rand_xpoly(zero_const):
        coeffs = [
            RatFuncQ(PolyQ((rng.randint(-5, 5),)))
            for _ in range(rng.randint(1, 6))
        ]
        if zero_const:
            coeffs[0] = RatFuncQ(PolyQ())
        return XPoly(coeffs)

    for _ in range(10):
        f, g = rand_xpoly(True), rand_xpoly(True)
        if rb_defect(p_q, f, g, 1) or rb_defect(p_hat_q, f, g, -1):
            ok = False
        if jackson_defect(rand_xpoly(False), rand_xpoly(False)):
            ok = False
    report(11, "operator gallery axioms", ok)


def _admissible_up_to_weight(max_weight):
    out = []

    def extend(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        lo = 2 if not prefix else 1
        for part in range(lo, remaining + 1):
            prefix.append(part)
            extend(prefix, remaining - part)
            prefix.pop()

    extend([], max_weight)
    return sorted(out)


def test_12_oracle_equivalence():
    # the exact nested-loop oracle is O(N^depth), so the truncation shrinks
    # with depth while staying within its N <= 200 domain
    n_for_depth = {1: 100, 2: 100, 3: 50, 4: 30, 5: 20}
    ok = True
    for s in _admissible_up_to_weight(6):
        N = n_for_depth[len(s)]
        exact = float(nested_sum_oracle(s, N))
        got = zeta_num(s, EvalConfig(N=N)).value
        if abs(got - exact) > 1e-12 * max(abs(exact), 1e-300):
            ok = False
    # surjection onto the MZV algebra: the product of two values agrees with
    # the evaluated stuffle expansion within the summed tail bounds
    cfg = EvalConfig(N=100_000)
    cache = {}

    def ev(comp):
        if comp not in cache:
            cache[comp] = zeta_num(comp, cfg)
        return cache[comp]

    singles = [s for s in _admissible_up_to_weight(3)]
    for a in singles:
        for b in singles:
            if sum(a) + sum(b) > 5:
                continue
            ra, rb = ev(a), ev(b)
            residual = ra.value * rb.value
            bound = ra.tail_bound * abs(rb.value) + abs(ra.value) * rb.tail_bound
            for comp, coef in stuffle(a, b).items():
                rc = ev(comp)
                residual -= coef * rc.value
                bound += abs(coef) * rc.tail_bound
            if abs(residual) > bound:
                ok = False
    report(12, "numeric oracle equivalence and homomorphism", ok)
