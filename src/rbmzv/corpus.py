"""The golden relation corpus, one relation alive at a time: the keys,
listed without numpy or any product (``corpus_relations``), then one
``zeta_values`` walk over the bounds, then per key one relation built,
evaluated and yielded as a nine-key entry (``build_corpus``).  The double
shuffles of one build share one stuffle memo and one shuffle memo, since
their suffix subproblems repeat from pair to pair; ``cli.cmd_corpus``
renders the build's relations through one monomial text cache."""

import itertools
from functools import partial

from . import mzv_calculus as mzv
from .mzv_calculus import Relation, composition_str, weight as comp_weight

RESIDUAL_TOL = 1e-4


def _admissible_compositions(max_weight, max_depth):
    out = []

    def extend(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) >= max_depth:
            return
        lo = 2 if not prefix else 1
        for part in range(lo, remaining + 1):
            prefix.append(part)
            extend(prefix, remaining - part)
            prefix.pop()

    extend([], max_weight)
    return sorted(out)


def _double_shuffle_pairs(comps, max_weight, max_depth):
    """The pairs (a, b) of ``comps`` (the sorted admissible compositions
    within the bounds) with a <= b, wa + wb <= max_weight and
    da + db <= max_depth, ordered by a, then b."""
    return [
        (a, b)
        for a in comps
        for b in _admissible_compositions(max_weight - comp_weight(a),
                                          max_depth - len(a))
        if a <= b
    ]


def corpus_relations(max_weight: int, max_depth: int) -> list:
    """``(weight, generator, params, make)`` for every corpus relation
    within the bounds, sorted by its first three fields, which are unique;
    ``make()`` builds the relation, so listing the keys builds none."""
    relations = []
    comps = _admissible_compositions(max_weight, max_depth)
    for a, b in _double_shuffle_pairs(comps, max_weight, max_depth):
        relations.append((
            comp_weight(a) + comp_weight(b),
            "doubleshuffle",
            f"{composition_str(a)}|{composition_str(b)}",
            partial(mzv.double_shuffle_relation, a, b),
        ))
    for n in (2, 3):
        if n > max_depth:
            continue
        for s in itertools.combinations_with_replacement(range(2, max_weight + 1), n):
            if sum(s) > max_weight:
                continue
            relations.append((sum(s), "hoffman", ",".join(str(p) for p in s),
                              partial(mzv.hoffman_partition_relation, s)))
    for k in range(2, max_weight + 1):
        for order in range(2, max_depth + 1):
            if k * order > max_weight:
                continue
            relations.append((k * order, "spitzer", f"k={k},order={order}",
                              partial(mzv.spitzer_zeta_relation, k, order)))
    for s in comps:
        for p in (2, 3):
            w = p * comp_weight(s)
            if w > max_weight:
                continue
            relations.append((w, "congruence", f"{composition_str(s)},p={p}",
                              partial(mzv.congruence_zeta_relation, s, p)))
    relations.sort(key=lambda r: r[:3])
    return relations


def eval_relation(r: Relation, values: dict) -> float:
    """Absolute residual of a relation under numeric evaluation.

    ``values`` is a ``zeta_values`` result holding every composition of
    ``r``; a monomial's value is the product of its compositions' values.
    """
    total = 0.0
    for m, c in r.terms:
        value = 1.0
        for comp in m:
            value *= values[comp].value
        total += float(c) * value
    return abs(total)


def build_corpus(max_weight: int, max_depth: int):
    """Yield every golden-corpus entry within the bounds, verified, in key
    order.  One ``zeta_values`` walk at ``numeric_eval.EvalConfig()``, whose
    N each numeric entry records, covers every admissible composition
    within the bounds, and so every relation's; then each relation is built,
    evaluated and yielded before the next is built.  The double shuffles
    are built through one stuffle memo and one shuffle memo, which live
    for this build; neither keeps a pair's own product, so the memos hold
    subproblems only."""
    # imported here, so that listing the relations loads no numpy
    from .numeric_eval import EvalConfig, zeta_values

    cfg = EvalConfig()
    values = zeta_values(_admissible_compositions(max_weight, max_depth), cfg)
    memos = {"stuffle_memo": {}, "shuffle_memo": {}}
    for weight, generator, params, make in corpus_relations(max_weight, max_depth):
        rel = make(**memos) if generator == "doubleshuffle" else make()
        if isinstance(rel, Relation):
            residual = eval_relation(rel, values)
            verified, mode = residual <= RESIDUAL_TOL, "numeric"
        else:
            residual, verified, mode = 0.0, rel["holds"], "exact-mod-p"
        yield {
            "weight": weight,
            "generator": generator,
            "params": params,
            "relation": rel,
            "residual": residual,
            "N": cfg.N,
            "tolerance": RESIDUAL_TOL,
            "verified": verified,
            "mode": mode,
        }
