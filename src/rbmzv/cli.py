"""Command-line interface: symbolic products, relation generation,
numeric evaluation, identity verification and the golden relation corpus.

Exit codes: 0 success / verified, 1 verification failure, 2 usage error
or an input too large to compute (the run exhausted memory or the
recursion limit, or a float overflowed; ``eval`` refuses a walk of more
than ``MAX_EVAL_SUMMANDS`` summands before it starts).  ``corpus build``
writes each entry as it is made, so a build that fails partway leaves at
``--out`` the whole lines written before the failure; nothing removes
them.
All output is deterministic; floats are rendered with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from . import identity_engine, mzv_calculus as mzv, operator_gallery as ops
from .coefficients import ONE_MINUS_Q, PolyQ, RatFuncQ
from .compositions import (composition_str, is_admissible, parse_composition,
                           require_admissible)
from .corpus import build_corpus
from .identity_engine import _check_prime, _check_range
from .letters import COMPOSITION
from .mzv_calculus import Relation
from .tensor_algebra import mixable_shuffle


def canonical_json(obj, texts=None) -> str:
    """Deterministic JSON with floats at 17 significant digits, always in a
    float form (``0.0``, not ``0``); a float that is not finite has no JSON
    form and raises ``ValueError``.  A ``Relation`` renders as its
    ``json_text``, through the monomial text cache ``texts`` if one is
    given."""

    def render(obj) -> str:
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, float):
            if not math.isfinite(obj):
                raise ValueError(f"cannot render the non-finite float {obj!r} as JSON")
            text = f"{obj:.17g}"
            return text if "." in text or "e" in text else text + ".0"
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, str):
            return encode_basestring(obj)
        if isinstance(obj, (list, tuple)):
            return "[" + ", ".join(render(v) for v in obj) + "]"
        if isinstance(obj, dict):
            items = sorted(obj.items())
            return "{" + ", ".join(
                f"{encode_basestring(str(k))}: {render(v)}" for k, v in items
            ) + "}"
        if isinstance(obj, Relation):
            return obj.json_text(texts)
        raise TypeError(f"cannot serialize {type(obj)!r}")

    return render(obj)


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed {what} {text!r}") from None


def _parse_weight(text: str):
    if text == "1-q":
        return ONE_MINUS_Q
    return _parse_fraction(text, "weight")


def _emit(args, payload, text: str):
    if args.format == "json":
        print(canonical_json(payload))
    else:
        print(text)


def cmd_product(args) -> int:
    a = parse_composition(args.a)
    b = parse_composition(args.b)
    # parsed in every mode, so a malformed --weight is never dropped unseen
    lam = _parse_weight(args.weight)
    if args.mode == "stuffle":
        combo = mzv.stuffle(a, b)
    elif args.mode == "shuffle":
        combo = mzv.shuffle_zeta(a, b)
    else:
        combo = mixable_shuffle(COMPOSITION, a, b, lam)
    terms = []
    divergent = False
    for comp in sorted(combo):
        adm = is_admissible(comp)
        divergent = divergent or not adm
        entry = {"coef": str(combo[comp]), "comp": composition_str(comp)}
        if not adm:
            entry["divergent"] = True
        terms.append(entry)
    payload = {
        "mode": args.mode,
        "a": composition_str(a),
        "b": composition_str(b),
        "terms": terms,
        "divergent": divergent,
    }
    text = " + ".join(
        f"{t['coef']}*zeta({t['comp']})" for t in terms
    )
    _emit(args, payload, text)
    return 0


def cmd_relation(args) -> int:
    # parsed and checked for every generator, with the ranges and messages
    # of the generator that reads it, so a bad flag is never dropped unseen
    a = parse_composition(args.a)
    b = parse_composition(args.b)
    s = parse_composition(args.s)
    _check_prime(args.p)
    if args.k < 2:
        raise ValueError("k must be >= 2")
    _check_range("order", args.order, 1, mzv.MAX_SPITZER_ORDER)
    if args.gen == "doubleshuffle":
        rel = mzv.double_shuffle_relation(a, b)
    elif args.gen == "hoffman":
        rel = mzv.hoffman_partition_relation(s)
    elif args.gen == "spitzer":
        rel = mzv.spitzer_zeta_relation(args.k, args.order)
    else:
        cong = mzv.congruence_zeta_relation(s, args.p)
        _emit(args, cong, f"congruence mod {cong['modulus']}: holds={cong['holds']}")
        return 0 if cong["holds"] else 1
    _emit(args, rel, relation_text(rel))
    return 0


def relation_text(rel: Relation) -> str:
    parts = []
    for m, c in rel.terms:
        mono = "*".join(f"zeta({composition_str(comp)})" for comp in m)
        parts.append(f"{c}*{mono}" if mono else str(c))
    return (" + ".join(parts) or "0") + " = 0"


#: Most summands ``eval`` walks: the walked length (N, or the q-walk's
#: stop) times the depth.  A walk takes some 5 ns a summand (zeta
#: (2,2,2,2) at N = 1e7 in about 0.2 s on a shared 2-CPU Xeon), so this is
#: seconds; a larger input is refused before any block is computed.
MAX_EVAL_SUMMANDS = 5 * 10**8


def cmd_eval(args) -> int:
    # imported here and in ``corpus.build_corpus``, so that the commands
    # that evaluate nothing start without numpy
    from . import numeric_eval

    s = parse_composition(args.comp)
    # one config from the flags given, so both branches check every flag
    given = {name: _parse_fraction(getattr(args, name), name)
             for name in ("x", "q") if getattr(args, name) is not None}
    given.update((name, getattr(args, name)) for name in ("N", "K")
                 if getattr(args, name) is not None)
    cfg = numeric_eval.EvalConfig(**given)
    require_admissible(s)  # a divergent comp is named as such, never as too large
    length = cfg.N if args.q is None else numeric_eval.qmzv_stop(s, cfg)
    if length * len(s) > MAX_EVAL_SUMMANDS:
        raise ValueError(f"input too large to compute ({length} x {len(s)} summands, "
                         f"more than eval's cap of {MAX_EVAL_SUMMANDS})")
    if args.q is not None:
        res = numeric_eval.qmzv_num(s, cfg)
        payload = {
            "comp": composition_str(s),
            "q": str(cfg.q),
            "K": cfg.K,
            **res.to_json(),
        }
    else:
        res = numeric_eval.zeta_num(s, cfg)
        payload = {
            "comp": composition_str(s),
            "N": cfg.N,
            "x": str(cfg.x),
            **res.to_json(),
        }
    _emit(args, payload, f"{res.value:.17g} (tail <= {res.tail_bound:.3g})")
    return 0


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    # parsed and checked for every check, with the ranges and messages of
    # the check that reads it, so a bad flag is never dropped unseen
    word = parse_composition(args.word)
    if args.window < 1:
        raise ValueError("window must be >= 1")
    _check_prime(args.p)
    _check_range("order", args.order, 1, 8)
    _check_range("n", args.n, 2, 5)
    if args.what == "spitzer":
        report = identity_engine.spitzer_check(args.order)
    elif args.what == "expstar":
        report = identity_engine.exp_star_log_check(args.order)
    elif args.what == "bohnenblust":
        report = identity_engine.bohnenblust_spitzer_check(args.n)
    elif args.what == "congruence":
        report = identity_engine.congruence_check(word, args.p)
    else:  # zrb, integration, jackson
        defects = _gallery_defects(args.what, rng, args.window)
        ok = not any(any(d) for d in defects)
        _emit(args, {"name": args.what, "verdict": "equal" if ok else "unequal"},
              f"{args.what}: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    _emit(args, report.to_json(), f"{report.name}: {report.verdict}")
    return 0 if report.equal else 1


def _rand_seq(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


def _rand_xpoly(rng):
    coeffs = [
        RatFuncQ(PolyQ((rng.randint(-5, 5),)))
        for _ in range(rng.randint(1, 6))
    ]
    coeffs[0] = RatFuncQ(PolyQ())  # drawn, then zeroed: no constant term
    return ops.XPoly(coeffs)


def _gallery_defects(what, rng, window):
    """Yield the defects of five random trials of one gallery identity
    (``zrb``, ``integration`` or ``jackson``); a defect with a nonzero
    entry is a failure."""
    for _ in range(5):
        if what == "zrb":
            f = _rand_seq(rng, window)
            g = _rand_seq(rng, window)
            yield ops.z_rb_defect(f, g)
        elif what == "integration":
            f = _rand_seq(rng, rng.randint(1, 7))
            g = _rand_seq(rng, rng.randint(1, 7))
            yield ops.integration_rb_defect(f, g)
        else:  # jackson
            f = _rand_xpoly(rng)
            g = _rand_xpoly(rng)
            yield ops.rb_defect(ops.p_q, f, g, 1)
            yield ops.rb_defect(ops.p_hat_q, f, g, -1)
            yield ops.jackson_defect(f, g)


def cmd_corpus(args) -> int:
    # the least entry is congruence (2),p=2, of weight 4 and depth 1
    if args.max_weight < 4 or args.max_depth < 1:
        raise ValueError("the corpus is empty below --max-weight 4 "
                         "or --max-depth 1")
    # opened first, so an unwritable path fails before the build runs
    with open(args.out, "w", encoding="utf-8") as fh:
        written = failed = 0
        texts: dict = {}  # one monomial text cache for the build's relations
        for e in build_corpus(args.max_weight, args.max_depth):
            fh.write(canonical_json(e, texts) + "\n")
            written += 1
            failed += not e["verified"]
    print(f"wrote {written} entries to {args.out}; {failed} failed verification")
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmzv",
        description="Rota-Baxter shuffle algebras and multiple zeta values",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="stuffle/shuffle/mixable product")
    p.add_argument("--mode", choices=("stuffle", "shuffle", "mixable"),
                   default="stuffle")
    p.add_argument("--weight", default="1",
                   help="mixable-shuffle weight: any rational, such as 0, -1 "
                        "or 1/2, or 1-q")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("relation", help="generate a relation")
    p.add_argument("--gen", required=True,
                   choices=("doubleshuffle", "hoffman", "spitzer", "congruence"))
    p.add_argument("--a", default="2")
    p.add_argument("--b", default="2")
    p.add_argument("--s", default="2,3")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("eval", help="numeric evaluation by truncated sums")
    p.add_argument("--comp", required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--x")
    p.add_argument("--q")
    p.add_argument("--K", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run an identity check")
    p.add_argument("what", choices=("spitzer", "expstar", "bohnenblust",
                                    "congruence", "jackson", "zrb",
                                    "integration"))
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--word", default="2")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="build the golden relation corpus")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    b = csub.add_parser("build")
    b.add_argument("--max-weight", type=int, default=6)
    b.add_argument("--max-depth", type=int, default=3)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, RecursionError) as e:
        # only the name is kept: printing here could fail for want of
        # memory, since the traceback still holds the failed computation
        too_large = type(e).__name__
    print(f"error: input too large to compute ({too_large})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
