"""One measuring interpreter: runs a workload's closed loop and prints one
JSON object with per-op timings, check results and, when tracing, the
per-layer span aggregates.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json options>'``
from the checkout root. A fresh interpreter per run matters because the
library keeps module-level caches (``tensor_algebra._MEMO``) that must
start empty.
"""

import hashlib
import itertools
import json
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import workloads
from checks import (canonical, check_poly_gcd, check_q_stuffle, check_ratfunc,
                    check_shuffle_zeta, check_stuffle, padd, pmul)

ROOT = Path(__file__).resolve().parent.parent
# relative to the checkout root, so the CLI's report is the same everywhere
CORPUS_OUT = Path(".bench_build") / "perfbench" / "corpus.jsonl"


def import_library(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import rbmzv
    if not Path(rbmzv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rbmzv imported from {rbmzv.__file__}, not the checkout")
    if workload == "corpus":
        from rbmzv import cli
        return {"cli": cli}
    if workload == "numeric":
        from rbmzv import numeric_eval
        return {"numeric_eval": numeric_eval}
    from rbmzv import coefficients, identity_engine, mzv_calculus, operator_gallery
    return {"coefficients": coefficients, "identity_engine": identity_engine,
            "mzv_calculus": mzv_calculus, "operator_gallery": operator_gallery}


# Each prepare_* turns an op's generated data into library inputs (untimed,
# untraced) and returns (call, check). ``call`` takes no arguments and looks
# the library function up on its module when called, so tracing wrappers
# apply. ``check(out)`` returns None or a failure message.

def prepare_symbolic(op, mods):
    mzv, ie = mods["mzv_calculus"], mods["identity_engine"]
    og, co = mods["operator_gallery"], mods["coefficients"]
    f, a = op.family, op.args
    if f in ("stuffle", "shuffle_zeta", "q_stuffle"):
        check = {"stuffle": check_stuffle, "shuffle_zeta": check_shuffle_zeta,
                 "q_stuffle": check_q_stuffle}[f]
        return (lambda: getattr(mzv, f)(a["a"], a["b"]),
                lambda out: check(a["a"], a["b"], out))

    if f.endswith("_check"):
        if f == "congruence_check":
            call = lambda: ie.congruence_check(a["w"], a["p"])
        elif f == "spitzer_check":
            call = lambda: ie.spitzer_check(a["order"])
        elif f == "exp_star_log_check":
            call = lambda: ie.exp_star_log_check(a["order"])
        else:
            call = lambda: ie.bohnenblust_spitzer_check(a["n"])
        return call, lambda out: None if out.equal else f"verdict {out.verdict}"

    if f in ("jackson_defect", "rb_defect_p_q", "rb_defect_p_hat_q"):
        def xpoly(data):
            zero = co.RatFuncQ(co.PolyQ())
            return og.XPoly([zero] + [co.RatFuncQ(co.PolyQ(n), co.PolyQ(d))
                                      for n, d in data])
        fx, gx = xpoly(a["f"]), xpoly(a["g"])
        if f == "jackson_defect":
            call = lambda: og.jackson_defect(fx, gx)
        else:
            operator = og.p_q if f == "rb_defect_p_q" else og.p_hat_q
            call = lambda: og.rb_defect(operator, fx, gx, a["weight"])
        return call, lambda out: None if not out.coeffs else f"nonzero defect {out}"

    if f == "poly_gcd":
        pa, pb = pmul(a["g"], a["u"]), pmul(a["g"], a["v"])
        x, y = co.PolyQ(pa), co.PolyQ(pb)
        return (lambda: co.poly_gcd(x, y),
                lambda out: check_poly_gcd(pa, pb, out.coeffs))

    x = co.RatFuncQ(co.PolyQ(a["x"]["num"]), co.PolyQ(a["x"]["den"]))
    y = co.RatFuncQ(co.PolyQ(a["y"]["num"]), co.PolyQ(a["y"]["den"]))
    xn, xd, yn, yd = x.num.coeffs, x.den.coeffs, y.num.coeffs, y.den.coeffs
    if f == "ratfunc_add":
        call = lambda: x + y
        expected = (padd(pmul(xn, yd), pmul(yn, xd)), pmul(xd, yd))
    else:
        call = lambda: x * y
        expected = (pmul(xn, yn), pmul(xd, yd))
    return call, lambda out: check_ratfunc(*expected, out.num.coeffs, out.den.coeffs)


def prepare_numeric(op, mods):
    ne, a = mods["numeric_eval"], op.args
    if op.family == "zeta":
        cfg = ne.EvalConfig(N=a["N"])
        call = lambda: ne.zeta_num(a["s"], cfg)
    elif op.family == "qmzv":
        cfg = ne.EvalConfig(K=a["K"], q=Fraction(a["q"]))
        call = lambda: ne.qmzv_num(a["s"], cfg)
    else:
        cfg = ne.EvalConfig(N=a["N"])
        call = lambda: ne.mpl_num(a["s"], a["z"], cfg)
    # run.py checks the values against mpmath references
    return call, lambda out: None


def prepare_corpus(op, mods, state):
    cli = mods["cli"]
    argv = ["corpus", "build", "--max-weight", str(op.args["max_weight"]),
            "--max-depth", str(op.args["max_depth"]), "--out", str(CORPUS_OUT)]
    captured = StringIO()

    def call():
        with redirect_stdout(captured):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return f"corpus build exited with {code}"
        report = captured.getvalue()
        data = CORPUS_OUT.read_text(encoding="utf-8")
        CORPUS_OUT.unlink()
        state["text"] = report + data
        entries = [json.loads(line) for line in data.splitlines()]
        state["entries"] = len(entries)
        if report.split()[1:2] != [str(len(entries))]:
            return "entry count differs from the CLI's report"
        for e in entries:
            if e["verified"] is not True or e["N"] != workloads.CORPUS_N:
                return f"entry {e['generator']} {e['params']} not verified at the default N"
            if e["mode"] == "numeric":
                state["lookups"] += sum(len(t["monomial"])
                                        for t in e["relation"]["terms"])
        return None

    return call, check


def output_text(workload, out, state):
    if workload == "corpus":
        return state["text"]
    if workload == "numeric":
        return f"{out.value!r} {out.tail_bound!r}"
    return canonical(out)


def main():
    opts = json.loads(sys.argv[1])
    workload = opts["workload"]
    mods = import_library(workload)
    tracer = None
    if opts["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    CORPUS_OUT.parent.mkdir(parents=True, exist_ok=True)

    cycles = workloads.cycles(workload, opts["seed"])
    first = next(cycles)
    setup_ns = time.monotonic_ns() - opts["t0"]
    if opts["setup_only"]:
        print(json.dumps({"setup_ns": setup_ns}))
        return

    state = {"lookups": 0}
    digest = hashlib.sha256()
    records = []
    n_cycles = 0
    start = time.perf_counter()
    for ops in itertools.chain([first], cycles):
        cycle_start = time.perf_counter()
        for op in ops:
            if time.perf_counter() - start > opts["cap"]:
                break
            if workload == "symbolic":
                call, check = prepare_symbolic(op, mods)
            elif workload == "numeric":
                call, check = prepare_numeric(op, mods)
            else:
                state["entries"], state["text"] = 0, ""
                call, check = prepare_corpus(op, mods, state)
            out = error = None
            if tracer:
                tracer.active = True
            t = time.perf_counter_ns()
            try:
                out = call()
            except Exception as e:  # an op that raises counts as failed
                error = f"{type(e).__name__}: {e}"
            ns = time.perf_counter_ns() - t
            if tracer:
                tracer.active = False
            if error is None:
                try:
                    error = check(out)
                except Exception as e:  # malformed output fails the op
                    error = f"check raised {type(e).__name__}: {e}"
            rec = {"family": op.family, "cycle": op.cycle, "index": op.index,
                   "ns": ns, "work": op.work, "error": error}
            if workload == "corpus":
                rec["work"] = state["entries"]
            if workload == "numeric" and error is None:
                rec["value"], rec["tail"] = out.value, out.tail_bound
            records.append(rec)
            if op.cycle == 0:
                text = error if error else output_text(workload, out, state)
                digest.update(f"{op.family}|{text}\n".encode("utf-8"))
        else:
            n_cycles += 1
            now = time.perf_counter()
            # start another whole cycle only if it is predicted to fit
            if (now - start) + (now - cycle_start) <= opts["seconds"]:
                continue
        break

    result = {"setup_ns": setup_ns, "ops": records, "cycles": n_cycles,
              "digest": digest.hexdigest(), "lookups": state["lookups"]}
    if tracer:
        result["trace"] = tracer.summary()
        result["missing"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
