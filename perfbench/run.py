"""Benchmark entry point.

    python3 perfbench/run.py --workload {corpus,symbolic,numeric} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Each measurement runs in a fresh interpreter (``worker.py``), started one
at a time: one closed-loop client, no parallel processes or threads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced interpreter for half the time each and prints the per-layer
metrics and the tracing overhead. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable report and the
run record path go to stderr. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: setup-only interpreters started before and after the measuring one;
#: setup_s is the median of all their launches and the measuring one's, so
#: the samples span the whole run
SETUP_BEFORE, SETUP_AFTER = 4, 5
#: a run must end within this many seconds
RUN_BUDGET_S = 170


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        env = dict(os.environ)
        env.pop("RBX_DEFAULT_N", None)  # corpus builds use the CLI default N
        # one string-hash layout for every interpreter, so runs differ only
        # in their inputs and the machine
        env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def spawn(self, seconds=0, cap=0, trace=False, setup_only=False) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            fail("time budget exhausted", 1)
        opts = {"workload": self.workload, "seed": self.seed,
                "seconds": seconds, "cap": cap, "trace": trace,
                "setup_only": setup_only, "t0": time.monotonic_ns()}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(opts)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            fail("measuring interpreter timed out", 1)
        if proc.returncode != 0:
            fail(f"measuring interpreter failed ({proc.returncode}):\n"
                 + proc.stderr[-2000:], 1)
        return json.loads(proc.stdout.strip().splitlines()[-1])


# --- numeric references ------------------------------------------------------

def numeric_references(seed):
    """Reference and stated accuracy per (cycle, index), computed up front."""
    import refs
    table = {}
    for ops in workloads.cycles("numeric", seed):
        for op in ops:
            table[(op.cycle, op.index)] = (op,) + refs.reference(op)
    return table


def check_numeric(records, table):
    """Mark values outside the stated accuracy as failed; count the ops whose
    actual error exceeds the library's own ``tail_bound``."""
    import refs
    violations = 0
    for rec in records:
        if rec["error"] is not None:
            continue
        op, ref, acc = table[(rec["cycle"], rec["index"])]
        err = refs.error(rec["value"], ref)
        rec["abs_error"] = err
        # written as "not <=" so that a NaN value fails
        if not err <= acc:
            rec["error"] = f"|value - reference| = {err:.3g} > stated accuracy {acc:.3g}"
        if not err <= rec["tail"]:
            violations += 1
            rec["bound_violation"] = True
    return violations


# --- metrics -----------------------------------------------------------------

def latency_metrics(records):
    ns = [r["ns"] for r in records]
    p90 = statistics.quantiles(ns, n=10)[8] if len(ns) > 1 else ns[0]
    return {
        "work_per_s": (sum(r["work"] for r in records) / sum(ns) * 1e9, "1/s"),
        "op_p50_ms": (statistics.median(ns) / 1e6, "ms"),
        "op_p90_ms": (p90 / 1e6, "ms"),
    }


def layer_metrics(result, violations, overhead):
    """Per-layer metrics of a traced run, normalised per workload op."""
    trace = result["trace"]
    n_ops = len(result["ops"])
    empty = {"calls": 0, "self_ns": 0, "incl_ns": 0}

    def get(layer, key="self_ns"):
        return trace.get(layer, empty).get(key, 0)

    def per_call(layer, scale):
        calls = get(layer, "calls")
        return get(layer, "incl_ns") / scale / calls if calls else 0.0

    def per_term(layer):
        terms = get(layer, "terms")
        return get(layer, "incl_ns") / terms if terms else 0.0

    ms_per_op = lambda layer: get(layer) / 1e6 / n_ops
    ms = "ms/op"
    numeric_calls = sum(get(f"numeric_eval.{f}", "calls")
                        for f in ("zeta_num", "mpl_num", "qmzv_num"))
    numeric_bytes = sum(get(f"numeric_eval.{f}", "bytes")
                        for f in ("zeta_num", "mpl_num", "qmzv_num"))
    lookups = result["lookups"]
    return {
        "coefficients.poly_gcd.us_per_call": (per_call("coefficients.poly_gcd", 1e3), "us/call"),
        "coefficients.poly_gcd.calls": (get("coefficients.poly_gcd", "calls") / n_ops, "calls/op"),
        "coefficients.ratfunc.us_per_op": (per_call("coefficients.ratfunc", 1e3), "us/call"),
        "tensor_algebra.mixable_shuffle.calls": (get("tensor_algebra.mixable_shuffle", "calls") / n_ops, "calls/op"),
        "tensor_algebra.mixable_shuffle.self_ms": (ms_per_op("tensor_algebra.mixable_shuffle"), ms),
        "tensor_algebra.mixable_shuffle.terms_out": (get("tensor_algebra.mixable_shuffle", "terms_out") / n_ops, "terms/op"),
        "tensor_algebra.mixable_shuffle.repeat_ratio": (
            get("tensor_algebra.mixable_shuffle", "repeats")
            / max(1, get("tensor_algebra.mixable_shuffle", "calls")), "ratio"),
        "tensor_algebra.sha_mul.calls": (get("tensor_algebra.sha_mul", "calls") / n_ops, "calls/op"),
        "tensor_algebra.sha_mul.self_ms": (ms_per_op("tensor_algebra.sha_mul"), ms),
        "mzv_calculus.stuffle.self_ms": (ms_per_op("mzv_calculus.stuffle"), ms),
        "mzv_calculus.shuffle_zeta.self_ms": (ms_per_op("mzv_calculus.shuffle_zeta"), ms),
        "mzv_calculus.q_stuffle.self_ms": (ms_per_op("mzv_calculus.q_stuffle"), ms),
        "mzv_calculus.relations.self_ms": (ms_per_op("mzv_calculus.relations"), ms),
        "identity_engine.checks.self_ms": (ms_per_op("identity_engine.checks"), ms),
        "operator_gallery.defects.self_ms": (ms_per_op("operator_gallery.defects"), ms),
        "numeric_eval.zeta_num.ns_per_term": (per_term("numeric_eval.zeta_num"), "ns/term"),
        "numeric_eval.mpl_num.ns_per_term": (per_term("numeric_eval.mpl_num"), "ns/term"),
        "numeric_eval.qmzv_num.ns_per_term": (per_term("numeric_eval.qmzv_num"), "ns/term"),
        "numeric_eval.cache_hit_ratio": (
            1 - get("numeric_eval.zeta_num", "calls") / lookups if lookups else 0.0, "ratio"),
        "numeric_eval.computed_bytes": (numeric_bytes / numeric_calls if numeric_calls else 0.0, "B/call"),
        "numeric_eval.bound_violations": (violations, "count"),
        "cli.build_corpus.self_ms": (ms_per_op("cli.build_corpus"), ms),
        "cli.canonical_json.ms": (get("cli.canonical_json", "incl_ns") / 1e6 / n_ops, ms),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def tracing_overhead(untraced, traced):
    """Traced over untraced throughput, on the ops both interpreters ran."""
    base = {(r["cycle"], r["index"]): r["ns"] for r in untraced["ops"]}
    common = [(base[(r["cycle"], r["index"])], r["ns"]) for r in traced["ops"]
              if (r["cycle"], r["index"]) in base]
    return sum(u for u, _ in common) / sum(t for _, t in common)


# --- environment record -----------------------------------------------------

def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def array_sizes(workload):
    """Largest array one op allocates, per op family, in bytes."""
    if workload == "corpus":
        return {"zeta_num": workloads.CORPUS_N * 8}
    sizes = {}
    if workload == "numeric":
        for family, _, base in workloads.NUMERIC_STRATA:
            n = min(workloads.MAX_N, int(base * workloads.N_JITTER))
            itemsize = 16 if family.startswith("mpl") else 8  # mpl_num is complex
            sizes[family] = max(sizes.get(family, 0), n * itemsize)
    return sizes


def environment(workload):
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in
                read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(index / "level").strip() == "3":
            llc = read(index / "size").strip()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": llc,
        "max_array_bytes": array_sizes(workload),
    }


# --- driver ------------------------------------------------------------------

def family_stats(records):
    by = {}
    for r in records:
        by.setdefault(r["family"], []).append(r["ns"] / 1e6)
    return {f: {"ops": len(v), "p50_ms": statistics.median(v)}
            for f, v in sorted(by.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rbmzv" / "__init__.py").is_file():
        fail(f"no rbmzv sources under {ROOT / 'src'}; run from a checkout")
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    runner = Runner(args.workload, args.seed)
    table = numeric_references(args.seed) if args.workload == "numeric" else None

    if args.trace:
        half = args.seconds / 2
        untraced = runner.spawn(seconds=half, cap=60)
        traced = runner.spawn(seconds=half, cap=90, trace=True)
        runs = [untraced, traced]
    else:
        runner.spawn(setup_only=True)  # warm-up: fills the bytecode cache
        setup = [runner.spawn(setup_only=True)["setup_ns"]
                 for _ in range(SETUP_BEFORE)]
        measured = runner.spawn(seconds=args.seconds, cap=120)
        setup += [measured["setup_ns"]] + [
            runner.spawn(setup_only=True)["setup_ns"] for _ in range(SETUP_AFTER)]
        runs = [measured]

    violations = 0
    if table is not None:
        for run in runs:
            violations += check_numeric(run["ops"], table)
    records = [r for run in runs for r in run["ops"]]
    failed = [r for r in records if r["error"] is not None]

    if args.trace:
        overhead = tracing_overhead(untraced, traced)
        metrics = layer_metrics(traced, violations, overhead)
        samples = {name: len(traced["ops"]) for name in metrics}
    else:
        metrics = {"setup_s": (statistics.median(setup) / 1e9, "s"),
                   **latency_metrics(measured["ops"])}
        samples = {name: len(measured["ops"]) for name in metrics}
        samples["setup_s"] = len(setup)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(records), "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "bound_violations": violations,
        "cycles": [run["cycles"] for run in runs],
        "output_digest": runs[0]["digest"],
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
        "families": family_stats(runs[0]["ops"]),
        "op_ns": [[r["family"], r["cycle"], r["index"], r["ns"]] for r in runs[0]["ops"]],
        "failures": [f"{r['family']} {r['cycle']}/{r['index']}: {r['error']}"
                     for r in failed][:20],
        "environment": environment(args.workload),
    }
    if args.trace:
        record["trace_missing"] = traced.get("missing", [])
    else:
        record["setup_ns"] = setup
    out_dir = ROOT / ".bench_build" / "perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={len(records)} failed={len(failed)} "
          f"failed_ratio={record['failed_ratio']:.4g} "
          f"bound_violations={violations} digest={record['output_digest']}",
          file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']:9s} n={m['samples']}",
              file=sys.stderr)
    for line in record["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"  record: {path.relative_to(ROOT)}", file=sys.stderr)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
