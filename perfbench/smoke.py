"""Smoke check: every metric named in BENCHMARK.json is emitted, with its
unit, on every workload, in both the untraced and the traced mode.

    python3 perfbench/smoke.py            # all workloads, about two minutes
    python3 perfbench/smoke.py symbolic   # one workload

Runs are as short as the benchmark allows (``--seconds 1``, which still
measures one whole cycle), so the numbers themselves mean nothing here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} ops failed their checks")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, "
                                f"units {[k for k in got if expected.get(k, got[k]) != got[k]]}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}",
                  flush=True)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
