"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload train --seeds 1-10 --seconds 20 \
        [--trace 0] [--json out.json]

Each seed is one `bench/run.py` process, run one after another. For every
metric this prints the median of the per-run values and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median. It exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", help="write the per-run values and summary here")
    args = p.parse_args(argv)

    runs = []
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
            else None
        if proc.returncode != 0 or not result or not result["correct"]:
            ok = False
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n"
                  f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            continue
        with open(os.path.join(os.path.dirname(HERE), ".bench_work",
                               args.workload, "result.json")) as f:
            detail = json.load(f)
        runs.append({"seed": seed, "metrics": {
            k: v["value"] for k, v in result["metrics"].items()},
            "op_samples": detail["op_samples"]})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()))

    summary = {}
    for name in (runs[0]["metrics"] if runs else {}):
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:45s} median {med:12.6g}  spread "
              f"{summary[name]['spread']:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 0 if ok and runs else 1


if __name__ == "__main__":
    sys.exit(main())
