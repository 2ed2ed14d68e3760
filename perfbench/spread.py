#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and count repeatability.

    python3 perfbench/spread.py --workload pa-audit --seeds 1-10 --seconds 5
    python3 perfbench/spread.py --workload dense-engine --seeds 1-2 --trace

Runs `run.py` once per seed, one run at a time. Untraced, it prints for
each metric the median, the quartiles (`statistics.quantiles(values,
n=4)`) and the spread: the distance between the quartiles as a share of
the median. With `--trace` it checks instead that every per-layer count
repeats exactly across the traced runs (exit code 1 if one does not).
With `--out FILE` the runs are also added to FILE (JSON), per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="5")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", str(int(args.trace))], cwd=HERE.parent,
            capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    status = 0
    summary = {}
    if args.trace:
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in runs]
        differ = sorted(k for k in counts[0]
                        if any(c[k] != counts[0][k] for c in counts[1:]))
        summary["counts_differ"] = differ
        print(f"{len(counts[0])} counts over {len(runs)} traced runs: "
              + (f"differ: {differ}" if differ else "all repeat exactly"))
        status = 1 if differ else 0
    else:
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med}
            print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {summary[name]['spread']:.4f}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault(args.workload, []).append(
            {"seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs})
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
