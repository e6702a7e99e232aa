#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload vgg16 --seeds 1-10 [--trace 0] [--out FILE]

Runs are sequential, one process at a time, each for BENCHMARK.json's
run_seconds.  For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median; for
end-to-end metrics also the bound and whether the spread is under a third
of it.  --out merges the figures into a JSON file keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results, attempted, failed = [], 0, 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        attempted += last["attempted"]
        failed += last["failed"]
        results.append({k: v["value"] for k, v in last["metrics"].items()})
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in results[-1].items()
                                         if args.trace == 0), flush=True)

    summary = {}
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]:
        values = [r[name] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name) if args.trace == 0 else None
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
        print(f"{name:36} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "n": len(values), "values": values}
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        key = args.workload + (" traced" if args.trace else "")
        doc[key] = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                    "attempted": attempted, "failed": failed, "metrics": summary}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
