#!/usr/bin/env python3
"""Run one workload over several seeds and summarize the spread.

    python3 perfbench/sweep.py --workload field_zigzag --seeds 1-10
    python3 perfbench/sweep.py --workload verify_vee --seeds 1-10 --record "seed commit 79ef33d"

Each seed is one fresh `run.py` process, run one after another.  For every
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, and the same for the unscaled iteration time
that run.py prints (raw_wall_s).  With --record the summary is appended as one
JSON line to perfbench/trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", help="append the summary to trajectory.jsonl")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    machine: list[dict] = []
    for seed in args.seeds:
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        machine += [json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")]
        for line in lines:
            if line.startswith("raw median iteration "):
                values.setdefault("raw_wall_s", []).append(float(line.split()[3]))
                units["raw_wall_s"] = "s"
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {time.monotonic() - t0:.1f} s, failed {result['failed']}/{result['attempted']}",
              flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:34s} {med:14.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
    print(f"failed {failed}/{attempted}")
    if args.record:
        line = {"label": args.record, "workload": args.workload, "trace": args.trace, "seeds": args.seeds,
                "seconds": args.seconds, "failed": failed, "attempted": attempted, "metrics": summary,
                "machine": machine}
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
