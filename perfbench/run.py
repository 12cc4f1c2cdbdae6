#!/usr/bin/env python3
"""striplex benchmark harness.

    python3 perfbench/run.py --workload verify_vee --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) through `striplex.cli.main`, called in
this process, on the `src/` tree of the checkout this file sits in.

--trace 0  end-to-end metrics: workload iterations until --seconds have
           passed (at least one), reporting the median iteration scaled
           to a nominal machine speed by a reference loop timed while it
           runs (speed.py; the raw times are printed above the result),
           and set-up time (median of fresh-process probes run between the
           iterations).
--trace 1  per-layer metrics, raw times: one untraced and one traced
           iteration; the difference is the tracing overhead.  Spans are
           written to perfbench/out/<workload>-seed<n>.spans.tsv.

Every output is checked outside the timed region.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one single-threaded process: pin BLAS/OpenMP threads before numpy loads
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, L  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # per gap between iterations
COUNT_UNITS = ("count", "bytes", "iters")


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    if not (SRC / "striplex" / "cli.py").is_file() or not (ROOT / "data" / "splines").is_dir():
        die(f"no striplex checkout around {HERE}: need src/striplex and data/splines")
    sys.path.insert(0, str(SRC))
    import striplex.cli

    if Path(striplex.cli.__file__).resolve().parent != (SRC / "striplex").resolve():
        die(f"imported striplex from {striplex.cli.__file__}, not from {SRC}")
    return striplex.cli


def machine_facts() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def setup_probes(plan, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to an admitted problem.

    Not scaled to the reference speed: process start and imports do not
    follow the pure-Python reference loop, and raw set-up times are the
    steadier ones here (NOTES.md)."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(plan.spline), repr(L), repr(plan.delta)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_once(main, plan, work: Path, sampled: bool = True) -> dict:
    """One iteration: every CLI command of the plan, timed together; with
    `sampled`, reference samples are taken meanwhile (speed.Sampler)."""
    out, err = io.StringIO(), io.StringIO()
    codes = []
    sampler = speed.Sampler()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampler if sampled else contextlib.nullcontext():
        t0 = time.perf_counter()
        for argv in plan.argvs:
            try:
                codes.append(main(argv))
            except Exception:  # an escaped exception is a failed operation, not a crash
                traceback.print_exc()
                codes.append(None)
        wall = time.perf_counter() - t0 - sampler.stolen_s
    # verify reports its own elapsed time; everything else it prints is deterministic
    stdout = re.sub(r"elapsed [0-9.]+ s", "elapsed - s", out.getvalue())
    digests = {"stdout": sha256(stdout.encode("utf-8"))}
    for name in plan.outputs:
        path = work / name
        digests[name] = sha256(path.read_bytes()) if path.exists() else "missing"
    sys.stderr.write(err.getvalue())
    run = {"wall": wall, "codes": codes, "stdout": out.getvalue(), "digests": digests}
    if sampled:
        run["reference"] = statistics.fmean(sampler.samples)
        run["scaled"] = wall * speed.REF_S / run["reference"]
    return run


def exit_checks(plan, run: dict, tag: str) -> list:
    return [(f"{tag} `{argv[0]}` exit code {code}", code == 0) for argv, code in zip(plan.argvs, run["codes"])]


def measure(main, plan, work: Path, seconds: float):
    # set-up probes are spread between the iterations so that both medians
    # sample the same stretch of machine time
    setup = []
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setup += setup_probes(plan, SETUP_PROBES)
        runs.append(run_once(main, plan, work))
        run = runs[-1]
        print(f"iteration {len(runs)}: {run['wall']:.3f} s raw, {run['scaled']:.3f} s scaled "
              f"(reference {run['reference'] * 1e3:.1f} ms)")
    setup += setup_probes(plan, SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = []
    for k, run in enumerate(runs):
        ops += exit_checks(plan, run, f"iteration {k + 1}")
        if k:
            ops.append((f"iteration {k + 1} output digests equal iteration 1", run["digests"] == runs[0]["digests"]))
    print(f"raw median iteration {statistics.median(r['wall'] for r in runs):.6f} s")
    walls = [r["scaled"] for r in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (plan.points * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, ops, runs[0]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "striplex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_traced(main, plan, work: Path, workload: str, seed: int):
    base = run_once(main, plan, work, sampled=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_once(tracer.span("cli.main", main), plan, work, sampled=False)
    finally:
        tracer.uninstall()
    print(f"untraced {base['wall']:.3f} s, traced {traced['wall']:.3f} s, {len(tracer.dur)} spans")
    metrics = tracer.metrics(traced["wall"])
    metrics["traced_wall_s"] = (traced["wall"], "s")
    metrics["trace_overhead_s"] = (traced["wall"] - base["wall"], "s")
    tracer.write_spans(OUT / f"{workload}-seed{seed}.spans.tsv")

    ops = exit_checks(plan, base, "untraced") + exit_checks(plan, traced, "traced")
    ops.append(("traced output digests equal the untraced ones", traced["digests"] == base["digests"]))
    # determinism: a traced run of the same source and seed must repeat every count
    counts = {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}
    record = OUT / f"{workload}-seed{seed}-{source_digest()}.counts.json"
    if record.exists():
        previous = json.loads(record.read_text(encoding="utf-8"))
        differ = sorted(k for k in counts.keys() | previous.keys() if counts.get(k) != previous.get(k))
        ops.append((f"counts equal the previous traced run (differ: {differ})", not differ))
    else:
        print(f"determinism: first traced run of this source and seed, counts recorded in {record.name}")
    record.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
    return metrics, ops, base


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_program()
    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        plan = WORKLOADS[args.workload](ROOT, work, args.seed)
        for note in plan.notes:
            print(f"note {note}")
        if args.trace:
            metrics, ops, first = measure_traced(cli.main, plan, work, args.workload, args.seed)
        else:
            metrics, ops, first = measure(cli.main, plan, work, args.seconds)
        for name, digest in first["digests"].items():
            print(f"sha256 {name} {digest}")
        ops += plan.check(work, first["stdout"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()
    print("machine " + json.dumps(facts, sort_keys=True))

    failed = [label for label, ok in ops if not ok]
    for label in failed[:20]:
        print(f"FAILED {label}")
    print(f"fail_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):.6g}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
