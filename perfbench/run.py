"""Layered, correctness-checked benchmark of liftcal.

Usage, from the root of a checkout (liftcal is imported from its `src/`):

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

One process runs one workload, on one thread.  It first measures set-up in
fresh child processes, then runs passes over the workload's requests until
`--seconds` have gone, with `gc.collect()` between passes.  Each pass starts
from program text.  With `--trace 0` the last line reports the end-to-end
metrics; with `--trace 1` passes alternate between tracing off and on, and
the last line reports per-layer spans, counts and the tracing overhead.  The
metrics are medians over passes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
MIN_PASSES = 3  # per kind of pass: untraced, and traced when tracing


def _import_liftcal():
    """Put the checkout's src/ first on the path; refuse any other liftcal."""
    src = ROOT / "src"
    if not (src / "liftcal" / "__init__.py").is_file():
        raise SystemExit(f"error: no liftcal sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import liftcal

    if Path(liftcal.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported liftcal from {liftcal.__file__}, not {src}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args):
    _import_liftcal()
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    return workloads.build(args.workload, args.seed)


def _setup_seconds(args, speed):
    """Median time from spawning a fresh interpreter to its first timed operation.

    Each probe imports liftcal and builds the workload's inputs, then prints
    its monotonic clock (shared by all processes on the host) and exits.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def _layer_metrics(traced, untraced, tally):
    from passes import COUNTS, RATIOS, SPANS

    per_pass = []
    for times, tracer in traced:
        total, own = tracer.summary()
        row = {}
        for name in SPANS:
            row[f"{name}.s"] = total.get(name, 0.0)
            row[f"{name}.self_s"] = own.get(name, 0.0)
        for name in COUNTS:
            row[name] = tracer.counts.get(name, 0)
        for name, (num, den) in RATIOS.items():
            row[name] = row[num] / row[den] if row[den] else 0.0
        per_pass.append(row)
    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") or name.endswith(".s") else (
            "ratio" if name.endswith("ratio") else "count"
        )
        metrics[name] = (statistics.median([row[name] for row in per_pass]), unit)
    on = statistics.median([sum(times.values()) for times, _ in traced])
    off = statistics.median([sum(times.values()) for times, _ in untraced])
    metrics["trace.overhead_s"] = (on - off, "s")
    metrics["trace.overhead_ratio"] = ((on - off) / off, "ratio")
    metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    workload = _setup(args)
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0
    from passes import E2E, Pass, Tally
    from speed import Speed
    from tracing import Tracer

    speed = Speed()
    setup_s = _setup_seconds(args, speed)
    tally = Tally()
    refs = {}
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        gc.collect()
        speed.sample()
        tracing = bool(args.trace) and index % 2 == 1
        tracer = Tracer(tracing)
        times = Pass(workload, tracer, tally, refs, speed).run()
        (traced if tracing else untraced).append((times, tracer))
        index += 1
        enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start

    if args.trace:
        measured = _layer_metrics(traced, untraced, tally)
    else:
        measured = {name: (statistics.median([t[name] for t, _ in untraced]), "s") for name in E2E}
        measured["setup_s"] = (setup_s, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    factor = speed.factor()
    metrics = {
        name: (value * factor if unit == "s" else value, unit)
        for name, (value, unit) in measured.items()
    }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "measured_s": round(elapsed, 3),
        "speed_factor": factor,
        "speed_samples": len(speed.samples),
        "measured": {name: value for name, (value, unit) in measured.items() if unit == "s"},
        "failures": tally.errors,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
