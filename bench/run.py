#!/usr/bin/env python3
"""Run one bnrefine benchmark workload and print its metrics.

    python3 bench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  A run sets up and runs sessions, each on fresh inputs drawn
from the seed.  How many depends on ``--seconds`` and the workload alone
(``Size.session_count``), so one seed always makes the same operations.
Set-up is timed apart as ``setup_s``.  Times are scaled to a reference
host speed measured by a probe loop around each set-up and step (see
``Timings``).  Every metric is printed with its unit and direction; the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it runs session 0 untraced and then traced, and reports the
per-layer metrics of the traced session plus the tracing overhead.
``correct`` is false when an operation returned an output that failed its
check; operations that raise are counted in ``failed``.  The run exits 2
without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the first group is also gated in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "step_p50_ms": ("ms", "lower"),
    "step_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "arcs_recovered": ("count", "higher"),
}
# reported but not gated: each can be 0 or missing on a correct run
REPORTED = {
    "arcs_spurious": ("count", "lower"),
    "heldout_loglik": ("nat", "higher"),
    "ops_failed_frac": ("ratio", "lower"),
}


def tail(steps: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten steps beyond it, and its value.

    With fewer than eleven steps there is no such percentile; the maximum
    is reported at the 100th.
    """
    ordered = sorted(steps)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Timings:
    """Raw times, and the same times scaled to a host running the probe in PROBE_REF_MS.

    The host's speed drifts by up to 1.7x within tens of seconds, which
    moves every raw time with it.  Each step and each set-up is therefore
    bracketed by host probes, and its time is multiplied by PROBE_REF_MS
    over their mean; a session's wall time by the time-weighted mean
    factor of its steps.
    """

    def __init__(self):
        self.raw = defaultdict(list)
        self.scaled = defaultdict(list)

    def add(self, kind: str, values: list[float], factors: list[float]) -> None:
        self.raw[kind] += values
        self.scaled[kind] += [v * f for v, f in zip(values, factors)]


def mean_of(values):
    """Mean over sessions; missing if any session could not give the value."""
    return None if None in values else statistics.fmean(values)


def timed_setup(workload, seed: int, session: int, work: Path, tally, times: Timings):
    from workloads import PROBE_REF_MS, data_seed

    before = tally.probe()
    start = time.perf_counter()
    inputs = workload.setup(data_seed(seed, session), work / f"s{session}")
    took = time.perf_counter() - start
    times.add("setup", [took], [PROBE_REF_MS / statistics.fmean((before, tally.probe()))])
    return inputs


def untraced(workload, seed: int, seconds: float, work: Path, tally, times: Timings) -> list:
    """Sessions 0, 1, 2, ..., as many as ``Size.session_count(seconds)`` gives.

    The untimed checks run on session 0, whose inputs are also set up
    again so that ``setup_s`` is a median of at least SETUP_SAMPLES set-ups.
    """
    count = workload.size.session_count(seconds)
    for _ in range(SETUP_SAMPLES - count):
        timed_setup(workload, seed, 0, work, tally, times)
    quality = []
    for i in range(count):
        inputs = timed_setup(workload, seed, i, work, tally, times)
        first = len(tally.steps)
        result = workload.session(tally, inputs)
        steps, factors = tally.steps[first:], tally.factors[first:]
        times.add("step", steps, factors)
        times.add("wall", [result.wall], [sum(map(operator.mul, steps, factors)) / sum(steps)])
        quality.append(result.quality)
        if i == 0:
            workload.after(tally, inputs, result)
        shutil.rmtree(work / f"s{i}", ignore_errors=True)
    return quality


def end_to_end(workload, tally, times: Timings, quality: list) -> dict:
    """Gated and reported end-to-end metrics; times are host-scaled, raw ones are noted."""
    scaled = times.scaled
    steps, raw_steps = scaled["step"], times.raw["step"]
    percentile, tail_s = tail(steps)
    values = {
        "setup_s": statistics.median(scaled["setup"]),
        "wall_s": statistics.median(scaled["wall"]),
        "step_p50_ms": 1e3 * statistics.median(steps),
        "step_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "arcs_recovered": mean_of([q.recovered for q in quality]),
        "arcs_spurious": mean_of([q.spurious for q in quality]),
        "heldout_loglik": mean_of([q.heldout_loglik for q in quality]),
        "ops_failed_frac": tally.failed / tally.attempted,
    }
    notes = {
        "setup_s": f"median of {len(times.raw['setup'])} set-ups; "
                   f"raw {statistics.median(times.raw['setup']):.4g} s",
        "wall_s": f"median of {len(times.raw['wall'])} sessions; "
                  f"raw {statistics.median(times.raw['wall']):.4g} s",
        "step_p50_ms": f"raw {1e3 * statistics.median(raw_steps):.4g} ms",
        "step_tail_ms": f"p{percentile:.4g} of {len(raw_steps)} steps; "
                        f"raw {1e3 * tail(raw_steps)[1]:.4g} ms",
        "ops_failed_frac": f"{tally.failed} of {tally.attempted} operations",
    }
    return report({**END_TO_END, **REPORTED}, values, notes, gated=END_TO_END)


def traced(workload, seed: int, work: Path, tally) -> dict:
    """Session 0 untraced, then traced; per-layer metrics of the traced one."""
    import tracing

    from workloads import data_seed

    first = workload.setup(data_seed(seed, 0), work / "s0")
    plain = workload.session(tally, first)
    tracer = tracing.Tracer()
    if workload.name == "cli":
        result = traced_cli(workload, first, tally, tracer)
    else:
        tracer.install()
        try:
            result = workload.session(tally, first)
        finally:
            tracer.uninstall()
    workload.after(tally, first, result)
    tracer.dump(str(WORK / f"spans-{workload.name}.json"))
    layers = tracing.layer_metrics(tracer.spans, result.nets, tracing.import_seconds(str(SRC)))
    layers["trace.overhead_s"] = (result.wall - plain.wall, "s")
    specs = {
        name: (unit, "higher" if name.endswith("useful_ratio") else "lower")
        for name, (_, unit) in layers.items()
    }
    values = {name: value for name, (value, _) in layers.items()}
    return report(specs, values, {}, gated=None)


def traced_cli(workload, inputs, tally, tracer):
    """Each command runs under the tracing shim and leaves its spans in a file."""
    shim = Path(__file__).resolve().parent / "tracing.py"
    spans_dir = inputs.work / "spans"
    spans_dir.mkdir(exist_ok=True)
    paths = (spans_dir / f"{k:04d}.json" for k in itertools.count())
    plain = workload.launcher
    workload.launcher = lambda: [sys.executable, str(shim), "--spans", str(next(paths)), "--"]
    try:
        result = workload.session(tally, inputs)
    finally:
        workload.launcher = plain
    for path in sorted(spans_dir.glob("*.json")):
        tracer.extend(json.loads(path.read_text(encoding="utf-8")))
    return result


def report(specs: dict, values: dict, notes: dict, gated) -> dict:
    """Print one line per metric and return the JSON metrics of the gated ones."""
    metrics = {}
    for name, (unit, better) in specs.items():
        value = values.get(name)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        direction = f"{better} is better" if better else ""
        print(f"  {name:40s} {shown:>22s}  {direction:16s} {notes.get(name, '')}".rstrip())
        if value is not None and (gated is None or name in gated):
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, for the smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "bnrefine" / "__init__.py").is_file():
        print(f"bench: no bnrefine sources in {SRC}", file=sys.stderr)
        return 2
    for name in PIN_THREADS:
        os.environ[name] = "1"  # before numpy loads: one BLAS thread, here and in children
    sys.path.insert(0, str(SRC))
    import bnrefine
    from workloads import WORKLOADS, Tally

    if Path(bnrefine.__file__).resolve().parent != SRC / "bnrefine":
        print(f"bench: imported bnrefine from {bnrefine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workload_class = WORKLOADS[args.workload]
    workload = workload_class(workload_class.sizes[args.size])
    work = WORK / f"{args.workload}-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    try:
        if args.trace:
            metrics = traced(workload, args.seed, work, tally)
        else:
            tally.host_scaled = True
            times = Timings()
            quality = untraced(workload, args.seed, args.seconds, work, tally, times)
            metrics = end_to_end(workload, tally, times, quality)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for kind, count in sorted(tally.errors.items()):
        print(f"  failed: {kind} x{count}")
    for problem in tally.wrong:
        print(f"  wrong output: {problem}")
    if any(not math.isfinite(m["value"]) for m in metrics.values()):
        print("bench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
