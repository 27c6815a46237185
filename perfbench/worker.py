"""One workload in one fresh process: set up, run timed passes, check.

Started by run.py with `--t0`, the CLOCK_MONOTONIC reading taken just
before this process was spawned, so `setup_s` covers interpreter start,
`import capgames`, input generation and, for cli, the input files.
Prints one JSON object on its last stdout line.

Untraced (`--trace 0`): passes over the item list until `--seconds` is
used up, at least MIN_PASSES, with calibration slices between the items.
There is no untimed warm-up pass: first calls would pay for work moved
into lazy set-up there, where neither `setup_s` nor the pass times would
show it. Traced (`--trace 1`): TRACED_PASSES untraced and as many traced
passes, alternating; the traced passes' counts must agree exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
TRACED_PASSES = 2
# Host-speed calibration: after each item the worker runs the fixed
# `calibrate` slice until CAL_SHARE of the item's time is spent on it.
# A pass's scale is CAL_REF_S over the mean time of the slices run during
# it and the pass before, so that a long item has slices on both sides:
# the factor that brings the pass to a host on which a slice takes
# CAL_REF_S. Set-up is scaled by SETUP_SLICES slices run right after it.
CAL_SHARE = 0.1
CAL_STEPS = 5000
CAL_REF_S = 0.02
SETUP_SLICES = 5


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Time one fixed slice of interpreter work of the kinds capgames
    does (Fraction arithmetic and compares, big-integer bitsets, dict
    updates), using nothing from capgames, so that a change to the
    program never changes it. Only the host's speed moves its time."""
    t = time.perf_counter()
    acc, bits, table = Fraction(0), 0, {}
    for k in range(1, CAL_STEPS):
        f = Fraction(k % 13, k % 7 + 1)
        if f > acc:
            acc = (acc + f) / 2
        bits |= 1 << (k % 997)
        bits &= ~(1 << (k * 7 % 997))
        table[k % 251] = table.get(k % 241, 0) + bits.bit_count()
    return time.perf_counter() - t


def run_pass(wl, inputs, in_process=False, tracer=None, calibrated=False):
    """Time every item once; check outputs after the pass, untraced.
    With `calibrated`, run calibration slices between the items and
    return their times as `slices`."""
    times, outputs, slices = [], [], []
    owed = 0.0
    items = wl.items(inputs, in_process)
    if tracer:
        tracer.install()
    try:
        for index, (item_id, thunk) in enumerate(items):
            t = time.perf_counter()
            try:
                out = tracer.run_item(index, thunk) if tracer else thunk()
                error = None
            except Exception as exc:  # an item that raises is a failed item
                out, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t)
            outputs.append((item_id, out, error))
            if calibrated:
                owed += CAL_SHARE * times[-1]
                while owed > 0:
                    slices.append(calibrate())
                    owed -= slices[-1]
    finally:
        if tracer:
            tracer.uninstall()
    failures = []
    for item_id, out, error in outputs:
        problem = error or wl.check(item_id, out)
        if problem:
            failures.append(f"{item_id}: {problem}")
    result = {"times": times, "runs": len(outputs), "failures": failures}
    if calibrated:
        result["slices"] = slices
    return result


def median_pass(passes) -> float:
    return statistics.median(sum(times) for times in passes)


def measure(wl, seconds: float) -> dict:
    """Calibrated passes while the next one is expected to end within
    `seconds` of the start; see CAL_SHARE."""
    passes = []
    start = time.perf_counter()
    while True:
        inputs = wl.inputs if not passes else wl.fresh_inputs()
        passes.append(run_pass(wl, inputs, calibrated=True))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    slices = [p["slices"] for p in passes]
    return {
        "passes": [p["times"] for p in passes],
        "scales": [CAL_REF_S / statistics.fmean(before + mine)
                   for before, mine in zip([[]] + slices, slices)],
        "runs": sum(p["runs"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024,
    }


def import_timings(env) -> dict:
    """Interpreter start, `import capgames` and numpy's share of it, in
    fresh processes (`-X importtime`), medians of three."""
    bare, total, numpy = [], [], []
    for _ in range(3):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        bare.append((time.perf_counter() - t) * 1000)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import capgames"],
            check=True, env=env, stderr=subprocess.PIPE, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        total.append(cumulative["capgames"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(total),
            "cli.numpy_import_ms": statistics.median(numpy)}


def measure_traced(wl, trace_path: Path) -> dict:
    """Untraced and traced passes alternate, TRACED_PASSES of each, every
    pass after the first on fresh inputs; the overhead compares their
    median pass times."""
    from tracer import Tracer

    in_process = wl.name == "cli"  # subprocesses cannot be wrapped from here
    untraced, traced, tracers = [], [], []
    for k in range(TRACED_PASSES):
        untraced.append(run_pass(wl, wl.inputs if k == 0 else wl.fresh_inputs(),
                                 in_process))
        tracer = Tracer()
        traced.append(run_pass(wl, wl.fresh_inputs(), in_process, tracer))
        tracers.append(tracer)
        if k == 0:
            tracer.write(trace_path)
    passes = untraced + traced
    failures = [f for p in passes for f in p["failures"]]
    counts = [t.layer_counts() for t in tracers]
    diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                  if counts[0].get(k) != counts[1].get(k))
    if diff:
        failures.append(f"trace counts differ between traced passes: {diff[:8]}")
    per_pass = [t.metrics() for t in tracers]
    metrics = {name: (statistics.median(p[name] for p in per_pass)
                      if isinstance(value, float) else value)
               for name, value in per_pass[0].items()}
    metrics["trace.overhead"] = (median_pass([p["times"] for p in traced])
                                 / median_pass([p["times"] for p in untraced]))
    metrics.update(import_timings(os.environ))
    return {
        "passes": [p["times"] for p in passes],
        "runs": sum(p["runs"] for p in passes),
        "failures": failures,
        "layers": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # One CPU for this process and the cli commands it starts, so that the
    # calibration slices meet the same CPU as the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import capgames
    from workloads import WORKLOADS

    src = ROOT / "src"
    if Path(capgames.__file__).resolve().parent.parent != src:
        raise SystemExit(f"capgames imported from {capgames.__file__}, not {src}")
    build_dir = ROOT / ".bench_build" / "perfbench"
    workdir = build_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli":
            os.chdir(workdir)  # reports name their input files relative to it
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = now() - args.t0
        setup_scale = CAL_REF_S / statistics.fmean(
            calibrate() for _ in range(SETUP_SLICES))
        if args.setup_only:
            result = {}
        elif args.trace:
            result = measure_traced(wl, build_dir / f"trace-{args.workload}.json")
        else:
            result = measure(wl, args.seconds)
        result["setup_s"] = setup_s
        result["setup_scale"] = setup_scale
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
