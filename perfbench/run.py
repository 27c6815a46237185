"""capgames benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eq-supports --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in a fresh, single-threaded worker process (worker.py)
against the checkout's own `src/`; nothing is installed. With `--trace 0`
the last stdout line is one JSON object holding the end-to-end metrics
of BENCHMARK.json; with `--trace 1` it holds the per-layer metrics of a
separate traced run. The lines before it repeat the figures for people.

Other tenants of a shared host change its speed by up to 2x, within a
second and over minutes. So the times are reported at a reference host
speed: the worker runs a fixed calibration slice between items (see
worker.CAL_SHARE), and each pass's times are scaled by CAL_REF_S over
the mean time of the slices run during it and the pass before. The lines
for people also show each time as measured. Every figure is a median
over the run's passes: `wall_s` is the median pass time, and each item's
time is its median over the passes, of which `item_p50_ms` and
`item_p90_ms` are the median and 90th percentile over the item list.
`setup_s` is the median over SETUP_SAMPLES extra worker processes that
stop at the first timed item, half started before the measuring worker
and half after, plus the measuring worker itself, each scaled by
calibration slices run right after its set-up. `failed_frac` is `failed
/ attempted` of the result line; it is printed but not a metric, since
an end-to-end metric must never read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = ("eq-supports", "dense-beliefs", "convexity", "cli")
DEFAULT_SEED = 7
SETUP_SAMPLES = 6
DEADLINE_S = 170


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, root, env, deadline, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    # A session of its own, so that a timeout also stops the cli commands.
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], cwd=root, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: worker passed the {DEADLINE_S} s deadline")
    finally:
        if proc.poll() is None:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_metrics(passes, setup_s: float) -> dict:
    per_item = [statistics.median(times) for times in zip(*passes)]
    return {
        "wall_s": statistics.median(sum(times) for times in passes),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_p90_ms": percentile(per_item, 90) * 1000,
        "setup_s": setup_s,
    }


def run_workload(args, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    setup_only = ["--setup-only"]
    setups = []
    if not args.trace:  # half of the samples before the measuring worker
        setups += [run_worker(args, root, env, deadline, setup_only)
                   for _ in range(SETUP_SAMPLES // 2)]
    res = run_worker(args, root, env, deadline)
    setups.append(res)
    if not args.trace:  # and half after, to meet other moments of the host
        setups += [run_worker(args, root, env, deadline, setup_only)
                   for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]

    passes = res["passes"]
    attempted = res["runs"]
    failed = len(res["failures"])
    for line in res["failures"][:20]:
        print(f"FAILED {args.workload} {line}", file=sys.stderr)
    raw = {}
    if args.trace:
        values = res["layers"]
    else:
        raw = time_metrics(passes, statistics.median(s["setup_s"] for s in setups))
        # The same figures at the reference host speed: each pass and each
        # set-up scaled by its own calibration.
        values = time_metrics(
            [[t * scale for t in times] for times, scale in zip(passes, res["scales"])],
            statistics.median(s["setup_s"] * s["setup_scale"] for s in setups))
        values["peak_rss_mib"] = res["peak_rss_mib"]
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in values.items()}
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes of {len(passes[0])} items")
    for name, m in metrics.items():
        as_measured = f"  ({raw[name]:.6g} as measured)" if name in raw else ""
        print(f"  {name:32} {m['value']:>16.6g} {m['unit']}{as_measured}")
    print(f"  {'failed_frac':32} {failed / attempted:>16.6g} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; default: all four in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (convexity is exhaustive and ignores it)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "capgames" / "__init__.py").is_file():
        print(f"error: no src/capgames under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_workload(args, root)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
