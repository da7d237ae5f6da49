"""pqcapprox benchmark: report workloads timed end to end, and a traced run.

    python3 perfbench/run.py --workload taylor_d2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the root of a checkout; it puts ``src`` on the children's
PYTHONPATH.  Every measurement runs in a fresh interpreter (perfbench/child.py)
with the BLAS/OpenMP thread pools pinned to one thread.  With ``--trace 0``
the run prints the end-to-end metrics, with ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object.  The exit code is
0 when every output matched its classical reference, 1 when one did not,
and 2 when a measurement could not run (no result line is printed then).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402  (none of these imports pqcapprox)
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_RUNS = 4  # setup-only interpreters per run, for the setup_s median
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s it is allowed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "report_s": "s",
    "point_ms_p50": "ms",
    "point_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class MeasurementError(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Start one fresh interpreter, wait for it, return its JSON line."""
    launched = time.monotonic()
    timeout = deadline - launched
    if timeout <= 0:
        raise MeasurementError(f"no time left for a {mode} run of {workload}")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps it
        raise MeasurementError(f"{mode} run of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise MeasurementError(
            f"{mode} run of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - launched
    return out


def environment(versions: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), **versions,
            "threads": {var: "1" for var in THREAD_VARS}}


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 that leaves at least ten samples beyond it."""
    usable = [p for p in (50.0, 90.0, 95.0, 99.0, 99.9) if n * (100 - p) / 100 >= 10]
    if not usable:
        raise ValueError(f"{n} samples leave fewer than ten beyond the median")
    return usable[-1]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)]


def lanes() -> int:
    """Interpreters measured at once: one per CPU, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def run_children(modes: list[str], workload: str, seed: int, deadline: float) -> list[dict]:
    """Run the children in order, ``lanes()`` at a time; wait for every one."""
    with ThreadPoolExecutor(max_workers=lanes()) as pool:
        futures = [pool.submit(run_child, m, workload, seed, deadline) for m in modes]
        return [f.result() for f in futures]


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """End-to-end run: setup-only interpreters, then a fixed number of full ones.

    The number of full interpreters follows from ``seconds`` and the
    workload's typical child time, so it is the same on every run and
    commit; the samples of all of them are pooled.
    """
    w = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = run_children(["setup"] * SETUP_RUNS, workload, seed, deadline)
    per_lane = max(1, round(seconds / w.child_s))
    fulls = run_children(["full"] * (per_lane * lanes()), workload, seed, deadline)

    point_ms = [t for c in fulls for t in c["point_ms"]]
    point_raw_ms = [t for c in fulls for t in c["point_raw_ms"]]
    tail = tail_percentile(len(point_ms))
    attempted = sum(1 + c["point_calls"] for c in fulls)
    failed = sum((not c["report_ok"]) + c["point_failed"] for c in fulls)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in setups + fulls),
        "report_s": statistics.median(c["report_s"] for c in fulls),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_tail": percentile(point_ms, tail),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in fulls),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    kernel_ms = [c["kernel_ms"]["median"] for c in setups + fulls]
    info = {
        "env": environment(setups[0]["versions"]),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "base": attempted},
        "interpreters": {"setup": len(setups) + len(fulls), "full": len(fulls),
                         "at_once": lanes()},
        "point_ms_tail": {"percentile": tail, "samples": len(point_ms)},
        "raw": {
            "setup_s": statistics.median(c["setup_raw_s"] for c in setups + fulls),
            "report_s": statistics.median(c["report_raw_s"] for c in fulls),
            "point_ms_p50": statistics.median(point_raw_ms),
            "point_ms_tail": percentile(point_raw_ms, tail),
        },
        "kernel_ms": {"nominal": speed.NOMINAL_MS, "min": min(kernel_ms),
                      "max": max(kernel_ms)},
    }
    for c in fulls:
        del c["point_ms"], c["point_raw_ms"]
    return result, [info, *setups, *fulls]


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """Per-layer run: two untraced reports for the overhead, two traced ones."""
    deadline = time.monotonic() + RUN_LIMIT_S
    runs = run_children(["report", "traced"] * 2, workload, seed, deadline)
    plain, traced = runs[0::2], runs[1::2]
    layers = spans.mean_metrics([t["layers"] for t in traced])
    layers["trace.overhead_s"] = (
        statistics.fmean(t["report_s"] for t in traced)
        - statistics.fmean(p["report_s"] for p in plain)
    )
    mismatched = [k for k in spans.EXACT_COUNTS
                  if traced[0]["layers"][k] != traced[1]["layers"][k]]
    failed = sum(not c["report_ok"] for c in runs)
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": layers[k], "unit": unit}
                    for k, (unit, _) in spans.PER_LAYER.items()},
    }
    info = {
        "counts_repeat": not mismatched,
        "mismatched_counts": mismatched,
        "unattributed_share": layers["unattributed_s"] / layers["cli.run_experiment.s"],
        "untraced_report_s": [p["report_s"] for p in plain],
        "traced_report_s": [t["report_s"] for t in traced],
        "raw_report_s": [c["report_raw_s"] for c in runs],
    }
    return result, [info, *runs]


def summarize(workload: str, result: dict, info: dict) -> None:
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for name, value in info.items():
        print(f"  {name}: {json.dumps(value)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed; keep seed 2 back to confirm a claimed gain")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pqcapprox").is_dir():
        print(f"benchmark aborted: no src/pqcapprox under {ROOT}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            if args.trace:
                result, record = measure_traced(name, args.seed)
            else:
                result, record = measure(name, args.seed, args.seconds)
        except MeasurementError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 2
        summarize(name, result, record[0])
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{stem}.json").write_text(
            json.dumps({"result": result, "record": record}, indent=1)
        )
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
