"""One measurement in a fresh interpreter; prints one JSON line.

Usage (run.py starts it; ``--launched`` is its ``time.monotonic()`` just
before the launch, on the same system-wide clock):

    python3 perfbench/child.py --mode setup|full|report|traced \
        --workload NAME --seed N --launched T

``setup`` stops once pqcapprox is imported and the inputs are ready.
``full`` then times the report and the single-point stage.  ``report``
times the report only, and ``traced`` runs the report with spans recorded.
Times are reported raw and scaled to the reference speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_report(stage, tracer=None) -> dict:
    """Run ``cli.run_experiment`` from cold caches; check the report after.

    Returns the interval it ran in.  With a tracer, only the report itself
    is traced, not the check.
    """
    from pqcapprox import cli

    t0 = perf_counter()
    try:
        with tracer.installed() if tracer else nullcontext():
            report = cli.run_experiment(stage.cfg)
    except Exception:  # a raised error is a failed operation, recorded below
        return {"report_t": (t0, perf_counter()), "report_ok": False,
                "report_error": traceback.format_exc(limit=3)}
    t1 = perf_counter()
    return {"report_t": (t0, t1), "report_ok": stage.check_report(report),
            "sup_error": report.sup_error, "pass": report.passed}


def run_points(stage, call, warm, xs, tol_agg, between=lambda: None) -> dict:
    """Warm up, then time each single-point call; check every value after.

    ``between`` runs after every second call, outside the timed intervals.
    A call that raises, returns a non-finite value or misses its classical
    reference counts as a failed operation.
    """
    values: list = []
    for x in warm:
        try:
            values.append(call(x))
        except Exception:
            values.append(None)
    intervals = []
    for x in xs:
        t0 = perf_counter()
        try:
            v = call(x)
        except Exception:
            v = None
        intervals.append((t0, perf_counter()))
        values.append(v)
        if len(intervals) % 2 == 0:
            between()
    points = list(warm) + list(xs)
    failed = sum(
        1 for x, v in zip(points, values) if v is None or not stage.check_point(x, v, tol_agg)
    )
    return {"point_calls": len(points), "point_failed": failed, "point_t": intervals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "full", "report", "traced"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import speed
    import spans
    import stage as stage_mod  # imports pqcapprox
    import workloads

    stage = stage_mod.Stage(workloads.WORKLOADS[args.workload], args.seed)
    setup_raw_s = time.monotonic() - args.launched
    ready = perf_counter()
    tracer = spans.Tracer() if args.mode == "traced" else None
    out: dict = {}
    sampler = speed.Sampler()
    sampler.sample(speed.NEAREST)
    if args.mode != "setup":
        with sampler.every():
            out.update(run_report(stage, tracer))
    if args.mode == "full":
        call, warm, tol_agg = stage.build_call()
        out.update(run_points(stage, call, warm, stage.xs, tol_agg, sampler.sample))
    sampler.sample(speed.NEAREST)

    # scale every interval to the reference speed, now that all samples exist
    out["setup_raw_s"] = setup_raw_s
    out["setup_s"] = setup_raw_s * speed.NOMINAL_MS / sampler.kernel_ms_at(ready)
    if "report_t" in out:
        a, b = out.pop("report_t")
        out["report_raw_s"] = b - a
        out["report_s"] = sampler.scaled(a, b)
    if "point_t" in out:
        intervals = out.pop("point_t")
        out["point_raw_ms"] = [(b - a) * 1e3 for a, b in intervals]
        out["point_ms"] = [sampler.scaled(a, b) * 1e3 for a, b in intervals]
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.spans, lambda s: sampler.scaled(s[2], s[3]))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-pid{os.getpid()}.json"
        path.write_text(json.dumps(tracer.spans))
    kernel_ms = [ms for _, _, ms in sampler.samples]
    out["kernel_ms"] = {"median": statistics.median(kernel_ms), "min": min(kernel_ms),
                        "max": max(kernel_ms), "samples": len(kernel_ms)}
    if args.mode == "setup":
        out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__, "openblas": _openblas_version(numpy)}
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def _openblas_version(numpy) -> str:
    deps = numpy.__config__.CONFIG.get("Build Dependencies", {})
    return str(deps.get("blas", {}).get("version", "unknown"))


if __name__ == "__main__":
    sys.exit(main())
