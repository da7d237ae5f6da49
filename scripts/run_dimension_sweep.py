#!/usr/bin/env python3
"""Sweep the input dimension d of the nested localization + Taylor model.

    python scripts/run_dimension_sweep.py [--dims 1,2,3,4,5] [--output FILE]
        [--max-seconds S] [--max-mb M]

Every d runs ``report --experiment taylor`` on ``product_sines`` with s=1,
K=8 and an explicit delta = 0.0375 (``cli.run_experiment``), in a fresh
interpreter of its own, so its wall time and peak RSS are its alone.  The
bound is d^2/64 at these settings.  Per d the sweep records the sup error
against f, the sup error of the classical per-cell Taylor polynomials
against f on the same grid, the bound and the error-to-bound ratio, the
built resources, the K^d starts of the series block and the grid points,
the report's wall time and the interpreter's peak RSS after it.

Exits 1 unless every d passes its bound, its sup error lies within
tol_agg + 1e-9 of the classical one, and (when given) its report takes
under ``--max-seconds`` and its peak RSS stays under ``--max-mb``.
A d that fails is recorded all the same.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

K, S, DELTA, TARGET = 8, 1, 0.0375, "product_sines"


def measure(d: int) -> dict:
    """One d's report, timed, then the classical per-cell Taylor sup error."""
    import numpy as np

    from pqcapprox import approx, poly, targets
    from pqcapprox.cli import ExperimentConfig, run_experiment

    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(
        "taylor", target=TARGET, d=d, K=K, s=S, delta=DELTA, seed=1))
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    f = targets.by_name(TARGET, d)
    spec = poly.LocalizationSpec(K, DELTA, 0.5 / K)
    pts = approx.GridSpec(d, region="union_q_eta", K=K, delta=DELTA).points()
    eta = spec.bands_of(pts)
    series = {cell: poly.taylor_expand(f, tuple(e / K for e in cell), S)
              for cell in set(map(tuple, eta.tolist()))}
    classical = max(abs(f(tuple(x)) - series[tuple(cell)](x - np.array(cell) / K))
                    for x, cell in zip(pts, eta.tolist()))
    return {
        "d": d,
        "sup_error": report.sup_error,
        "classical_sup_error": classical,
        "bound": report.bound,
        "error_to_bound": report.sup_error / report.bound,
        "tol_agg": report.tol_agg,
        "passed": report.passed,
        "resources": report.resources.to_dict(),
        "starts": K**d,
        "grid_points": len(pts),
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_mb, 1),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", default="1,2,3,4,5")
    ap.add_argument("--output", default="")
    ap.add_argument("--max-seconds", type=float, default=None)
    ap.add_argument("--max-mb", type=float, default=None)
    ap.add_argument("--child", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0

    rows, ok = [], True
    for d in (int(v) for v in args.dims.split(",")):
        out = subprocess.run([sys.executable, __file__, "--child", str(d)],
                             capture_output=True, text=True)
        if out.returncode:
            rows.append({"d": d, "error": out.stderr.strip().splitlines()[-1:]})
            print(f"d={d}  failed to run: {rows[-1]['error']}")
            ok = False
            continue
        row = json.loads(out.stdout)
        row["matches_classical"] = (abs(row["sup_error"] - row["classical_sup_error"])
                                    <= row["tol_agg"] + 1e-9)
        row["within_limits"] = ((args.max_seconds is None or row["wall_s"] < args.max_seconds)
                                and (args.max_mb is None or row["peak_rss_mb"] < args.max_mb))
        ok &= row["passed"] and row["matches_classical"] and row["within_limits"]
        rows.append(row)
        r = row["resources"]
        print(f"d={d}  sup={row['sup_error']:.4e}  classical={row['classical_sup_error']:.4e}"
              f"  bound={row['bound']:.4e}  pass={row['passed']}"
              f"  width={r['width']}  gates={r['gates']}  starts={row['starts']}"
              f"  points={row['grid_points']}  {row['wall_s']:.2f} s  {row['peak_rss_mb']:.0f} MB")
    if args.output:
        settings = {"target": TARGET, "s": S, "K": K, "delta": DELTA}
        with open(args.output, "w") as fh:
            json.dump({"settings": settings, "rows": rows}, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
