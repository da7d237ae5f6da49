#!/usr/bin/env python3
"""Sweep the cell count K for the nested local-Taylor circuit and fit the
empirical convergence rate against the K^-beta prediction.

Each K is one ``report --experiment taylor`` run (``cli.run_experiment``),
so the sweep checks the bound the report checks.  Exits 1 when the sup
error at any K exceeds its bound plus tol_agg.
"""

import argparse
import json
import sys

from pqcapprox import approx
from pqcapprox.cli import ExperimentConfig, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--target", default="halfsine")
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--ks", default="2,4,8")
    ap.add_argument("--points-per-axis", type=int, default=0)
    ap.add_argument("--output", default="")
    args = ap.parse_args()

    rows = []
    for K in (int(k) for k in args.ks.split(",")):
        report = run_experiment(ExperimentConfig(
            "taylor", target=args.target, d=args.d, K=K, points_per_axis=args.points_per_axis
        ))
        beta = report.params["beta"]
        rows.append({"K": K, "sup_error": report.sup_error, "bound": report.bound,
                     "tol_agg": report.tol_agg, "passed": report.passed})
        print(f"K={K:3d}  sup={report.sup_error:.4e}  bound={report.bound:.4e}"
              f"  pass={report.passed}")

    exponent = None
    if len(rows) >= 3:
        exponent = approx.rate_fit([(r["K"], r["sup_error"]) for r in rows])
        print(f"fitted exponent: {exponent:.3f}  (prediction -beta = {-beta})")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"rows": rows, "exponent": exponent}, fh, indent=2)
    return 0 if all(r["passed"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
