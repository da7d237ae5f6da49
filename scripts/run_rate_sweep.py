#!/usr/bin/env python3
"""Sweep the cell count K for the nested local-Taylor circuit and fit the
empirical convergence rate against the K^-beta prediction.

Exits 1 when the sup error at any K exceeds its bound plus tol_agg.
"""

import argparse
import json
import sys

from pqcapprox import approx, targets
from pqcapprox.circuits import NestedTaylorModel
from pqcapprox.cli import default_delta
from pqcapprox.poly import LocalizationSpec, thm_bounds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--target", default="halfsine")
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--ks", default="2,4,8")
    ap.add_argument("--points-per-axis", type=int, default=0)
    ap.add_argument("--output", default="")
    args = ap.parse_args()

    f = targets.by_name(args.target, args.d)
    beta, _ = f.holder
    s = f.holder_s
    rows = []
    for K in (int(k) for k in args.ks.split(",")):
        delta = default_delta(f.dims, K)
        spec = LocalizationSpec(K, delta, 0.5 / K)
        model = NestedTaylorModel(f, spec, s)
        grid = approx.GridSpec(
            f.dims, args.points_per_axis, region="union_q_eta", K=K, delta=delta
        )
        sup = approx.sup_error(f, model, grid)
        bound = thm_bounds("thm3", d=f.dims, s=s, beta=beta, K=K)
        passed = bool(sup <= bound + model.tol_agg)
        rows.append({"K": K, "sup_error": sup, "bound": bound, "tol_agg": model.tol_agg,
                     "passed": passed})
        print(f"K={K:3d}  sup={sup:.4e}  bound={bound:.4e}  pass={passed}")

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
