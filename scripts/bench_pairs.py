#!/usr/bin/env python3
"""Compare two checkouts with perfbench in alternating pairs and write a
bench record.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, for one
workload, with the side that runs first alternating from pair to pair.  The
record holds, per workload and per end-to-end metric, each side's median and
quartiles, every run's value, and how many pairs the change won (ties count
for neither side), with "better" taken from BENCHMARK.json.  With
``--trace-pairs`` above 0 it adds that many traced runs per side and their
per-layer medians.  Each checkout runs its own ``perfbench/`` and ``src/``.

A checkout that holds a ``__pycache__`` under ``src/`` or ``perfbench/`` is
refused (exit 2): its interpreters would load cached bytecode where the
other side's compile the source, which reads as a faster ``setup_s`` and a
lower ``peak_rss_mb`` on every workload.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload localization_k8 --pairs 10 --seed 2 --out bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run; its result line, or an error record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        return {"error": proc.stderr.strip()[-2000:], "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def bytecode_caches(checkout: Path) -> list[Path]:
    """The ``__pycache__`` directories under the checkout's src/ and perfbench/."""
    return sorted(p for top in ("src", "perfbench") for p in (checkout / top).rglob("__pycache__"))


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs: dict, better: dict) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the shift."""
    ok = [i for i in range(len(runs["parent"]))
          if all("metrics" in runs[s][i] for s in SIDES)]
    out = {}
    names = runs["parent"][ok[0]]["metrics"] if ok else {}
    for name, first in names.items():
        vals = {s: [runs[s][i]["metrics"][name]["value"] for i in ok] for s in SIDES}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        par, chg = quartiles(vals["parent"]), quartiles(vals["change"])
        out[name] = {
            "unit": first["unit"],
            "better": better.get(name, "lower"),
            "parent": {**par, "values": vals["parent"]},
            "change": {**chg, "values": vals["change"]},
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
            "pairs": len(ok),
            "median_shift": chg["median"] - par["median"],
            "relative_shift": (chg["median"] - par["median"]) / par["median"]
            if par["median"] else None,
            "parent_iqr": par["q3"] - par["q1"],
        }
    return out


def traced_medians(runs: list[dict]) -> dict:
    ok = [r for r in runs if "metrics" in r]
    if not ok:
        return {}
    return {name: float(np.median([r["metrics"][name]["value"] for r in ok]))
            for name in ok[0]["metrics"]}


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        caches = bytecode_caches(checkout)
        if caches:
            print(f"the {side} checkout holds cached bytecode in {caches[0]}; remove every"
                  " __pycache__ under src/ and perfbench/ first", file=sys.stderr)
            return 2
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "command": f"perfbench/run.py --seconds {args.seconds} --seed {args.seed}",
        "pairs": args.pairs,
        "order": "alternating: the parent runs first in pairs 1, 3, 5, ...",
        "commits": {s: git_head(checkouts[s]) for s in SIDES},
        "environment": environment(),
        "workloads": {},
    }
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(
                    run_bench(checkouts[side], workload, args.seed, args.seconds, 0)
                )
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        entry = {
            "correct": {s: [r.get("correct", False) for r in runs[s]] for s in SIDES},
            "failed": {s: sum(r.get("failed", 0) for r in runs[s]) for s in SIDES},
            "attempted": {s: sum(r.get("attempted", 0) for r in runs[s]) for s in SIDES},
            "errors": {s: [r["error"] for r in runs[s] if "error" in r] for s in SIDES},
            "metrics": summarize(runs, better),
        }
        if args.trace_pairs:
            traced = {s: [] for s in SIDES}
            for i in range(args.trace_pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced[side].append(
                        run_bench(checkouts[side], workload, args.seed, args.seconds, 1)
                    )
            entry["traced"] = {s: traced_medians(traced[s]) for s in SIDES}
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        for name, m in entry["metrics"].items():
            print(f"{workload:<16} {name:<14} {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} "
                  f"(change won {m['change_wins']}/{m['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
