"""In-memory span tracing around pqcapprox's public functions.

The wrappers are installed from the benchmark's own files; the package is
not edited.  A function is replaced at every ``pqcapprox`` module that binds
it by name (``circuits`` binds ``localization_poly`` from ``poly``, so both
bindings are wrapped), and a method is replaced on its class.  Each call
records one span: name, parent span, start, end and a few attributes taken
from its arguments or result after the span has ended.

Everything in the package is synchronous and single-threaded, so spans nest
strictly, a layer's self time is its duration minus its direct children's,
and no layer ever waits on another: there is no wait-time metric.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

import numpy as np

BYTES_PER_AMPLITUDE = np.dtype(complex).itemsize  # the simulator's complex128


def _gates(out) -> int:
    circuits = out if isinstance(out, list) else [out]
    total = 0
    for c in circuits:
        c = getattr(c, "circuit", c)  # BlockCircuit -> Circuit
        total += len(c.gates)
    return total


# (module, qualified name, attributes(args, kwargs, result) or None)
WRAP_SITES: list[tuple[str, str, Optional[Callable]]] = [
    ("cli", "run_experiment", None),
    ("poly", "localization_poly", lambda a, k, out: {"degree": len(out.coeffs) - 1}),
    ("poly", "taylor_expand", None),
    ("qsp", "qsp_synthesize", lambda a, k, out: {"degree": a[0].degree}),
    ("qsp", "qsp_block_values",
     lambda a, k, out: {"layers": len(a[0]), "points": int(np.size(a[1]))}),
    ("circuits", "synthesize_cached", None),
    ("circuits", "evaluate_block", None),
    ("circuits", "localization_values", None),
    ("sim", "hadamard_test_circuit", None),
    ("sim", "Circuit.bound", None),
    ("sim", "run", lambda a, k, out: {"gates": len(a[0].gates), "width": a[0].width}),
    ("sim", "resource_count", None),
    ("approx", "GridSpec.points", lambda a, k, out: {"points": len(out)}),
    ("approx", "sup_error", None),
]
BUILD_FUNCTIONS = [
    "build_monomial_pqc",
    "build_poly_pqc",
    "build_parity_pair_pqc",
    "build_bernstein_pqc",
    "build_localization_pqc",
    "build_taylor_coeff_pqc",
    "build_taylor_series_pqc",
    "build_trig_monomial_pqc",
    "build_trig_poly_pqc",
]
WRAP_SITES += [
    ("circuits", name, lambda a, k, out: {"gates": _gates(out)}) for name in BUILD_FUNCTIONS
]


class Tracer:
    """Records spans in memory while installed.

    A span is ``[name, parent index, start, end, attributes]``; the parent
    index is -1 for a root.  A call that raises gets ``{"error": type}``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = perf_counter()
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[3] = perf_counter()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pqcapprox" or n.startswith("pqcapprox.")]
        for mod_name, qualname, attrs in WRAP_SITES:
            module = sys.modules[f"pqcapprox.{mod_name}"]
            name = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrapper(name, getattr(cls, meth), attrs))
                continue
            orig = getattr(module, qualname)
            wrapped = self._wrapper(name, orig, attrs)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "poly.localization_poly.s": ("s", "lower"),
    "poly.localization_poly.calls": ("count", "lower"),
    "poly.localization_poly.degree": ("count", "lower"),
    "poly.taylor_expand.s": ("s", "lower"),
    "poly.taylor_expand.calls": ("count", "lower"),
    "qsp.qsp_synthesize.s": ("s", "lower"),
    "qsp.qsp_synthesize.calls": ("count", "lower"),
    "qsp.qsp_synthesize.failed": ("count", "lower"),
    "qsp.qsp_synthesize.degree_max": ("count", "lower"),
    "qsp.qsp_block_values.s": ("s", "lower"),
    "qsp.qsp_block_values.calls": ("count", "lower"),
    "qsp.qsp_block_values.points": ("count", "lower"),
    "qsp.qsp_block_values.points_per_call": ("count", "higher"),
    "qsp.qsp_block_values.layer_points": ("count", "lower"),
    "circuits.build.s": ("s", "lower"),
    "circuits.build.gates": ("count", "lower"),
    "circuits.synthesize_cached.calls": ("count", "lower"),
    "circuits.synthesize_cached.hit_ratio": ("ratio", "higher"),
    "circuits.series_block.builds": ("count", "lower"),
    "circuits.evaluate_block.s": ("s", "lower"),
    "circuits.evaluate_block.self_s": ("s", "lower"),
    "circuits.evaluate_block.calls": ("count", "lower"),
    "circuits.localization_values.s": ("s", "lower"),
    "circuits.localization_values.calls": ("count", "lower"),
    "sim.hadamard_test_circuit.s": ("s", "lower"),
    "sim.hadamard_test_circuit.calls": ("count", "lower"),
    "sim.Circuit.bound.s": ("s", "lower"),
    "sim.Circuit.bound.calls": ("count", "lower"),
    "sim.run.s": ("s", "lower"),
    "sim.run.calls": ("count", "lower"),
    "sim.run.gates": ("count", "lower"),
    "sim.run.width_max": ("count", "lower"),
    "sim.run.gates_per_s": ("1/s", "higher"),
    "sim.run.amp_bytes": ("B", "lower"),
    "sim.resource_count.s": ("s", "lower"),
    "approx.GridSpec.points.s": ("s", "lower"),
    "approx.GridSpec.points.points": ("count", "lower"),
    "approx.sup_error.s": ("s", "lower"),
    "approx.sup_error.self_s": ("s", "lower"),
    "approx.sup_error.points": ("count", "lower"),
    "cli.run_experiment.s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Counts that must repeat exactly between two traced runs of one workload.
EXACT_COUNTS = (
    "sim.run.gates",
    "qsp.qsp_block_values.layer_points",
    "qsp.qsp_synthesize.calls",
    "circuits.series_block.builds",
)


def layer_metrics(
    spans: list[list], duration: Callable[[list], float] = lambda s: s[3] - s[2]
) -> dict[str, float]:
    """Per-layer metrics of one traced report (``trace.overhead_s`` excepted).

    ``.s`` is busy time: the summed duration of a layer's outermost spans,
    so a recursive or nested call is not counted twice.  ``.self_s``
    subtracts the time covered by direct child spans.  ``duration`` maps a
    span to its length (the child passes one scaled to reference speed).
    """
    n = len(spans)
    dur = [duration(s) for s in spans]
    child_time = [0.0] * n
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            child_time[s[1]] += d

    def has_ancestor(i: int, pred: Callable[[str], bool]) -> bool:
        p = spans[i][1]
        while p >= 0:
            if pred(spans[p][0]):
                return True
            p = spans[p][1]
        return False

    def idx(name: str) -> list[int]:
        return [i for i in range(n) if spans[i][0] == name]

    def busy(name: str) -> float:
        return sum(dur[i] for i in idx(name) if not has_ancestor(i, name.__eq__))

    def self_time(name: str) -> float:
        return sum(dur[i] - child_time[i] for i in idx(name))

    def attr_values(name: str, key: str) -> list:
        return [spans[i][4][key] for i in idx(name) if spans[i][4] and key in spans[i][4]]

    def is_build(name: str) -> bool:
        return name.startswith("circuits.build_")

    m: dict[str, float] = {}
    for layer in ("poly.localization_poly", "poly.taylor_expand", "qsp.qsp_synthesize",
                  "qsp.qsp_block_values", "circuits.evaluate_block",
                  "circuits.localization_values", "sim.hadamard_test_circuit",
                  "sim.Circuit.bound", "sim.run", "approx.GridSpec.points",
                  "approx.sup_error"):
        m[f"{layer}.s"] = busy(layer)
        m[f"{layer}.calls"] = len(idx(layer))

    m["poly.localization_poly.degree"] = max(attr_values("poly.localization_poly", "degree"),
                                             default=0)
    m["qsp.qsp_synthesize.failed"] = sum(
        1 for i in idx("qsp.qsp_synthesize")
        if spans[i][4] == {"error": "QspSynthesisError"}
    )
    m["qsp.qsp_synthesize.degree_max"] = max(attr_values("qsp.qsp_synthesize", "degree"),
                                             default=0)

    bv = "qsp.qsp_block_values"
    m[f"{bv}.points"] = sum(attr_values(bv, "points"))
    m[f"{bv}.points_per_call"] = m[f"{bv}.points"] / m[f"{bv}.calls"] if m[f"{bv}.calls"] else 0
    m[f"{bv}.layer_points"] = sum(
        spans[i][4]["layers"] * spans[i][4]["points"] for i in idx(bv) if spans[i][4]
    )

    outer_builds = [i for i in range(n)
                    if is_build(spans[i][0]) and not has_ancestor(i, is_build)]
    m["circuits.build.s"] = sum(dur[i] for i in outer_builds)
    m["circuits.build.gates"] = sum((spans[i][4] or {}).get("gates", 0) for i in outer_builds)

    # a cached synthesis is a hit exactly when it started no qsp_synthesize
    synth_children = {spans[i][1] for i in idx("qsp.qsp_synthesize")}
    cached = idx("circuits.synthesize_cached")
    m["circuits.synthesize_cached.calls"] = len(cached)
    hits = sum(1 for i in cached if i not in synth_children)
    m["circuits.synthesize_cached.hit_ratio"] = hits / len(cached) if cached else 0.0
    m["circuits.series_block.builds"] = len(idx("circuits.build_taylor_series_pqc"))
    m["circuits.evaluate_block.self_s"] = self_time("circuits.evaluate_block")

    runs = [spans[i][4] for i in idx("sim.run") if spans[i][4]]
    m["sim.run.gates"] = sum(r["gates"] for r in runs)
    m["sim.run.width_max"] = max((r["width"] for r in runs), default=0)
    m["sim.run.gates_per_s"] = m["sim.run.gates"] / m["sim.run.s"] if m["sim.run.s"] else 0.0
    # computed, not measured: every gate touches the whole state vector
    m["sim.run.amp_bytes"] = sum(
        r["gates"] * 2 ** r["width"] * BYTES_PER_AMPLITUDE for r in runs
    )
    m["sim.resource_count.s"] = busy("sim.resource_count")

    m["approx.GridSpec.points.points"] = sum(attr_values("approx.GridSpec.points", "points"))
    m["approx.sup_error.self_s"] = self_time("approx.sup_error")
    m["approx.sup_error.points"] = sum(
        spans[i][4]["points"] for i in idx("approx.GridSpec.points")
        if spans[i][4] and has_ancestor(i, "approx.sup_error".__eq__)
    )

    m["cli.run_experiment.s"] = busy("cli.run_experiment")
    m["unattributed_s"] = self_time("cli.run_experiment")
    m["trace.spans"] = n
    return {k: m[k] for k in PER_LAYER if k in m}


def mean_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.fmean(r[k] for r in runs) for k in runs[0]}
