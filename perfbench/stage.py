"""Inputs, single-point path and oracles of one workload (imports pqcapprox).

The oracles compare every output with a classical reference; they run after
timing, never inside a timed interval.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from pqcapprox import approx, circuits, cli, poly, targets
from pqcapprox.poly import LocalizationSpec
from workloads import Workload

# Slack on top of the construction's own tolerance for floating-point
# rounding in the simulation; far below any approximation error.
MACHINE_SLACK = 1e-9
# Criterion 04's tolerance for the Bernstein circuit against bernstein_eval.
BERNSTEIN_TOL = 1e-6


def band_sample(spec: LocalizationSpec, dims: int, count: int, rng) -> np.ndarray:
    """``count`` seeded points of [0,1]^dims whose coordinates all lie in bands."""
    out = []
    while len(out) < count:
        x = rng.random(dims)
        if all(spec.band_of(float(c)) is not None for c in x):
            out.append(x)
    return np.array(out)


class Stage:
    """Inputs, single-point callable and oracles of one workload.

    ``call`` is built after the report, so construction caches are warm, as
    they are for a caller that evaluates a model it has just reported on.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.cfg = cli.ExperimentConfig(seed=seed, **workload.experiment)
        rng = np.random.default_rng([seed, 1])
        cfg = self.cfg
        if cfg.experiment == "taylor":
            self.f = targets.by_name(cfg.target, cfg.d)
            delta = cli.default_delta(cfg.d, cfg.K)
            self.spec = LocalizationSpec(cfg.K, delta, 0.5 / cfg.K)
            self.xs = band_sample(self.spec, cfg.d, workload.points, rng)
            self._taylor: dict[tuple, poly.MultivariatePolynomial] = {}
        elif cfg.experiment == "bernstein":
            self.f = targets.by_name(cfg.target, cfg.d)
            self.xs = rng.random((workload.points, cfg.d))
        elif cfg.experiment == "localization":
            self.spec = LocalizationSpec(cfg.K, cfg.delta, cfg.eps)
            self.xs = band_sample(self.spec, 1, workload.points, rng)
        else:
            raise ValueError(f"no stage for experiment {cfg.experiment!r}")

    # -- single-point path ---------------------------------------------------

    def build_call(self) -> tuple[Callable[[Sequence[float]], float], np.ndarray, float]:
        """The public single-point callable, its warm-up points and tol_agg."""
        cfg = self.cfg
        if cfg.experiment == "taylor":
            model = circuits.NestedTaylorModel(self.f, self.spec, cfg.s)
            # one point per cell, so every per-cell series block is built
            mids = [sum(self.spec.band(k)) / 2.0 for k in range(cfg.K)]
            warm = np.array([(a, b) for a in mids for b in mids])
            return model, warm, model.tol_agg
        if cfg.experiment == "bernstein":
            bc = circuits.build_bernstein_pqc(self.f, cfg.n)
            return (lambda x: float(circuits.evaluate_block(bc, x))), self.xs[:3], 0.0
        spec = self.spec
        call = lambda x: float(circuits.localization_values(spec, x)[0])  # noqa: E731
        return call, self.xs[:10], 0.0

    # -- oracles -------------------------------------------------------------

    def _taylor_value(self, x: Sequence[float]) -> float:
        """Classical Taylor polynomial of the exact cell of x, evaluated at x."""
        eta = tuple(self.spec.band_of(float(c)) for c in x)
        if eta not in self._taylor:
            x0 = tuple(e / self.spec.K for e in eta)
            self._taylor[eta] = poly.taylor_expand(self.f, x0, self.cfg.s)
        x0 = np.array(eta, dtype=float) / self.spec.K
        return self._taylor[eta](np.asarray(x, dtype=float) - x0)

    def check_point(self, x: Sequence[float], value: float, tol_agg: float) -> bool:
        """Whether one single-point output matches its classical reference."""
        if not math.isfinite(value):
            return False
        exp = self.cfg.experiment
        if exp == "taylor":
            return abs(value - self._taylor_value(x)) <= tol_agg + MACHINE_SLACK
        if exp == "bernstein":
            return abs(value - poly.bernstein_eval(self.f, self.cfg.n, x)) <= BERNSTEIN_TOL
        k = self.spec.band_of(float(x[0]))
        lo = k / self.spec.K
        return (
            lo < value < lo + self.spec.eps
            and circuits.round_to_eta([value], self.spec.K) == (k,)
        )

    def check_report(self, report: approx.ErrorReport) -> bool:
        """Whether the report passed and its error matches the classical one.

        The Bernstein bound is vacuous at these parameters, so the report's
        sup error is recomputed from ``bernstein_eval``; the Taylor one from
        the classical per-cell Taylor polynomials.
        """
        if not report.passed or not math.isfinite(report.sup_error):
            return False
        cfg = self.cfg
        if cfg.experiment == "localization":
            return bool(report.params.get("eta_recovered")) and report.sup_error < cfg.eps
        if cfg.experiment == "taylor":
            grid = approx.GridSpec(cfg.d, cfg.points_per_axis, region="union_q_eta",
                                   K=cfg.K, delta=self.spec.delta)
            ref = max(abs(self.f(tuple(x)) - self._taylor_value(x)) for x in grid.points())
            return abs(report.sup_error - ref) <= report.tol_agg + MACHINE_SLACK
        grid = approx.GridSpec(cfg.d, cfg.points_per_axis)
        ref = max(
            abs(self.f(tuple(x)) - poly.bernstein_eval(self.f, cfg.n, x))
            for x in grid.points()
        )
        return abs(report.sup_error - ref) <= BERNSTEIN_TOL
