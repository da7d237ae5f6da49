"""Experiment harness: grids, empirical errors, rate fits, model-size ratios."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .poly import LocalizationSpec, TargetFunctionSpec
from .sim import ResourceCount

_DEFAULT_POINTS = {1: 101, 2: 41, 3: 15}


@dataclass(frozen=True)
class GridSpec:
    """Deterministic evaluation grid on [0,1]^d, optionally band-restricted."""

    dims: int
    points_per_axis: int = 0
    region: str = "full_cube"
    K: Optional[int] = None
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.region not in ("full_cube", "union_q_eta", "trifling"):
            raise ValueError(f"unknown region {self.region!r}")
        if self.region != "full_cube" and (self.K is None or self.delta is None):
            raise ValueError("band regions need K and delta")
        if self.points_per_axis == 0:
            object.__setattr__(
                self, "points_per_axis", _DEFAULT_POINTS.get(self.dims, 11)
            )

    def _band_spec(self) -> LocalizationSpec:
        # eps is irrelevant for membership; pick any valid value
        return LocalizationSpec(self.K, self.delta, 0.5 / self.K)

    def points(self) -> np.ndarray:
        axis = np.linspace(0.0, 1.0, self.points_per_axis)
        mesh = np.stack(
            np.meshgrid(*([axis] * self.dims), indexing="ij"), axis=-1
        ).reshape(-1, self.dims)
        if self.region == "full_cube":
            return mesh
        in_band = (self._band_spec().bands_of(mesh) >= 0).all(axis=1)
        return mesh[in_band] if self.region == "union_q_eta" else mesh[~in_band]


# A batch model maps an (N, d) array of points to their N values.
BatchModel = Callable[[np.ndarray], np.ndarray]


def pointwise(fn: Callable[[Sequence[float]], float]) -> BatchModel:
    """Batch model of a one-point callable, called on each row in turn."""
    return lambda xs: np.array([fn(tuple(row)) for row in xs])


def _deviations(f: TargetFunctionSpec, model: BatchModel, xs: np.ndarray) -> np.ndarray:
    """|f(x) - model(x)| at each row of xs, from one batch call of the model."""
    return np.abs(pointwise(f)(xs) - np.asarray(model(xs)))


def sup_error(f: TargetFunctionSpec, model: BatchModel, grid: GridSpec | np.ndarray) -> float:
    """Maximum absolute deviation of the batch model from f over the grid.

    ``grid`` is a GridSpec or an (N, d) array of points.
    """
    pts = grid.points() if isinstance(grid, GridSpec) else np.asarray(grid, dtype=float)
    return float(np.max(_deviations(f, model, pts), initial=0.0))


def trifling_mass_estimate(
    d: int, K: int, delta: float, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo (estimate, standard error) of the gap-region measure."""
    spec = LocalizationSpec(K, delta, 0.5 / K)
    rng = np.random.default_rng(seed)
    xs = rng.random((samples, d))
    hits = (spec.bands_of(xs) < 0).any(axis=1).astype(float)
    mass = float(np.mean(hits))
    sigma = float(np.std(hits, ddof=1) / math.sqrt(samples))
    return mass, sigma


def l2_error(
    f: TargetFunctionSpec,
    model: BatchModel,
    K: int,
    delta: float,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the squared L2 distance over the whole cube.

    Also verifies that the sampled gap-region mass stays within three
    standard errors of its d*K*delta cap.
    """
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    mass, sigma = trifling_mass_estimate(f.dims, K, delta, samples, seed)
    cap = f.dims * K * delta
    if mass > cap + 3.0 * sigma:
        raise RuntimeError(
            f"sampled trifling mass {mass:.4g} exceeds cap {cap:.4g} + 3 sigma"
        )
    xs = np.random.default_rng(seed).random((samples, f.dims))
    return float(np.mean(_deviations(f, model, xs) ** 2))


def l2_sigma(f: TargetFunctionSpec, model: BatchModel, samples: int, seed: int) -> float:
    """Standard error of the l2_error Monte-Carlo mean (same seed stream)."""
    xs = np.random.default_rng(seed).random((samples, f.dims))
    sq = _deviations(f, model, xs) ** 2
    return float(np.std(sq, ddof=1) / math.sqrt(samples))


def rate_fit(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(K)."""
    if len(errors) < 3:
        raise ValueError("need at least 3 (K, error) points")
    ks = np.array([k for k, _ in errors], dtype=float)
    es = np.array([e for _, e in errors], dtype=float)
    if np.any(es <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    slope = np.polyfit(np.log(ks), np.log(es), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Model-size comparison calculator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FnnComparisonSpec:
    d: int
    s: int
    eps: float
    lambda0: float

    def __post_init__(self) -> None:
        if self.d < 1 or self.s < 1:
            raise ValueError("d and s must be positive integers")
        if not 0 < self.eps:
            raise ValueError("eps must be positive")
        if not 0 < self.lambda0 < 1:
            raise ValueError("lambda0 must lie in (0, 1)")


@dataclass(frozen=True)
class FnnComparison:
    """Closed-form size and parameter magnitudes, kept in log10.

    The circuit model reaches error d^(3s/2) K^(-s), the reference network
    s^d K^(-s); eliminating K at a common target error makes the entries
    directly comparable.  Ratios below 1 favor the circuit.
    """

    spec: FnnComparisonSpec
    log10_k_pqc: float
    log10_k_fnn: float
    log10_pqc_size: float
    log10_fnn_size: float
    log10_pqc_params: float
    log10_fnn_params: float

    @property
    def log10_size_ratio(self) -> float:
        return self.log10_pqc_size - self.log10_fnn_size

    @property
    def log10_param_ratio(self) -> float:
        return self.log10_pqc_params - self.log10_fnn_params

    @property
    def size_ratio(self) -> float:
        return 10.0**self.log10_size_ratio

    @property
    def param_ratio(self) -> float:
        return 10.0**self.log10_param_ratio


def fnn_compare(spec: FnnComparisonSpec) -> FnnComparison:
    """Evaluate the closed-form width/depth/parameter magnitudes.

    Everything is computed in log space: the quantities grow doubly
    exponentially in d and overflow floats well inside the interesting
    range.
    """
    d, s, eps, lam = spec.d, spec.s, spec.eps, spec.lambda0
    ln = math.log
    ln_kp = (1.5 * s * ln(d) + ln(1.0 / eps)) / s
    ln_kf = (d * ln(s) + ln(1.0 / eps)) / s if s > 1 else ln(1.0 / eps)

    log2_kp = ln_kp / ln(2.0)
    # circuit: width d*log2(K); depth K^d d^s s^2 log2(K); params s d^s K^d
    ln_pqc_width = ln(d) + ln(max(log2_kp, 1e-12))
    ln_pqc_depth = d * ln_kp + s * ln(d) + 2.0 * ln(s) + ln(max(log2_kp, 1e-12))
    ln_pqc_params = ln(s) + s * ln(d) + d * ln_kp
    # network: width s^d K^(lam d/2); depth K^((1-lam) d/2);
    # params s^(2d) d^2 K^((1+lam) d/2)
    ln_fnn_width = d * ln(s) + lam * d / 2.0 * ln_kf
    ln_fnn_depth = (1.0 - lam) * d / 2.0 * ln_kf
    ln_fnn_params = 2.0 * d * ln(s) + 2.0 * ln(d) + (1.0 + lam) * d / 2.0 * ln_kf

    to10 = 1.0 / ln(10.0)
    return FnnComparison(
        spec=spec,
        log10_k_pqc=ln_kp * to10,
        log10_k_fnn=ln_kf * to10,
        log10_pqc_size=(ln_pqc_width + ln_pqc_depth) * to10,
        log10_fnn_size=(ln_fnn_width + ln_fnn_depth) * to10,
        log10_pqc_params=ln_pqc_params * to10,
        log10_fnn_params=ln_fnn_params * to10,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Empirical-vs-theoretical record of one experiment run."""

    sup_error: float
    bound: float
    bound_name: str
    tol_agg: float
    resources: Optional[ResourceCount] = None
    l2_error: Optional[float] = None
    region: str = "full_cube"
    seed: Optional[int] = None
    experiment: str = ""
    params: dict = field(default_factory=dict)
    # False when a check other than the sup-error bound failed, e.g. a
    # localization point left its band; the report then fails whatever sup_error is
    contract_held: bool = True

    @property
    def passed(self) -> bool:
        return self.contract_held and self.sup_error <= self.bound + self.tol_agg

    def to_dict(self) -> dict:
        res = None
        if self.resources is not None:
            res = {
                "width": self.resources.width,
                "depth": self.resources.depth,
                "params": self.resources.trainable_params,
                "gates": self.resources.gate_total,
            }
        return {
            "experiment": self.experiment,
            "sup_error": self.sup_error,
            "l2_error": self.l2_error,
            "bound": self.bound,
            "bound_name": self.bound_name,
            "tol_agg": self.tol_agg,
            "resources": res,
            "region": self.region,
            "seed": self.seed,
            "pass": self.passed,
            "params": self.params,
        }

    def to_json(self, timestamp: Optional[str] = None) -> str:
        doc = self.to_dict()
        if timestamp is not None:
            doc["timestamp"] = timestamp
        return json.dumps(doc, indent=2, sort_keys=True)
