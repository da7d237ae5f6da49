"""Command-line front end for the reproduction experiments.

Subcommands: ``synth`` (angle synthesis for an inline polynomial),
``build`` (construct and serialize a named circuit), ``eval`` (evaluate a
serialized block circuit at a point), ``report`` (run a full experiment
and emit a JSON error report), ``compare-fnn`` (``report`` of the
model-size calculator).  Every other subcommand reads its flags into an
``ExperimentConfig``; ``build`` calls the constructor that ``report`` checks.
``report`` exits 0 exactly when every bound check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import approx, circuits, qsp, sim, targets
from .poly import (
    ConstructionError,
    LocalizationSpec,
    MultivariatePolynomial,
    MultivariateTrigPolynomial,
    ParityPolynomial,
    Polynomial,
    TargetFunctionSpec,
    parity_split,
    thm_bounds,
)


@dataclass
class ExperimentConfig:
    experiment: str
    target: str = ""
    d: int = 1
    n: int = 4
    K: int = 4
    delta: Optional[float] = None
    eps: float = 0.3
    s: Optional[int] = None
    shots: int = 0
    seed: Optional[int] = None
    tol: float = 1e-6
    output_path: str = ""
    lambda0: float = 0.5
    points_per_axis: int = 0
    with_l2: bool = False
    samples: int = 10_000
    emit_circuit: str = ""

    def __post_init__(self) -> None:
        hints = typing.get_type_hints(ExperimentConfig)
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _has_type(value, hints[field.name]):
                raise ValueError(f"config key {field.name!r} must be {field.type}, got {value!r}")
        for name in ("d", "n", "K"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"config key {name!r} must be at least 1, got {value}")
        # written as "not >" so that a NaN is rejected too
        for name in ("eps", "delta", "tol"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"config key {name!r} must be positive, got {value}")
        for name in ("s", "shots", "points_per_axis"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"config key {name!r} must be at least 0, got {value}")
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.shots > 0 and self.seed is None:
            raise ValueError("seed is mandatory when shots > 0")
        if self.shots > 0 and self.experiment != "bernstein":
            raise ValueError("shots are sampled only by bernstein")
        if self.emit_circuit and self.experiment == "fnn_compare":
            raise ValueError("config key 'emit_circuit' needs a circuit: fnn_compare builds none")
        if self.seed is None:
            self.seed = 0


def _has_type(value: object, hint: object) -> bool:
    """isinstance against a field annotation: Optional[T] also takes None,
    float also takes an int, and a bool is not a number."""
    if typing.get_origin(hint) is typing.Union:
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if hint in (int, float):
        abstract = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, abstract) and not isinstance(value, bool)
    return isinstance(value, hint)


def default_delta(d: int, K: int) -> float:
    """K^-d, clamped strictly inside the admissible gap range."""
    if K == 1:
        return 0.1
    return min(K ** float(-d), 0.3 / K)


def _parse_poly(text: str) -> tuple[float, ...]:
    """The power coefficients c0, c1, ... of 'poly:c0,c1,...'."""
    if not text.startswith("poly:"):
        raise ValueError("inline polynomial must look like 'poly:c0,c1,...'")
    return tuple(float(tok) for tok in text[len("poly:") :].split(","))


def _parse_trig(text: str, d: int) -> MultivariateTrigPolynomial:
    if not text.startswith("trig:"):
        raise ValueError("inline trig polynomial must look like 'trig:1=0.45;-1=0.45'")
    terms = {}
    for item in text[len("trig:") :].split(";"):
        nvec, value = item.split("=")
        n = tuple(int(v) for v in nvec.split(","))
        terms[n] = complex(value)
    return MultivariateTrigPolynomial(terms, d)


def _emit_block(bc: circuits.BlockCircuit, path: str) -> None:
    out = Path(path)
    out.write_text(sim.circuit_to_text(bc.circuit))
    out.with_suffix(out.suffix + ".prep").write_text(sim.circuit_to_text(bc.prep))
    meta = {
        "rescale": bc.rescale,
        "block_value_is_real": bc.block_value_is_real,
        "tol": bc.tol,
    }
    out.with_suffix(out.suffix + ".meta.json").write_text(json.dumps(meta, indent=2))


def _load_block(path: str) -> circuits.BlockCircuit:
    """The circuit and both sidecars that _emit_block writes; a missing file
    raises, since no default prep or rescale is right for every circuit."""
    p = Path(path)
    circuit = sim.circuit_from_text(p.read_text())
    prep = sim.circuit_from_text(p.with_suffix(p.suffix + ".prep").read_text())
    meta_path = p.with_suffix(p.suffix + ".meta.json")
    meta = json.loads(meta_path.read_text())
    types = {"rescale": float, "block_value_is_real": bool, "tol": float}
    if not (isinstance(meta, dict) and all(_has_type(meta.get(k), t) for k, t in types.items())):
        raise ValueError(
            f"{meta_path} must hold a JSON object with a number rescale,"
            " a boolean block_value_is_real and a number tol"
        )
    return circuits.BlockCircuit(
        circuit,
        prep,
        rescale=float(meta["rescale"]),
        block_value_is_real=meta["block_value_is_real"],
        tol=float(meta["tol"]),
    )


def _qsp_block(
    target_text: str, tol: float, label: str
) -> tuple[ParityPolynomial, qsp.QspAngleSequence, circuits.BlockCircuit]:
    """A definite-parity inline polynomial as one line block; a nonempty
    label is followed by the degree."""
    even, odd = parity_split(Polynomial.from_power(_parse_poly(target_text)))
    if not (odd.base.is_zero() or even.base.is_zero()):
        raise ValueError("qsp targets need definite parity; split mixed polynomials first")
    target = even if odd.base.is_zero() else odd
    angles = qsp.qsp_synthesize(target, tol=tol)
    label = f"{label} degree={target.degree}" if label else ""
    return target, angles, circuits.line_block(angles, sim.EncodingSlot(0, "acos"), label)


def _poly_target(cfg: ExperimentConfig) -> MultivariatePolynomial:
    return MultivariatePolynomial({(k,): c for k, c in enumerate(_parse_poly(cfg.target))}, 1)


def _bernstein_target(cfg: ExperimentConfig) -> TargetFunctionSpec:
    return targets.by_name(cfg.target or "abs_centered", cfg.d)


def _localization_spec(cfg: ExperimentConfig) -> LocalizationSpec:
    delta = cfg.delta if cfg.delta is not None else default_delta(1, cfg.K)
    return LocalizationSpec(cfg.K, delta, cfg.eps)


# each build kind: the constructor that its experiment checks, and the flags
# it reads.  monomial has no experiment and reads --c and --alpha, which are
# not config keys, so _cmd_build builds it directly.
_BUILDS: dict[str, tuple[Optional[Callable[[ExperimentConfig], circuits.BlockCircuit]], set]] = {
    "monomial": (None, {"c", "alpha"}),
    "poly": (lambda cfg: circuits.build_poly_pqc(_poly_target(cfg)), {"target"}),
    "bernstein": (lambda cfg: circuits.build_bernstein_pqc(_bernstein_target(cfg), cfg.n),
                  {"target", "d", "n"}),
    "localization": (lambda cfg: circuits.build_localization_pqc(_localization_spec(cfg)),
                     {"K", "delta", "eps"}),
    "trig": (lambda cfg: circuits.build_trig_poly_pqc(_parse_trig(cfg.target, cfg.d)),
             {"target", "d"}),
}


def _build(cfg: ExperimentConfig) -> circuits.BlockCircuit:
    """The circuit of the build kind named like the config's experiment."""
    return _BUILDS[cfg.experiment][0](cfg)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

# an experiment's report, and the block circuit --emit-circuit writes, if any
_Outcome = tuple[approx.ErrorReport, Optional[circuits.BlockCircuit]]


def _resources(bc: circuits.BlockCircuit) -> sim.ResourceCount:
    """The tallies of prep followed by circuit, so that no count depends on
    which of the two holds a gate."""
    parts = [(bc.prep, 0, (), ()), (bc.circuit, 0, (), ())]
    return sim.resource_count(sim._composed(bc.width, parts, ""))


def _nested_resources(model: circuits.NestedTaylorModel) -> sim.ResourceCount:
    """The d localization blocks side by side, then the series block."""
    loc = circuits.localization_resources(model.spec)
    series = _resources(model.series)
    return sim.ResourceCount(
        width=max(loc.width * model.f.dims, series.width),
        depth=loc.depth + series.depth,  # nested halves are counted additively
        trainable_params=loc.trainable_params * model.f.dims + series.trainable_params,
        gate_total=loc.gate_total * model.f.dims + series.gate_total,
    )


def run_experiment(cfg: ExperimentConfig) -> approx.ErrorReport:
    report, block = _EXPERIMENTS[cfg.experiment][0](cfg)
    if cfg.emit_circuit:  # the config admits it only where a circuit is built
        _emit_block(block, cfg.emit_circuit)
    report.experiment = cfg.experiment
    report.seed = cfg.seed
    if cfg.output_path:
        stamp = datetime.now(timezone.utc).isoformat()
        Path(cfg.output_path).write_text(report.to_json(timestamp=stamp))
    return report


def _run_qsp(cfg: ExperimentConfig) -> _Outcome:
    target, angles, bc = _qsp_block(cfg.target or "poly:1", max(cfg.tol, 1e-12), "")
    grid = np.cos(np.linspace(0.01, math.pi - 0.01, 257))
    resid = float(
        np.max(np.abs(qsp.qsp_block_values(angles.angles, grid) - target(grid)))
    )
    return approx.ErrorReport(
        sup_error=resid,
        bound=cfg.tol,
        bound_name="synthesis-tolerance",
        tol_agg=0.0,
        resources=_resources(bc),
        params={"degree": target.degree, "residual": angles.residual},
    ), bc


def _run_poly(cfg: ExperimentConfig) -> _Outcome:
    mp = _poly_target(cfg)
    bc = _build(cfg)
    grid = approx.GridSpec(1, cfg.points_per_axis or 51)
    sup = approx.sup_error(mp, lambda xs: circuits.evaluate_block(bc, xs), grid)
    return approx.ErrorReport(
        sup_error=sup,
        bound=cfg.tol,
        bound_name="exact-representation",
        tol_agg=bc.tol,
        resources=_resources(bc),
        params={"terms": len(mp.terms), "rescale": bc.rescale},
    ), bc


def _run_bernstein(cfg: ExperimentConfig) -> _Outcome:
    f = _bernstein_target(cfg)
    if f.lipschitz is None:
        raise ValueError("bernstein experiment needs a Lipschitz-certified target")
    n, d, eps = cfg.n, cfg.d, cfg.eps
    grid = approx.GridSpec(d, cfg.points_per_axis)  # a grid too large fails first
    bound = thm_bounds("thm2", d=d, ell=f.lipschitz, n=n, eps=eps)  # and a bound past the floats
    bc = _build(cfg)
    # one Hadamard-test run per grid point: the benchmark's traced report
    # counts one sim.run and one evaluate_block call per point
    model = approx.pointwise(lambda x: circuits.evaluate_block(bc, x))
    sup = approx.sup_error(f, model, grid)
    report = approx.ErrorReport(
        sup_error=sup,
        bound=bound,
        bound_name="lipschitz-global",
        tol_agg=bc.tol,
        resources=_resources(bc),
        params={"n": n, "d": d, "eps": eps},
    )
    if cfg.shots > 0:
        # sampling happens at block scale; the rescale factor multiplies the
        # shot noise, so the meaningful record is the raw block estimate
        x0 = (0.5,) * d
        est, err = sim.sample_shots(bc.program, cfg.shots, cfg.seed, x0)
        report.params["shot_estimate_block"] = est
        report.params["shot_stderr_block"] = err
        report.params["shot_exact_block"] = circuits.evaluate_block(bc, x0) / bc.rescale
        report.params["rescale"] = bc.rescale
    return report, bc


def _run_localization(cfg: ExperimentConfig) -> _Outcome:
    spec = _localization_spec(cfg)
    # the values are summed from the coefficients, so the gates serve circuit output alone
    bc = _build(cfg) if cfg.emit_circuit else None
    # the first 500 in-band draws of the stream, drawn 500 at a time
    rng = np.random.default_rng(cfg.seed)
    xs = np.empty(0)
    while len(xs) < 500:
        draw = rng.random(500)
        xs = np.append(xs, draw[spec.bands_of(draw) >= 0])
    xs = xs[:500]
    ks = spec.bands_of(xs)
    vals = circuits.localization_values(spec, xs)
    errs = vals - ks / spec.K
    sup = float(np.max(np.abs(errs)))
    recovered = bool(np.all((errs >= 0.0) & (errs < spec.eps))) and (
        np.array_equal(circuits.round_to_eta(vals[:, None], spec.K)[:, 0], ks)
    )
    return approx.ErrorReport(
        sup_error=sup,
        bound=spec.eps,
        bound_name="band-tolerance",
        tol_agg=0.0,  # the block synthesizes nothing
        resources=circuits.localization_resources(spec),
        region="union_q_eta",
        params={"K": spec.K, "delta": spec.delta, "eta_recovered": recovered},
        contract_held=recovered,
    ), bc


def _run_taylor(cfg: ExperimentConfig) -> _Outcome:
    f = targets.by_name(cfg.target or "halfsine", cfg.d)
    if f.holder is None:
        raise ValueError("taylor experiment needs a smoothness-certified target")
    beta = f.holder[0]
    s = f.holder_s
    if cfg.s is not None and cfg.s != s:  # the bound is certified for beta = s + r only
        raise ValueError(
            f"config key 's' is {cfg.s}, but target {f.name!r} certifies beta={beta},"
            f" so its Taylor order is s={s}"
        )
    K = cfg.K
    delta = cfg.delta if cfg.delta is not None else default_delta(f.dims, K)
    spec = LocalizationSpec(K, delta, 0.5 / K)
    model = circuits.NestedTaylorModel(f, spec, s)
    grid = approx.GridSpec(
        f.dims, cfg.points_per_axis, region="union_q_eta", K=K, delta=delta
    )
    sup = approx.sup_error(f, model, grid)
    bound = thm_bounds("thm3", d=f.dims, s=s, beta=beta, K=K)
    l2, params = None, {"K": K, "delta": delta, "s": s, "beta": beta}
    if cfg.with_l2:
        l2, sigma = approx.l2_error(f, model, K, delta, samples=cfg.samples, seed=cfg.seed)
        # the corollary's bound, with three standard errors of the estimate
        params["l2_bound"] = thm_bounds("l2corollary", d=f.dims, s=s, beta=beta, K=K)
        params["l2_pass"] = l2 <= params["l2_bound"] + 3.0 * sigma
    return approx.ErrorReport(
        sup_error=sup,
        bound=bound,
        bound_name="local-taylor",
        tol_agg=model.tol_agg,
        resources=_nested_resources(model),
        l2_error=l2,
        region="union_q_eta",
        params=params,
        contract_held=params.get("l2_pass", True),
    ), model.series


def _run_trig(cfg: ExperimentConfig) -> _Outcome:
    t = _parse_trig(cfg.target, cfg.d)
    pts = cfg.points_per_axis or (100 if cfg.d == 1 else 11)
    approx.check_mesh(pts, cfg.d)  # a grid too large fails first
    bc = _build(cfg)
    axis = np.linspace(0.0, 2.0 * math.pi, pts, endpoint=False)
    mesh = np.stack(np.meshgrid(*([axis] * cfg.d), indexing="ij"), -1).reshape(-1, cfg.d)
    sup = approx.sup_error(t, lambda xs: circuits.evaluate_block(bc, xs), mesh)
    return approx.ErrorReport(
        sup_error=sup,
        bound=cfg.tol,
        bound_name="exact-representation",
        tol_agg=bc.tol,
        resources=_resources(bc),
        params={"terms": len(t.terms)},
    ), bc


def _run_fnn_compare(cfg: ExperimentConfig) -> _Outcome:
    s = cfg.s if cfg.s is not None else 5
    spec = approx.FnnComparisonSpec(cfg.d, s, cfg.eps, cfg.lambda0)
    comp = approx.fnn_compare(spec)
    return approx.ErrorReport(
        sup_error=0.0,
        bound=0.0,  # nothing is asserted; the ratios are recorded in params
        bound_name="recorded",
        tol_agg=0.0,
        params={
            "d": cfg.d,
            "s": s,
            "eps": cfg.eps,
            "lambda0": cfg.lambda0,
            "log10_param_ratio": comp.log10_param_ratio,
            "log10_size_ratio": comp.log10_size_ratio,
            "log10_pqc_params": comp.log10_pqc_params,
            "log10_fnn_params": comp.log10_fnn_params,
        },
    ), None


# each experiment: its handler, and the config keys it reads beside the ones
# every report reads
_EXPERIMENTS: dict[str, tuple[Callable[[ExperimentConfig], _Outcome], set]] = {
    "qsp": (_run_qsp, {"target", "tol"}),
    "poly": (_run_poly, {"target", "tol", "points_per_axis"}),
    "bernstein": (_run_bernstein, {"target", "d", "n", "eps", "points_per_axis", "shots"}),
    "localization": (_run_localization, {"K", "delta", "eps"}),
    "taylor": (_run_taylor,
               {"target", "d", "K", "delta", "s", "points_per_axis", "with_l2", "samples"}),
    "trig": (_run_trig, {"target", "d", "tol", "points_per_axis"}),
    "fnn_compare": (_run_fnn_compare, {"d", "s", "eps", "lambda0"}),
}
_REPORT_READS = {"experiment", "seed", "output_path", "emit_circuit"}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field, stored under its name.  A flag not
    given stays out of the namespace: the dataclass holds every default."""
    absent = argparse.SUPPRESS
    p.add_argument("--target", default=absent)
    p.add_argument("--d", type=int, default=absent)
    p.add_argument("--n", type=int, default=absent)
    p.add_argument("--K", type=int, default=absent)
    p.add_argument("--delta", type=float, default=absent)
    p.add_argument("--eps", type=float, default=absent)
    p.add_argument("--s", type=int, default=absent)
    p.add_argument("--shots", type=int, default=absent)
    p.add_argument("--seed", type=int, default=absent)
    p.add_argument("--tol", type=float, default=absent)
    p.add_argument("--lambda0", type=float, default=absent)
    p.add_argument("--points-per-axis", type=int, default=absent)
    p.add_argument("--with-l2", action="store_true", default=absent)
    p.add_argument("--samples", type=int, default=absent)
    p.add_argument("--output", dest="output_path", metavar="OUTPUT", default=absent)


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _given(args: argparse.Namespace) -> dict:
    """The config keys given on the command line."""
    return {k: getattr(args, k) for k in _CONFIG_KEYS if k in args}


def _reject_unread(what: str, given: Sequence[str], reads: set[str]) -> None:
    """A given flag that the command never reads is an error, not a silent drop."""
    unread = [k for k in given if k not in reads]
    if unread:
        flags = ", ".join("--" + k.removesuffix("_path").replace("_", "-") for k in unread)
        raise ValueError(f"{what} does not read {flags}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="pqcapprox")
    subs = parser.add_subparsers(dest="command", required=True)

    p_synth = subs.add_parser("synth", help="synthesize angles for a polynomial")
    p_synth.add_argument("--coeffs", dest="target", type="poly:{}".format, required=True,
                         metavar="COEFFS", help="power-basis coefficients c0,c1,...")
    p_synth.add_argument("--tol", type=float, default=1e-8)
    p_synth.add_argument("--output", dest="output_path", metavar="OUTPUT",
                         default=argparse.SUPPRESS)
    p_synth.add_argument("--emit-circuit", default=argparse.SUPPRESS)
    p_synth.set_defaults(func=_cmd_synth)

    p_build = subs.add_parser("build", help="build and serialize a circuit")
    p_build.add_argument("--kind", required=True, choices=list(_BUILDS))
    p_build.add_argument("--c", type=float, default=argparse.SUPPRESS,
                         help="monomial coefficient (default 1)")
    p_build.add_argument("--alpha", default=argparse.SUPPRESS,
                         help="monomial exponents a1,a2,... (default 1)")
    _add_common(p_build)
    p_build.add_argument("--emit-circuit", dest="circuit_path", metavar="PATH", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_eval = subs.add_parser("eval", help="evaluate a serialized block circuit")
    p_eval.add_argument("--circuit", required=True)
    p_eval.add_argument("--x", required=True, help="comma-separated point")
    p_eval.set_defaults(func=_cmd_eval)

    p_report = subs.add_parser("report", help="run an experiment and emit a report")
    p_report.add_argument("--config", default="", help="JSON config file")
    p_report.add_argument("--experiment", default=argparse.SUPPRESS)
    _add_common(p_report)
    p_report.add_argument("--emit-circuit", default=argparse.SUPPRESS)
    p_report.set_defaults(func=_cmd_report)

    p_fnn = subs.add_parser("compare-fnn", help="model-size comparison calculator")
    _add_common(p_fnn)
    p_fnn.set_defaults(func=_cmd_report, config="", experiment="fnn_compare")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, qsp.QspSynthesisError, ConstructionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig("qsp", **_given(args))
    target, angles, bc = _qsp_block(cfg.target, cfg.tol, label="qsp")
    doc = {
        "angles": list(angles.angles),
        "residual": angles.residual,
        "degree": target.degree,
        "parity": target.parity,
    }
    text = json.dumps(doc, indent=2)
    if cfg.output_path:
        Path(cfg.output_path).write_text(text)
    print(text)
    if cfg.emit_circuit:
        _emit_block(bc, cfg.emit_circuit)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    given = _given(args)
    typed = [*given, *(k for k in ("c", "alpha") if k in args)]
    build, reads = _BUILDS[args.kind]
    _reject_unread(f"build --kind {args.kind}", typed, reads)
    if build is None:  # monomial
        alpha = tuple(int(a) for a in getattr(args, "alpha", "1").split(","))
        bc = circuits.build_monomial_pqc(getattr(args, "c", 1.0), alpha)
    else:
        bc = build(ExperimentConfig(args.kind, **given))
    _emit_block(bc, args.circuit_path)
    print(json.dumps({**_resources(bc).to_dict(), "rescale": bc.rescale, "tol": bc.tol},
                     indent=2))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    bc = _load_block(args.circuit)
    x = tuple(float(t) for t in args.x.split(","))
    value = circuits.evaluate_block(bc, x)
    if isinstance(value, complex):
        print(json.dumps({"re": value.real, "im": value.imag}))
    else:
        print(json.dumps({"value": value}))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """The given flags override the config file's keys."""
    given = _given(args)
    if not args.config and "experiment" not in given:
        raise ValueError("report needs --config or --experiment")
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    try:
        cfg = ExperimentConfig(**{**doc, **given})
    except TypeError as exc:  # unknown or missing keys, or not a JSON object
        raise ValueError(f"invalid config {args.config}: {exc}") from exc
    reads = _EXPERIMENTS[cfg.experiment][1] | _REPORT_READS
    if not cfg.with_l2:  # only the L2 estimate draws samples
        reads -= {"samples"}
    _reject_unread(f"experiment {cfg.experiment!r}", given, reads)
    report = run_experiment(cfg)
    print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
