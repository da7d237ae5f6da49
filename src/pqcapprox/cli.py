"""Command-line front end for the reproduction experiments.

Subcommands: ``synth`` (angle synthesis for an inline polynomial),
``build`` (construct and serialize a named circuit), ``eval`` (evaluate a
serialized block circuit at a point), ``report`` (run a full experiment
and emit a JSON error report), ``compare-fnn`` (model-size calculator).
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
from typing import Optional, Sequence

import numpy as np

from . import approx, circuits, qsp, sim, targets
from .poly import (
    ConstructionError,
    LocalizationSpec,
    MultivariatePolynomial,
    MultivariateTrigPolynomial,
    ParityPolynomial,
    Polynomial,
    parity_split,
    thm_bounds,
)

_QUANTUM_BERNSTEIN_TERM_CAP = 128


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
        for name in ("eps", "delta"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"config key {name!r} must be positive, got {value}")
        if self.s is not None and self.s < 0:
            raise ValueError(f"config key 's' must be at least 0, got {self.s}")
        known = {"qsp", "poly", "bernstein", "localization", "taylor", "trig", "fnn_compare"}
        if self.experiment not in known:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.shots > 0 and self.seed is None:
            raise ValueError("seed is mandatory when shots > 0")
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


def _parse_poly(text: str) -> Polynomial:
    if not text.startswith("poly:"):
        raise ValueError("inline polynomial must look like 'poly:c0,c1,...'")
    coeffs = tuple(float(tok) for tok in text[len("poly:") :].split(","))
    return Polynomial(coeffs)


def _parse_trig(text: str, d: int) -> MultivariateTrigPolynomial:
    if not text.startswith("trig:"):
        raise ValueError("inline trig polynomial must look like 'trig:1=0.45;-1=0.45'")
    terms = {}
    for item in text[len("trig:") :].split(";"):
        nvec, value = item.split("=")
        n = tuple(int(v) for v in nvec.split(","))
        terms[n] = complex(value)
    return MultivariateTrigPolynomial(terms, d)


def _definite_parity(p: Polynomial) -> ParityPolynomial:
    even, odd = parity_split(p)
    if odd.base.is_zero():
        return even
    if even.base.is_zero():
        return odd
    raise ValueError("qsp targets need definite parity; split mixed polynomials first")


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
    p = Path(path)
    circuit = sim.circuit_from_text(p.read_text())
    prep_path = p.with_suffix(p.suffix + ".prep")
    meta_path = p.with_suffix(p.suffix + ".meta.json")
    prep = (
        sim.circuit_from_text(prep_path.read_text())
        if prep_path.exists()
        else sim.Circuit(circuit.width, ())
    )
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return circuits.BlockCircuit(
        circuit,
        prep,
        rescale=float(meta.get("rescale", 1.0)),
        block_value_is_real=bool(meta.get("block_value_is_real", True)),
        tol=float(meta.get("tol", 0.0)),
    )


def _maybe_emit(cfg: ExperimentConfig, bc: circuits.BlockCircuit) -> None:
    if cfg.emit_circuit:
        _emit_block(bc, cfg.emit_circuit)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _nested_resources(model: circuits.NestedTaylorModel) -> sim.ResourceCount:
    loc = sim.resource_count(model.loc_blocks[0].circuit)
    series = sim.resource_count(model.series.circuit)
    return sim.ResourceCount(
        width=max(loc.width * model.f.dims, series.width),
        depth=loc.depth + series.depth,  # nested halves are counted additively
        trainable_params=loc.trainable_params * model.f.dims + series.trainable_params,
        gate_total=loc.gate_total * model.f.dims + series.gate_total,
    )


def run_experiment(cfg: ExperimentConfig) -> approx.ErrorReport:
    handler = {
        "qsp": _run_qsp,
        "poly": _run_poly,
        "bernstein": _run_bernstein,
        "localization": _run_localization,
        "taylor": _run_taylor,
        "trig": _run_trig,
        "fnn_compare": _run_fnn_compare,
    }[cfg.experiment]
    report = handler(cfg)
    report.experiment = cfg.experiment
    report.seed = cfg.seed
    if cfg.output_path:
        stamp = datetime.now(timezone.utc).isoformat()
        Path(cfg.output_path).write_text(report.to_json(timestamp=stamp))
    return report


def _run_qsp(cfg: ExperimentConfig) -> approx.ErrorReport:
    target = _definite_parity(_parse_poly(cfg.target or "poly:1"))
    angles = qsp.qsp_synthesize(target, tol=max(cfg.tol, 1e-12))
    grid = np.cos(np.linspace(0.01, math.pi - 0.01, 257))
    resid = float(
        np.max(np.abs(qsp.qsp_block_values(angles.angles, grid) - target(grid)))
    )
    line = sim.Circuit(1, circuits.qsp_line(angles.angles, sim.EncodingSlot(0, "acos")))
    if cfg.emit_circuit:
        Path(cfg.emit_circuit).write_text(sim.circuit_to_text(line))
    return approx.ErrorReport(
        sup_error=resid,
        bound=cfg.tol,
        bound_name="synthesis-tolerance",
        tol_agg=0.0,
        resources=sim.resource_count(line),
        params={"degree": target.degree, "residual": angles.residual},
    )


def _run_poly(cfg: ExperimentConfig) -> approx.ErrorReport:
    p = _parse_poly(cfg.target)
    mp = MultivariatePolynomial(
        {(k,): c for k, c in enumerate(p.coeffs)}, 1
    )
    bc = circuits.build_poly_pqc(mp)
    _maybe_emit(cfg, bc)
    grid = approx.GridSpec(1, cfg.points_per_axis or 51)
    sup = approx.sup_error(mp, lambda xs: circuits.evaluate_block(bc, xs), grid)
    return approx.ErrorReport(
        sup_error=sup,
        bound=cfg.tol,
        bound_name="exact-representation",
        tol_agg=bc.tol,
        resources=sim.resource_count(bc.circuit),
        params={"terms": len(mp.terms)},
    )


def _run_bernstein(cfg: ExperimentConfig) -> approx.ErrorReport:
    f = targets.by_name(cfg.target or "abs_centered", cfg.d)
    from .poly import bernstein_eval

    if f.lipschitz is None:
        raise ValueError("bernstein experiment needs a Lipschitz-certified target")
    n, d, eps = cfg.n, cfg.d, cfg.eps
    quantum = (n + 1) ** d <= _QUANTUM_BERNSTEIN_TERM_CAP
    resources = None
    tol_agg = 0.0
    if quantum:
        bc = circuits.build_bernstein_pqc(f, n)
        _maybe_emit(cfg, bc)
        # one Hadamard-test run per grid point: the benchmark's traced
        # report counts one sim.run and one evaluate_block call per point
        model = approx.pointwise(lambda x: circuits.evaluate_block(bc, x))
        resources = sim.resource_count(bc.circuit)
        tol_agg = bc.tol
    else:
        model = approx.pointwise(lambda x: bernstein_eval(f, n, x))
    grid = approx.GridSpec(d, cfg.points_per_axis)
    sup = approx.sup_error(f, model, grid)
    bound = thm_bounds("thm2", d=d, ell=f.lipschitz, n=n, eps=eps)
    report = approx.ErrorReport(
        sup_error=sup,
        bound=bound,
        bound_name="lipschitz-global",
        tol_agg=tol_agg,
        resources=resources,
        params={"n": n, "d": d, "eps": eps, "pipeline": "quantum" if quantum else "classical"},
    )
    if cfg.shots > 0 and quantum:
        # sampling happens at block scale; the rescale factor multiplies the
        # shot noise, so the meaningful record is the raw block estimate
        x0 = tuple([0.5] * d)
        ht = sim.hadamard_test_circuit(bc.circuit.bound(x0), bc.prep.bound(x0))
        est, err = sim.sample_shots(ht, cfg.shots, cfg.seed)
        report.params["shot_estimate_block"] = est
        report.params["shot_stderr_block"] = err
        report.params["shot_exact_block"] = sim.expectation_z0(sim.run(ht))
        report.params["rescale"] = bc.rescale
    return report


def _run_localization(cfg: ExperimentConfig) -> approx.ErrorReport:
    delta = cfg.delta if cfg.delta is not None else default_delta(1, cfg.K)
    spec = LocalizationSpec(cfg.K, delta, cfg.eps)
    blocks = circuits.build_localization_pqc(spec, 1)
    _maybe_emit(cfg, blocks[0])
    rng = np.random.default_rng(cfg.seed)
    xs, ks = [], []
    while len(xs) < 500:
        x = float(rng.random())
        k = spec.band_of(x)
        if k is not None:
            xs.append(x)
            ks.append(k)
    vals = circuits.localization_values(spec, xs)
    errs = vals - np.array(ks) / spec.K
    sup = float(np.max(np.abs(errs)))
    recovered = bool(np.all((errs >= 0.0) & (errs < spec.eps))) and (
        np.array_equal(circuits.round_to_eta(vals[:, None], spec.K)[:, 0], ks)
    )
    return approx.ErrorReport(
        sup_error=sup,
        bound=spec.eps,
        bound_name="band-tolerance",
        tol_agg=blocks[0].tol,
        resources=sim.resource_count(blocks[0].circuit),
        region="union_q_eta",
        params={"K": spec.K, "delta": spec.delta, "eta_recovered": recovered},
        contract_held=recovered,
    )


def _run_taylor(cfg: ExperimentConfig) -> approx.ErrorReport:
    f = targets.by_name(cfg.target or "halfsine", cfg.d)
    if f.holder is None:
        raise ValueError("taylor experiment needs a smoothness-certified target")
    beta = f.holder[0]
    s = cfg.s if cfg.s is not None else f.holder_s
    K = cfg.K
    delta = cfg.delta if cfg.delta is not None else default_delta(f.dims, K)
    spec = LocalizationSpec(K, delta, 0.5 / K)
    model = circuits.NestedTaylorModel(f, spec, s)
    if cfg.emit_circuit:
        _emit_block(model.series, cfg.emit_circuit)
    grid = approx.GridSpec(
        f.dims, cfg.points_per_axis, region="union_q_eta", K=K, delta=delta
    )
    sup = approx.sup_error(f, model, grid)
    bound = thm_bounds("thm3", d=f.dims, s=s, beta=beta, K=K)
    l2 = None
    if cfg.with_l2:
        l2 = approx.l2_error(f, model, K, delta, samples=cfg.samples, seed=cfg.seed)
    return approx.ErrorReport(
        sup_error=sup,
        bound=bound,
        bound_name="local-taylor",
        tol_agg=model.tol_agg,
        resources=_nested_resources(model),
        l2_error=l2,
        region="union_q_eta",
        params={"K": K, "delta": delta, "s": s, "beta": beta},
    )


def _run_trig(cfg: ExperimentConfig) -> approx.ErrorReport:
    t = _parse_trig(cfg.target, cfg.d)
    bc = circuits.build_trig_poly_pqc(t)
    _maybe_emit(cfg, bc)
    pts = cfg.points_per_axis or (100 if cfg.d == 1 else 11)
    axis = np.linspace(0.0, 2.0 * math.pi, pts, endpoint=False)
    mesh = np.stack(np.meshgrid(*([axis] * cfg.d), indexing="ij"), -1).reshape(-1, cfg.d)
    sup = approx.sup_error(t, lambda xs: circuits.evaluate_block(bc, xs), mesh)
    return approx.ErrorReport(
        sup_error=sup,
        bound=cfg.tol,
        bound_name="exact-representation",
        tol_agg=bc.tol,
        resources=sim.resource_count(bc.circuit),
        params={"terms": len(t.terms)},
    )


def _run_fnn_compare(cfg: ExperimentConfig) -> approx.ErrorReport:
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
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", default="")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--lambda0", type=float, default=0.5)
    p.add_argument("--points-per-axis", type=int, default=0)
    p.add_argument("--with-l2", action="store_true")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--output", default="")


def _cfg_from_args(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=experiment,
        target=args.target,
        d=args.d,
        n=args.n,
        K=args.K,
        delta=args.delta,
        eps=args.eps,
        s=args.s,
        shots=args.shots,
        seed=args.seed,
        tol=args.tol,
        output_path=args.output,
        lambda0=args.lambda0,
        points_per_axis=args.points_per_axis,
        with_l2=args.with_l2,
        samples=args.samples,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="pqcapprox")
    subs = parser.add_subparsers(dest="command", required=True)

    p_synth = subs.add_parser("synth", help="synthesize angles for a polynomial")
    p_synth.add_argument("--coeffs", required=True, help="power-basis coefficients c0,c1,...")
    p_synth.add_argument("--tol", type=float, default=1e-8)
    p_synth.add_argument("--output", default="")
    p_synth.add_argument("--emit-circuit", default="")

    p_build = subs.add_parser("build", help="build and serialize a circuit")
    p_build.add_argument("--kind", required=True,
                         choices=["monomial", "poly", "bernstein", "localization", "trig"])
    p_build.add_argument("--c", type=float, default=1.0)
    p_build.add_argument("--alpha", default="1")
    _add_common(p_build)
    p_build.add_argument("--emit-circuit", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a serialized block circuit")
    p_eval.add_argument("--circuit", required=True)
    p_eval.add_argument("--x", required=True, help="comma-separated point")

    p_report = subs.add_parser("report", help="run an experiment and emit a report")
    p_report.add_argument("--config", default="", help="JSON config file")
    p_report.add_argument("--experiment", default="")
    _add_common(p_report)
    p_report.add_argument("--emit-circuit", default="")

    p_fnn = subs.add_parser("compare-fnn", help="model-size comparison calculator")
    _add_common(p_fnn)

    args = parser.parse_args(argv)

    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "compare-fnn":
            cfg = _cfg_from_args(args, "fnn_compare")
            report = run_experiment(cfg)
            print(report.to_json())
            return 0
    except (ValueError, KeyError, OSError, qsp.QspSynthesisError, ConstructionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    target = _definite_parity(Polynomial(tuple(float(t) for t in args.coeffs.split(","))))
    angles = qsp.qsp_synthesize(target, tol=args.tol)
    doc = {
        "angles": list(angles.angles),
        "residual": angles.residual,
        "degree": target.degree,
        "parity": target.parity,
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text)
    print(text)
    if args.emit_circuit:
        line = sim.Circuit(
            1, circuits.qsp_line(angles.angles, sim.EncodingSlot(0, "acos")),
            label=f"qsp degree={target.degree}",
        )
        Path(args.emit_circuit).write_text(sim.circuit_to_text(line))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.kind == "monomial":
        alpha = tuple(int(a) for a in args.alpha.split(","))
        bc = circuits.build_monomial_pqc(args.c, alpha)
    elif args.kind == "poly":
        p = _parse_poly(args.target)
        bc = circuits.build_poly_pqc(
            MultivariatePolynomial({(k,): c for k, c in enumerate(p.coeffs)}, 1)
        )
    elif args.kind == "bernstein":
        f = targets.by_name(args.target or "abs_centered", args.d)
        bc = circuits.build_bernstein_pqc(f, args.n)
    elif args.kind == "localization":
        delta = args.delta if args.delta is not None else default_delta(1, args.K)
        spec = LocalizationSpec(args.K, delta, args.eps)
        bc = circuits.build_localization_pqc(spec, 1)[0]
    else:
        bc = circuits.build_trig_poly_pqc(_parse_trig(args.target, args.d))
    _emit_block(bc, args.emit_circuit)
    rc = sim.resource_count(bc.circuit)
    print(json.dumps({
        "width": rc.width, "depth": rc.depth, "params": rc.trainable_params,
        "gates": rc.gate_total, "rescale": bc.rescale, "tol": bc.tol,
    }, indent=2))
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
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        try:
            cfg = ExperimentConfig(**doc)
        except TypeError as exc:  # unknown or missing keys, or not a JSON object
            raise ValueError(f"invalid config {args.config}: {exc}") from exc
    else:
        if not args.experiment:
            raise ValueError("report needs --config or --experiment")
        cfg = _cfg_from_args(args, args.experiment)
    if getattr(args, "emit_circuit", ""):
        cfg.emit_circuit = args.emit_circuit
    report = run_experiment(cfg)
    print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
