"""Tests of the benchmark's own oracles, failure accounting and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q

None of them edits the package: wrong outputs come from stand-in callables
and from reports altered after the fact.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stage as stage_mod  # noqa: E402
import workloads  # noqa: E402
from pqcapprox import circuits, cli, poly  # noqa: E402

SMALL_BERNSTEIN = workloads.Workload(
    "bernstein_small",
    dict(experiment="bernstein", target="abs_centered", d=2, n=4, eps=0.3, points_per_axis=3),
    points=20,
    child_s=1.0,
)


def reference_call(stage: stage_mod.Stage):
    """A stand-in single-point path that returns the classical reference."""
    if stage.cfg.experiment == "taylor":
        return stage._taylor_value
    if stage.cfg.experiment == "bernstein":
        return lambda x: poly.bernstein_eval(stage.f, stage.cfg.n, x)
    spec = stage.spec
    return lambda x: spec.band_of(float(x[0])) / spec.K + spec.eps / 2.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_value_counts_as_failed_operation(name):
    stage = stage_mod.Stage(workloads.WORKLOADS[name], seed=3)
    ref = reference_call(stage)
    xs, warm = stage.xs[:12], stage.xs[:2]
    assert child.run_points(stage, ref, warm, xs, 0.0)["point_failed"] == 0

    # smallest perturbation each oracle must catch
    step = {"taylor": 1e-6, "bernstein": 1e-5, "localization": 0.0625}[stage.cfg.experiment]
    seen = []

    def perturbed(x):
        seen.append(x)
        return ref(x) + (step if len(seen) == 8 else 0.0)

    out = child.run_points(stage, perturbed, warm, xs, 0.0)
    assert out["point_calls"] == 14
    assert out["point_failed"] == 1


def test_raised_error_counts_as_failed_operation():
    stage = stage_mod.Stage(workloads.WORKLOADS["localization_k8"], seed=3)

    def broken(x):
        raise RuntimeError("simulated failure")

    out = child.run_points(stage, broken, [], stage.xs[:12], 0.0)
    assert out["point_failed"] == 12


def test_real_outputs_pass_and_altered_report_fails():
    stage = stage_mod.Stage(SMALL_BERNSTEIN, seed=3)
    result = child.run_report(stage)
    assert result["report_ok"] and result["pass"]

    report = cli.run_experiment(stage.cfg)
    assert stage.check_report(report)
    assert not stage.check_report(dataclasses.replace(report, sup_error=report.sup_error + 1e-5))

    call, warm, tol = stage.build_call()
    assert child.run_points(stage, call, warm, stage.xs[:3], tol)["point_failed"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    original = poly.localization_poly
    assert circuits.localization_poly is original  # bound by name in circuits
    tracer = spans.Tracer()
    with tracer.installed():
        assert circuits.localization_poly is not original
        assert poly.localization_poly is circuits.localization_poly
        report = cli.run_experiment(stage_mod.Stage(SMALL_BERNSTEIN, 3).cfg)
    assert circuits.localization_poly is original
    assert report.passed

    layers = spans.layer_metrics(tracer.spans)
    assert set(layers) == set(spans.PER_LAYER) - {"trace.overhead_s"}
    assert tracer.spans[0][0] == "cli.run_experiment" and tracer.spans[0][1] == -1
    assert layers["sim.run.calls"] == layers["circuits.evaluate_block.calls"] == 9
    assert layers["approx.sup_error.points"] == 9
    assert layers["unattributed_s"] < 0.1 * layers["cli.run_experiment.s"]


def test_self_time_subtracts_direct_children():
    fake = [
        ["cli.run_experiment", -1, 0.0, 10.0, None],
        ["approx.sup_error", 0, 1.0, 9.0, None],
        ["circuits.evaluate_block", 1, 2.0, 5.0, None],
        ["sim.run", 2, 3.0, 4.0, {"gates": 7, "width": 3}],
    ]
    m = spans.layer_metrics(fake)
    assert m["unattributed_s"] == pytest.approx(2.0)
    assert m["approx.sup_error.self_s"] == pytest.approx(5.0)
    assert m["circuits.evaluate_block.self_s"] == pytest.approx(2.0)
    assert m["sim.run.amp_bytes"] == 7 * 2**3 * 16


@pytest.mark.parametrize("n, p", [(100, 90.0), (199, 90.0), (800, 95.0), (1000, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    assert n * (100 - p) / 100 >= 10


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spans.PER_LAYER


def test_scaled_time_cuts_kernel_runs_and_follows_the_local_speed():
    sampler = speed.Sampler()
    nominal = speed.NOMINAL_MS
    # kernel at nominal speed until t=10, then twice as slow; one run in [4, 4.1]
    sampler.samples = [(t, t + 0.1, nominal if t < 10 else 2 * nominal)
                       for t in (0.0, 1.0, 4.0, 8.0, 9.0, 11.0, 12.0, 13.0)]
    assert sampler.scaled(2.0, 6.0) == pytest.approx(3.9)
    assert sampler.scaled(12.2, 12.8) == pytest.approx(0.3)


def test_sampler_runs_the_kernel_from_the_timer():
    sampler = speed.Sampler()
    with sampler.every(0.01):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 5
    assert all(ms > 0 for _, _, ms in sampler.samples)
