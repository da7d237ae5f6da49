import functools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pqcapprox
from pqcapprox import circuits, cli, poly, sim
from pqcapprox.poly import ConstructionError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*argv):
    """A fresh interpreter that imports this checkout's package."""
    src = str(Path(pqcapprox.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_synth_constant(capsys):
    code, out, _ = run_cli(capsys, "synth", "--coeffs", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["residual"] == 0.0
    assert doc["angles"] == [0.0]


def test_synth_emits_circuit(tmp_path, capsys):
    path = tmp_path / "line.txt"
    code, out, _ = run_cli(
        capsys, "synth", "--coeffs", "0,0.9", "--emit-circuit", str(path)
    )
    assert code == 0
    circ = sim.circuit_from_text(path.read_text())
    assert circ.width == 1


def test_synth_rejects_mixed_parity(capsys):
    code, _, err = run_cli(capsys, "synth", "--coeffs", "0.5,0.5")
    assert code == 2
    assert "error" in err


def test_report_qsp_constant(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--experiment", "qsp", "--target", "poly:1", "--tol", "1e-8"
    )
    doc = json.loads(out)
    assert code == 0 and doc["pass"]


def test_report_bernstein_small(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "report",
        "--experiment",
        "bernstein",
        "--target",
        "abs_centered",
        "--d",
        "1",
        "--n",
        "4",
        "--seed",
        "5",
        "--output",
        str(out_path),
    )
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert doc["resources"]["width"] >= 3
    on_disk = json.loads(out_path.read_text())
    assert "timestamp" in on_disk


def test_report_deterministic_modulo_timestamp(tmp_path, capsys):
    args = [
        "report", "--experiment", "localization", "--K", "2",
        "--eps", "0.25", "--seed", "9",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_report_taylor_halfsine(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--experiment",
        "taylor",
        "--target",
        "halfsine",
        "--K",
        "4",
        "--points-per-axis",
        "41",
    )
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert doc["sup_error"] <= 0.0625 + doc["tol_agg"]
    assert doc["bound_name"] == "local-taylor"


def test_report_trig(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--experiment",
        "trig",
        "--target",
        "trig:1=0.45;-1=0.45",
        "--points-per-axis",
        "32",
    )
    doc = json.loads(out)
    assert code == 0 and doc["pass"]


def test_report_config_file(tmp_path, capsys):
    cfg = {"experiment": "qsp", "target": "poly:0,0.5", "tol": 1e-8, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "report", "--config", str(path))
    assert code == 0


def test_report_invalid_config(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "warp-drive"}))
    code, _, err = run_cli(capsys, "report", "--config", str(path))
    assert code == 2
    assert json.loads(err.strip())["error"]


@pytest.mark.parametrize("key", ["warp_factor", "beta"])
def test_report_config_unknown_key(capsys, tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "qsp", key: 2.0}))
    code, _, err = run_cli(capsys, "report", "--config", str(path))
    assert code == 2
    assert key in json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "key, value", [("d", "2"), ("eps", "0.3"), ("with_l2", 1), ("s", 2.5), ("seed", True)]
)
def test_report_config_wrong_type(capsys, tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "bernstein", key: value}))
    code, _, err = run_cli(capsys, "report", "--config", str(path))
    assert code == 2
    assert key in json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--experiment", "bernstein", "--d", "0"),
        ("--experiment", "bernstein", "--n", "0"),
        ("--experiment", "taylor", "--K", "0"),
    ],
    ids=["d", "n", "K"],
)
def test_report_rejects_sizes_below_one(argv):
    proc = run_python("-m", "pqcapprox.cli", "report", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "at least 1" in json.loads(lines[0])["error"]


def test_import_leaves_scipy_optimize_unloaded():
    proc = run_python("-c", "import pqcapprox, sys; print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_report_config_accepts_int_for_float_and_null_for_optional():
    cfg = cli.ExperimentConfig(experiment="bernstein", eps=1, delta=None, s=None)
    assert cfg.eps == 1 and cfg.delta is None


def test_localization_too_large_is_rejected_before_allocating(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the erf interpolant was built")

    monkeypatch.setattr(poly, "_erf_chebyshev", never)
    monkeypatch.setattr(
        circuits, "localization_angles", functools.cache(circuits.localization_angles.__wrapped__)
    )
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run_cli(
            capsys, "report", "--experiment", "localization",
            "--K", "4", "--eps", "0.001", "--delta", "0.001",
        )
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    message = json.loads(err.strip())["error"]
    assert "degree" in message and "GiB" in message
    assert elapsed < 1.0
    assert peak < 2**20


def test_eval_missing_circuit_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--circuit", str(tmp_path / "none.txt"), "--x", "0.5")
    assert code == 2
    assert json.loads(err.strip())["error"]


def test_construction_error_is_reported(capsys, monkeypatch):
    def fail(spec):
        raise ConstructionError(f"localization polynomial failed for {spec}")

    monkeypatch.setattr(circuits, "localization_poly", fail)
    monkeypatch.setattr(
        circuits, "localization_angles", functools.cache(circuits.localization_angles.__wrapped__)
    )
    code, _, err = run_cli(capsys, "report", "--experiment", "localization", "--K", "2")
    assert code == 2
    assert "localization polynomial failed" in json.loads(err.strip())["error"]


def test_localization_off_band_fails_with_its_real_bound(capsys, monkeypatch):
    # every value stays within eps/2 of its band's floor, so only the band
    # contract (value in [k/K, k/K + eps)) can fail the report
    def off_band(spec, xs):
        return np.array([max(spec.band_of(x) / spec.K - spec.eps / 2, spec.eps / 2) for x in xs])

    monkeypatch.setattr(circuits, "localization_values", off_band)
    code, out, _ = run_cli(
        capsys, "report", "--experiment", "localization", "--K", "2", "--eps", "0.25"
    )
    doc = json.loads(out)
    assert doc["bound"] == 0.25
    assert doc["sup_error"] < doc["bound"]
    assert doc["params"]["eta_recovered"] is False
    assert doc["pass"] is False
    assert code == 1


def test_shots_require_seed():
    with pytest.raises(ValueError):
        cli.ExperimentConfig(experiment="bernstein", shots=100)


def test_build_and_eval_round_trip(tmp_path, capsys):
    path = tmp_path / "mono.txt"
    code, out, _ = run_cli(
        capsys, "build", "--kind", "monomial", "--c", "0.5", "--alpha", "1,2",
        "--emit-circuit", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.8,0.5")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.1, abs=1e-9)


def test_build_localization(tmp_path, capsys):
    path = tmp_path / "loc.txt"
    code, out, _ = run_cli(
        capsys, "build", "--kind", "localization", "--K", "2", "--eps", "0.25",
        "--emit-circuit", str(path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 1
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.7")
    v = json.loads(out)["value"]
    assert 0.5 < v < 0.75


def test_compare_fnn(capsys):
    code, out, _ = run_cli(
        capsys, "compare-fnn", "--d", "20", "--s", "5", "--eps", "0.1",
        "--lambda0", "0.5",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["params"]["log10_param_ratio"] < 0  # circuit needs fewer parameters
