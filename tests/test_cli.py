import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pqcapprox
from pqcapprox import circuits, cli, poly, qsp, sim, targets
from pqcapprox.poly import ConstructionError

from oracles import block_values, scalar_band_draws


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
    prep = sim.circuit_from_text(Path(f"{path}.prep").read_text())
    assert [g.kind for g in prep.gates] == ["H"]
    assert json.loads(Path(f"{path}.meta.json").read_text())["rescale"] == 1.0
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.27, abs=1e-9)


def test_synth_reads_power_coefficients(tmp_path, capsys):
    # 0.9 x^2 at x = 0.5; read as Chebyshev coefficients, 0.9 T_2 gives -0.45
    path = tmp_path / "square.txt"
    code, _, _ = run_cli(capsys, "synth", "--coeffs", "0,0,0.9", "--emit-circuit", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.5")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.225) <= 1e-12


def test_synth_rejects_mixed_parity(capsys):
    code, _, err = run_cli(capsys, "synth", "--coeffs", "0.5,0.5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("synth", "--coeffs", "nan,0"),
    ("report", "--experiment", "poly", "--target", "poly:nan"),
    ("report", "--experiment", "trig", "--target", "trig:1=nan"),
], ids=["synth", "poly", "trig"])
def test_a_non_finite_inline_coefficient_is_bad_input(capsys, argv):
    # these used to print "angles": [NaN] with exit 0, or end in a lost-
    # unitarity traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "not finite" in json.loads(lines[0])["error"]


def test_build_monomial_blames_a_nan_coefficient(capsys, tmp_path):
    code, out, err = run_cli(capsys, "build", "--kind", "monomial", "--c", "nan",
                             "--emit-circuit", str(tmp_path / "m.txt"))
    assert code == 2 and out == ""
    assert "|c| <= 1" in json.loads(err.strip())["error"]


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
        ("report", "--experiment", "bernstein", "--d", "0"),
        ("report", "--experiment", "bernstein", "--n", "0"),
        ("report", "--experiment", "taylor", "--K", "0"),
        ("build", "--kind", "bernstein", "--d", "0"),
        ("build", "--kind", "bernstein", "--n", "0"),
        ("build", "--kind", "localization", "--K", "0"),
    ],
    ids=["d", "n", "K", "build-d", "build-n", "build-K"],
)
def test_report_rejects_sizes_below_one(argv, tmp_path):
    if argv[0] == "build":
        argv += ("--emit-circuit", str(tmp_path / "never.txt"))
    proc = run_python("-m", "pqcapprox.cli", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "at least 1" in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("eps", ("--experiment", "bernstein", "--eps", "0")),
        ("eps", ("--experiment", "bernstein", "--eps", "nan")),
        ("delta", ("--experiment", "localization", "--delta", "-0.01")),
        ("s", ("--experiment", "taylor", "--s", "-1")),
        ("tol", ("--experiment", "trig", "--tol", "nan")),
        ("tol", ("--experiment", "qsp", "--tol", "nan")),
        ("tol", ("--experiment", "qsp", "--tol", "-1")),
        ("tol", ("--experiment", "poly", "--tol", "0")),
        ("shots", ("--experiment", "bernstein", "--d", "1", "--shots", "-5", "--seed", "1")),
        *(("points_per_axis", ("--experiment", kind, "--points-per-axis", "-3"))
          for kind in ("bernstein", "poly", "trig", "taylor")),
    ],
    ids=["eps-zero", "eps-nan", "delta", "s", "tol-nan-trig", "tol-nan-qsp", "tol-negative",
         "tol-zero", "shots", "points-bernstein", "points-poly", "points-trig", "points-taylor"],
)
def test_report_rejects_nonpositive_tolerances_and_negative_order(capsys, key, argv):
    code, out, err = run_cli(capsys, "report", *argv)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and f"config key {key!r}" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("s, code", [("0", 2), ("2", 2), ("1", 0)])
def test_report_taylor_takes_only_the_certified_order(capsys, s, code):
    # halfsine certifies beta = 2, so its Taylor order is s = 1
    got, out, err = run_cli(capsys, "report", "--experiment", "taylor", "--target", "halfsine",
                            "--K", "2", "--s", s)
    assert got == code
    if code == 2:
        lines = err.strip().splitlines()
        message = json.loads(lines[0])["error"]
        assert len(lines) == 1 and out == ""
        assert f"config key 's' is {s}" in message and "s=1" in message
    else:
        assert json.loads(out)["params"]["s"] == 1


def test_package_runs_without_scipy():
    # with sys.modules["scipy"] = None any scipy import raises ImportError,
    # so a lazy import inside a report cannot bring the load back
    code = """
import sys
sys.modules["scipy"] = None
from pqcapprox import cli
for argv in (
    ["report", "--experiment", "qsp"],
    ["report", "--experiment", "bernstein", "--d", "1", "--n", "4"],
    ["report", "--experiment", "localization", "--K", "2", "--eps", "0.25"],
    ["report", "--experiment", "taylor", "--d", "1", "--K", "2"],
    ["report", "--experiment", "trig", "--target", "trig:1=0.45;-1=0.45"],
):
    assert cli.main(argv) == 0, argv
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_report_config_accepts_int_for_float_and_null_for_optional():
    cfg = cli.ExperimentConfig(experiment="bernstein", eps=1, delta=None, s=None)
    assert cfg.eps == 1 and cfg.delta is None


def test_localization_too_large_is_rejected_before_allocating(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the erf interpolant was built")

    monkeypatch.setattr(poly, "_erf_chebyshev", never)
    monkeypatch.setattr(circuits, "localization_chebyshev",
                        functools.cache(circuits.localization_chebyshev.__wrapped__))
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


def _drop(path):
    path.unlink()


def _meta_with(key, value):
    """Damage that sets one metadata key; json writes NaN and Infinity."""
    return lambda p: p.write_text(json.dumps({**json.loads(p.read_text()), key: value}))


@pytest.mark.parametrize(
    "suffix, damage, expected",
    [
        (".prep", _drop, "b.txt.prep"),
        (".meta.json", _drop, "b.txt.meta.json"),
        ("", lambda p: p.write_text(p.read_text() + "H\n"), "no targets"),
        (".prep", lambda p: p.write_text("width \nlabel plus-prep\n"), "header"),
        (".meta.json", lambda p: p.write_text("[2.0, true, 0.0]"), "b.txt.meta.json"),
        (".meta.json", lambda p: p.write_text(p.read_text().replace("true", '"false"')),
         "b.txt.meta.json"),
        (".meta.json", _meta_with("rescale", math.nan), "rescale must be finite"),
        (".meta.json", _meta_with("rescale", math.inf), "rescale must be finite"),
        (".meta.json", _meta_with("tol", math.nan), "tol must be finite"),
        (".meta.json", _meta_with("tol", -1.0), "tol must be finite"),
        (".meta.json", _meta_with("tol", math.inf), "tol must be finite"),
        ("", lambda p: p.write_text(p.read_text() + "CNOT 3 c=0,1\n"), "exactly one control"),
        ("", lambda p: p.write_text(p.read_text() + "MCU.CNOT 3 c=0\n"),
         "unknown controlled kind"),
        ("", lambda p: p.write_text(p.read_text() + "Rz 3,4 a=0.5\n"), "more than one target"),
        ("", lambda p: p.write_text(p.read_text() + "MCU.Rz 3 c=0,0 a=0.5\n"), "distinct qubits"),
        ("", lambda p: p.write_text(p.read_text() + "Rz 0 a=0.1 a=0.2\n"), "repeats its a= token"),
        ("", lambda p: p.write_text(p.read_text() + "MCU.Ry 1 c=0 c=0 a=0.3\n"),
         "repeats its c= token"),
        ("", lambda p: p.write_text(p.read_text() + "Rz 4 a=0.5\n"),
         "gate Rz addresses qubits outside width 4"),
        (".prep", lambda p: p.write_text(p.read_text() + "MCU.Ry 0 c=7 a=0.3\n"),
         "gate Ry addresses qubits outside width 4"),
        ("", lambda p: p.write_text(p.read_text() + "MCU.Rz 3 z=3 a=0.5\n"), "distinct qubits"),
        ("", lambda p: p.write_text(p.read_text() + "MCU.Rz 3 c=0 z=1,0 a=0.5\n"),
         "distinct qubits"),
        ("", lambda p: p.write_text(p.read_text() + "MCU.X 3 z=0 z=1\n"), "repeats its z= token"),
        ("", lambda p: p.write_text(p.read_text() + "CNOT 3 c=0 z=1\n"), "no zero-control"),
    ],
    ids=["missing-prep", "missing-meta", "gate-without-targets", "width-without-value",
         "meta-not-an-object", "meta-flag-not-a-boolean", "rescale-nan", "rescale-infinity",
         "tol-nan", "tol-negative", "tol-infinity", "cnot-with-two-controls",
         "unknown-controlled-kind", "two-targets", "repeated-control", "repeated-angle",
         "repeated-control-token", "gate-outside-width", "prep-control-outside-width",
         "zero-control-on-target", "zero-control-on-control", "repeated-zero-token",
         "cnot-with-a-zero-control"],
)
def test_eval_rejects_a_damaged_circuit(capsys, tmp_path, suffix, damage, expected):
    # at x = 0.3 the d=1, n=4 Bernstein circuit reads 0.2459; a default prep
    # of |0..0> would select T_0 alone and read 1 at every x
    path = tmp_path / "b.txt"
    flags = ("--kind", "bernstein", "--d", "1", "--n", "4", "--emit-circuit", str(path))
    assert run_cli(capsys, "build", *flags)[0] == 0
    damage(Path(f"{path}{suffix}"))
    code, out, err = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.3")
    assert code == 2 and out == ""
    assert expected in json.loads(err.strip())["error"]


def test_eval_reads_both_parts_and_rejects_a_complex_block_declared_real(capsys, tmp_path):
    path = tmp_path / "trig.txt"
    flags = ("--kind", "trig", "--target", "trig:1=0.9", "--emit-circuit", str(path))
    assert run_cli(capsys, "build", *flags)[0] == 0
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "1.1")
    value = json.loads(out)
    assert code == 0 and abs(complex(value["re"], value["im"]) - 0.9 * np.exp(1.1j)) <= 1e-12
    meta = Path(f"{path}.meta.json")
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "block_value_is_real": True}))
    code, out, err = run_cli(capsys, "eval", "--circuit", str(path), "--x", "1.1")
    assert code == 2 and out == ""
    assert "declared real" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_rejects_a_non_finite_trig_input(capsys, tmp_path, x):
    path = tmp_path / "trig.txt"
    flags = ("--kind", "trig", "--target", "trig:1=0.45;-1=0.45", "--emit-circuit", str(path))
    assert run_cli(capsys, "build", *flags)[0] == 0
    code, out, err = run_cli(capsys, "eval", "--circuit", str(path), f"--x={x}")
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "not finite" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_eval_rejects_a_non_finite_angle_in_a_circuit_file(capsys, tmp_path, angle):
    # a=nan used to end in a lost-unitarity traceback, and a=inf in a
    # "math domain error"
    path = tmp_path / "line.txt"
    assert run_cli(capsys, "synth", "--coeffs", "0,0.9", "--emit-circuit", str(path))[0] == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    rz = next(i for i, line in enumerate(lines) if line.startswith("Rz "))
    lines[rz] = " ".join(f"a={angle}" if tok.startswith("a=") else tok for tok in lines[rz].split())
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.3")
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == f"Rz angle {angle} is not finite"


@pytest.mark.parametrize("argv, name", [
    (("--experiment", "bernstein", "--d", "1", "--n", "4", "--eps", "1e-200"), "eps"),
    (("--experiment", "bernstein", "--d", "1", "--n", "4", "--eps", "1e-160"), "eps"),
    (("--experiment", "bernstein", "--d", "2", "--n", "4", "--eps", "1e-100"), "eps"),
    (("--experiment", "taylor", "--target", "halfsine", "--K", "4", "--delta", "1e-320"), "delta"),
    (("--experiment", "taylor", "--target", "halfsine", "--K", "4", "--delta", "1e-300"), "delta"),
    (("--experiment", "localization", "--K", "8", "--eps", "0.0625", "--delta", "1e-320"),
     "delta"),
    (("--experiment", "localization", "--K", "4", "--eps", "1e-320"), "eps is too small"),
    (("--experiment", "localization", "--K", "4", "--eps", "3e-323"), "eps is too small"),
], ids=["bernstein-eps-squared-underflows", "bernstein-ratio-overflows",
        "bernstein-power-overflows", "taylor-delta-subnormal",
        "taylor-delta-tiny", "localization-delta-subnormal",
        "localization-eps-subnormal", "localization-eps-erfc-zero"])
def test_a_tiny_eps_or_delta_is_bad_input(capsys, argv, name):
    # eps^2 underflowing to 0 used to raise ZeroDivisionError in the thm2
    # bound, an eps of 1e-160 to report an infinite bound, 1e-100 at d=2 an
    # OverflowError, and a tiny delta an OverflowError from an infinite or
    # huge predicted sign degree; a localization eps whose halved step
    # accuracy eps/(2(K+1)) is subnormal an OverflowError from the Newton
    # inverse of erfc (exp(x^2) at 1e-320) or "math domain error" (erfc(x)
    # is 0 at 3e-323), before the degree guard ran
    code, out, err = run_cli(capsys, "report", *argv)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and name in json.loads(lines[0])["error"]


def test_report_rejects_a_grid_too_large_to_mesh():
    for argv, count in (
        # d = 12 meshes 11^12 points by default; the grid is checked before
        # the circuit, whose 26-qubit Hadamard test would fail the width check
        (("--experiment", "bernstein", "--d", "12", "--n", "1"), 11**12),
        # the trig grid on [0, 2 pi)^d passes the same check
        (("--experiment", "trig", "--target", "trig:1,1,1=0.5", "--d", "3",
          "--points-per-axis", "200000"), 200000**3),
    ):
        proc = run_python("-m", "pqcapprox.cli", "report", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and f"grid of {count} points" in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv, named",
    [
        # registers of 5 qubits each, 4 data qubits and the ancilla
        (("build", "--kind", "bernstein", "--d", "4", "--n", "16", "--emit-circuit", "big.txt"),
         ("d=4", "n=16", "83521 terms", "25 qubits", "24-qubit cap")),
        # registers of 3 + 8 * 2 qubits, 9 data qubits and the ancilla
        (("build", "--kind", "bernstein", "--d", "9", "--n", "3", "--emit-circuit", "big.txt"),
         ("d=9", "n=3", "262144 terms", "29 qubits")),
        (("report", "--experiment", "bernstein", "--d", "9", "--n", "3",
          "--points-per-axis", "2"), ("d=9", "n=3", "262144 terms", "29 qubits")),
    ],
    ids=["build-d4-n16", "build-d9-n3", "report-d9-n3"],
)
def test_bernstein_wider_than_the_simulator_fails_before_any_unit(
    capsys, tmp_path, monkeypatch, argv, named
):
    def no_sampling(*args):
        raise AssertionError("the target was sampled")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(circuits, "_bernstein_chebyshev", no_sampling)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    message = json.loads(err.strip())["error"]
    assert all(s in message for s in named), message
    assert not list(tmp_path.iterdir())


def test_report_bernstein_d1_n32_passes_on_its_circuit(capsys):
    # 33 Chebyshev terms at n = 32, whose l1 norm is below 1: the rescale is
    # 1 and rounding stays far below the bound
    code, out, _ = run_cli(capsys, "report", "--experiment", "bernstein", "--d", "1", "--n", "32")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    f = targets.by_name("abs_centered", 1)
    grid = np.linspace(0.0, 1.0, 101)
    classical = max(abs(f((x,)) - poly.bernstein_eval(f, 32, (x,))) for x in grid)
    assert abs(doc["sup_error"] - classical) <= 1e-9
    assert doc["tol_agg"] <= 1e-12
    assert "pipeline" not in doc["params"]


@pytest.mark.parametrize("cfg", [dict(experiment="localization", K=3, delta=0.07, eps=0.1),
                                 dict(experiment="taylor", target="halfsine", K=3, delta=0.07)],
                         ids=["localization", "taylor"])
def test_localization_and_taylor_reports_synthesize_no_angle(monkeypatch, cfg):
    def never(*args, **kwargs):
        raise AssertionError("qsp_synthesize was called")

    monkeypatch.setattr(qsp, "qsp_synthesize", never)
    assert cli.run_experiment(cli.ExperimentConfig(**cfg)).passed


@pytest.mark.parametrize("K,delta,eps,seed", [(8, 0.0375, 0.0625, 2), (2, 0.45, 0.25, 5)],
                         ids=["benchmark", "wide-gap"])
def test_localization_report_draws_the_points_of_a_scalar_band_loop(
        capsys, monkeypatch, K, delta, eps, seed):
    # both specs reject enough draws that the report draws more than one block
    spec = poly.LocalizationSpec(K, delta, eps)
    values, seen = circuits.localization_values, []
    monkeypatch.setattr(circuits, "localization_values",
                        lambda spec, xs: seen.append(np.array(xs)) or values(spec, xs))
    code, out, _ = run_cli(capsys, "report", "--experiment", "localization", "--K", str(K),
                           "--delta", str(delta), "--eps", str(eps), "--seed", str(seed))
    xs, ks = scalar_band_draws(spec, seed, 500)
    (drawn,) = seen
    assert code == 0 and drawn.tolist() == xs
    doc = json.loads(out)
    assert doc["sup_error"] == float(np.max(np.abs(values(spec, xs) - np.array(ks) / K)))


def test_taylor_d2_report_counts_two_localization_blocks_it_never_builds(capsys, monkeypatch):
    build, calls = circuits.build_localization_pqc, []
    monkeypatch.setattr(circuits, "build_localization_pqc",
                        lambda *args: calls.append(args) or build(*args))
    code, out, _ = run_cli(capsys, "report", "--experiment", "taylor", "--target",
                           "product_sines", "--d", "2", "--K", "4", "--s", "1",
                           "--points-per-axis", "13", "--seed", "2")
    r = json.loads(out)["resources"]
    assert code == 0 and calls == []
    assert (r["width"], r["depth"], r["params"], r["gates"]) == (20, 785, 472, 1519)


def test_localization_report_builds_its_block_only_for_circuit_output(tmp_path, capsys, monkeypatch):
    """The report counts the block by rule and sums it from the
    coefficients; --emit-circuit builds it, and the built block's
    resource_count is the report's."""
    select, labels = circuits._chebyshev_select, []
    monkeypatch.setattr(circuits, "_chebyshev_select",
                        lambda *args: labels.append(args[-1][0]) or select(*args))
    flags = ("report", "--experiment", "localization", "--K", "8", "--delta", "0.0375",
             "--eps", "0.0625")
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0 and labels == []
    path = tmp_path / "loc.txt"
    code, emitted, _ = run_cli(capsys, *flags, "--emit-circuit", str(path))
    assert code == 0 and labels == ["localization K=8 x0"]
    assert json.loads(emitted)["resources"] == json.loads(out)["resources"]
    resources = cli._resources(cli._load_block(str(path))).to_dict()
    assert json.loads(out)["resources"] == resources == {
        "width": 11, "depth": 1559, "params": 448, "gates": 1560}


def test_construction_error_is_reported(capsys, monkeypatch):
    def fail(spec):
        raise ConstructionError("band residual too large after shift")

    monkeypatch.setattr(circuits, "localization_poly", fail)
    monkeypatch.setattr(circuits, "localization_chebyshev",
                        functools.cache(circuits.localization_chebyshev.__wrapped__))
    code, _, err = run_cli(capsys, "report", "--experiment", "localization", "--K", "2")
    assert code == 2
    assert "band residual too large after shift" in json.loads(err.strip())["error"]


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
    code, out, err = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.3")
    assert code == 2 and out == ""
    message = json.loads(err.strip())["error"]
    assert "2 coordinates" in message and "has 1" in message
    # --c and --alpha default to the monomial x
    assert run_cli(capsys, "build", "--kind", "monomial", "--emit-circuit", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.3")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.3, abs=1e-9)


DATA = Path(__file__).parent / "data"


def test_an_h_framed_bernstein_file_still_evaluates(tmp_path, capsys):
    """tests/data holds `build --kind bernstein --d 1 --n 4` as written while
    lcu_combine put its selection H's in the circuit; it must read as the
    circuit built now, whose prep holds them."""
    old = cli._load_block(str(DATA / "bernstein_d1_n4.txt"))
    assert old.circuit.gates[:3] == (sim.h(0), sim.h(1), sim.h(2))
    assert old.prep.gates == (sim.h(4),)
    new = circuits.build_bernstein_pqc(targets.abs_centered(1), 4)
    for x in (0.0, 0.13, 0.3, 0.77, 1.0):
        assert abs(circuits.evaluate_block(old, (x,)) - circuits.evaluate_block(new, (x,))) <= 1e-12
    path = tmp_path / "bernstein.txt"
    assert run_cli(capsys, "build", "--kind", "bernstein", "--d", "1", "--n", "4",
                   "--emit-circuit", str(path))[0] == 0
    # the prep is the Ry tree of the coefficients on the 3-qubit register,
    # its nodes selected by zero-controls with no X's, and the circuit holds no H
    prep = sim.circuit_from_text(Path(f"{path}.prep").read_text())
    assert {(g.kind, g.trainable) for g in prep.gates} == {("Ry", True)}
    assert any(g.zeros for g in prep.gates)
    assert all(g.target < 3 for g in prep.gates)
    circuit = sim.circuit_from_text(path.read_text())
    assert not any(g.kind == "H" for g in circuit.gates)


def test_build_localization(tmp_path, capsys):
    path = tmp_path / "loc.txt"
    code, out, _ = run_cli(
        capsys, "build", "--kind", "localization", "--K", "2", "--eps", "0.25",
        "--emit-circuit", str(path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 8
    code, out, _ = run_cli(capsys, "eval", "--circuit", str(path), "--x", "0.7")
    v = json.loads(out)["value"]
    assert 0.5 < v < 0.75


def test_eval_rejects_a_localization_input_outside_the_encoding_range(tmp_path, capsys):
    path = tmp_path / "loc.txt"
    flags = ("--kind", "localization", "--K", "2", "--eps", "0.25", "--emit-circuit", str(path))
    assert run_cli(capsys, "build", *flags)[0] == 0
    code, out, err = run_cli(capsys, "eval", "--circuit", str(path), "--x", "1.5")
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "outside [-1, 1]" in json.loads(lines[0])["error"]


def test_compare_fnn(capsys):
    flags = ("--d", "20", "--s", "5", "--eps", "0.1", "--lambda0", "0.5")
    code, out, _ = run_cli(capsys, "compare-fnn", *flags)
    doc = json.loads(out)
    assert code == 0
    assert doc["params"]["log10_param_ratio"] < 0  # circuit needs fewer parameters
    assert run_cli(capsys, "report", "--experiment", "fnn_compare", *flags) == (code, out, "")


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("poly", ("--target", "poly:0.1,0.2,0.3")),
        ("bernstein", ("--d", "1", "--n", "4")),
        ("localization", ("--K", "2")),
        ("trig", ("--target", "trig:1=0.45;-1=0.45")),
    ],
)
def test_build_writes_the_circuit_report_checks(tmp_path, capsys, kind, flags):
    built, reported = tmp_path / "built.txt", tmp_path / "reported.txt"
    code, _, _ = run_cli(capsys, "build", "--kind", kind, *flags, "--emit-circuit", str(built))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "report", "--experiment", kind, *flags, "--emit-circuit", str(reported)
    )
    assert code == 0
    for suffix in ("", ".prep", ".meta.json"):
        assert Path(f"{built}{suffix}").read_bytes() == Path(f"{reported}{suffix}").read_bytes()


def test_report_samples_shots_from_the_compiled_block(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--experiment", "bernstein", "--d", "1", "--n", "4",
        "--shots", "1000", "--seed", "3",
    )
    assert code == 0
    params = json.loads(out)["params"]
    exact = params["shot_exact_block"]
    assert abs(params["shot_estimate_block"] - exact) <= 5 * params["shot_stderr_block"]
    bc = circuits.build_bernstein_pqc(targets.by_name("abs_centered", 1), 4)
    x0 = (0.5,)
    assert exact == pytest.approx(block_values(bc.circuit.bound(x0), bc.prep)[0].real, abs=1e-12)
    assert params["rescale"] == bc.rescale


def test_poly_report_records_the_rescale(capsys):
    code, out, _ = run_cli(capsys, "report", "--experiment", "poly", "--target", "poly:0.1,0.2,0.3")
    assert code == 0 and json.loads(out)["params"]["rescale"] == 1.0


def test_taylor_report_checks_its_l2_estimate(capsys, monkeypatch):
    flags = ("report", "--experiment", "taylor", "--K", "4", "--seed", "1", "--with-l2")
    code, out, _ = run_cli(capsys, *flags)
    doc = json.loads(out)
    bound = poly.thm_bounds("l2corollary", d=1, s=1, beta=2.0, K=4)
    assert code == 0 and doc["pass"] and doc["l2_error"] <= bound
    assert doc["params"]["l2_bound"] == bound and doc["params"]["l2_pass"] is True
    # an estimate past the bound by more than three standard errors fails the report
    monkeypatch.setattr(cli.approx, "l2_error", lambda *a, **k: (bound + 0.4, 0.1))
    code, out, _ = run_cli(capsys, *flags)
    doc = json.loads(out)
    assert code == 1 and not doc["pass"] and doc["params"]["l2_pass"] is False
    monkeypatch.setattr(cli.approx, "l2_error", lambda *a, **k: (bound + 0.25, 0.1))
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0 and json.loads(out)["params"]["l2_pass"] is True


def test_report_samples_1e11_shots_and_refuses_a_count_beyond_int64(capsys):
    flags = ("report", "--experiment", "bernstein", "--d", "1", "--n", "4", "--seed", "1")
    code, out, _ = run_cli(capsys, *flags, "--shots", str(10**11))
    assert code == 0
    params = json.loads(out)["params"]
    error = abs(params["shot_estimate_block"] - params["shot_exact_block"])
    assert error <= 5 * params["shot_stderr_block"]
    code, out, err = run_cli(capsys, *flags, "--shots", str(2**63))
    assert code == 2 and out == ""
    assert "shots" in json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--experiment", "poly", "--target", "poly:0.5"),
        ("compare-fnn",),
        ("build", "--kind", "bernstein", "--emit-circuit", "never.txt"),
    ],
    ids=["poly", "compare-fnn", "build"],
)
def test_shots_are_rejected_where_nothing_is_sampled(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--shots", "1000", "--seed", "3")
    assert code == 2 and out == ""
    assert "shots" in json.loads(err.strip())["error"]
    assert not (tmp_path / "never.txt").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (("report", "--config", "cfg.json", "--output", "o.json", "--seed", "4"), ()),
        (("build", "--kind", "poly", "--target", "poly:0.5", "--emit-circuit", "p.txt",
          "--output", "built.json", "--points-per-axis", "9"), ("--output", "--points-per-axis")),
        (("compare-fnn", "--K", "9", "--n", "3", "--target", "abc", "--with-l2"),
         ("--K", "--n", "--target", "--with-l2")),
        (("report", "--experiment", "fnn_compare", "--emit-circuit", "g.txt"), ("emit_circuit",)),
        (("build", "--kind", "poly", "--target", "poly:0.5", "--d", "3", "--c", "7",
          "--emit-circuit", "p.txt"), ("--d", "--c")),
        (("report", "--experiment", "qsp", "--target", "poly:0.5", "--K", "9", "--samples", "3"),
         ("--K", "--samples")),
        (("report", "--config", "cfg.json", "--n", "3"), ("--n",)),
        (("report", "--experiment", "taylor", "--samples", "50"), ("--samples",)),
    ],
    ids=["config-and-flags", "build", "compare-fnn", "fnn-compare",
         "build-kind", "report-experiment", "config-experiment", "samples-without-l2"],
)
def test_no_flag_is_dropped_silently(capsys, tmp_path, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"experiment": "qsp", "target": "poly:0,0.5"}))
    code, out, err = run_cli(capsys, *argv)
    if not named:  # the given flags override the config file's keys
        assert code == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["seed"] == 4 and doc["params"]["degree"] == 1
        return
    assert code == 2 and out == ""
    message = json.loads(err.strip())["error"]
    assert all(flag in message for flag in named)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
