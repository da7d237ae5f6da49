"""scripts/run_rate_sweep.py gates the bound at every K by its exit code."""

import importlib.util
import json
from pathlib import Path

from pqcapprox import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_rate_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("run_rate_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_exits_1_when_a_bound_fails(monkeypatch, tmp_path, capsys):
    sweep = load_sweep()
    out = tmp_path / "sweep.json"
    monkeypatch.setattr("sys.argv", ["run_rate_sweep.py", "--ks", "2,3", "--output", str(out)])
    assert sweep.main() == 0
    assert [r["passed"] for r in json.loads(out.read_text())["rows"]] == [True, True]

    real = cli.thm_bounds

    def zero_at_3(name, **kw):  # a bound no nonzero error meets, at K=3 only
        return 0.0 if kw["K"] == 3 else real(name, **kw)

    # the sweep reads each K's bound from the report's own check
    monkeypatch.setattr(cli, "thm_bounds", zero_at_3)
    assert sweep.main() == 1
    assert [r["passed"] for r in json.loads(out.read_text())["rows"]] == [True, False]
    assert "pass=False" in capsys.readouterr().out
