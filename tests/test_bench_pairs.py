"""scripts/bench_pairs.py refuses a checkout that holds cached bytecode."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def checkout(root: Path) -> Path:
    (root / "src" / "pqcapprox").mkdir(parents=True)
    (root / "perfbench").mkdir()
    return root


@pytest.mark.parametrize("cached", ["src/pqcapprox/__pycache__", "perfbench/__pycache__"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_checkout_with_cached_bytecode_is_refused(tmp_path, side, cached):
    roots = {s: checkout(tmp_path / s) for s in ("parent", "change")}
    (roots[side] / cached).mkdir()
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(roots["parent"]),
         "--change", str(roots["change"]), "--workload", "taylor_d2", "--pairs", "1",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert str((roots[side] / cached).resolve()) in proc.stderr
    assert not out.exists()
