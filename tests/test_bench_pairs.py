"""scripts/bench_pairs.py refuses a checkout that holds cached bytecode and
names each checkout's sources."""

import importlib.util
import re
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


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_without_git_is_named_by_its_sources(tmp_path):
    """An exported checkout has no commit, but a sha256 of its src/ and
    perfbench/ files that is stable, skips bytecode caches and
    perfbench/out/, and moves with one changed source byte."""
    bench = load_script()
    root = checkout(tmp_path / "tree")
    source = root / "src" / "pqcapprox" / "sim.py"
    source.write_bytes(b"x = 1\n")
    (root / "perfbench" / "run.py").write_bytes(b"pass\n")
    assert bench.git_head(root) is None
    digest = bench.tree_digest(root)
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    (root / "src" / "pqcapprox" / "__pycache__").mkdir()
    (root / "src" / "pqcapprox" / "__pycache__" / "sim.pyc").write_bytes(b"cached")
    (root / "perfbench" / "out").mkdir()
    (root / "perfbench" / "out" / "run.json").write_bytes(b"{}")
    (root / "README.md").write_bytes(b"outside src/ and perfbench/")
    assert bench.tree_digest(root) == digest
    source.write_bytes(b"x = 2\n")
    assert bench.tree_digest(root) != digest
