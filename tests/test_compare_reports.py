"""scripts/compare_reports.py on two report directories written here."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"

REPORT = {
    "experiment": "localization",
    "sup_error": 0.0075,
    "tol_agg": 4.5e-14,
    "pass": True,
    "params": {"K": 4, "delta": 0.05, "eta_recovered": True},
    "timestamp": "2026-01-01T00:00:00+00:00",
}


def write_reports(directory: Path, **changes) -> Path:
    directory.mkdir()
    doc = json.loads(json.dumps(REPORT))
    for key, value in changes.items():
        doc[key] = value
    (directory / "localization.json").write_text(json.dumps(doc))
    (directory / "qsp.json").write_text(json.dumps({"pass": True, "params": {"degree": 2}}))
    return directory


def compare(old: Path, new: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_moved_numbers_are_printed_and_the_timestamp_ignored(tmp_path):
    old = write_reports(tmp_path / "old")
    new = write_reports(tmp_path / "new", sup_error=0.0076,
                        timestamp="2026-02-02T00:00:00+00:00")
    code, out = compare(old, new)
    assert code == 0
    assert out.splitlines() == ["localization.json: sup_error 0.0075 -> 0.0076  (moved 0.0001)"]
    assert compare(old, old) == (0, "reports identical apart from the timestamp\n")


def test_flipped_pass_fails(tmp_path):
    code, out = compare(write_reports(tmp_path / "old"),
                        write_reports(tmp_path / "new", **{"pass": False}))
    assert code == 1
    assert "localization.json: pass True -> False  [gate]" in out


def test_changed_eta_recovered_or_degree_fails(tmp_path):
    old = write_reports(tmp_path / "old")
    new = write_reports(tmp_path / "new", params={"K": 4, "delta": 0.05, "eta_recovered": False})
    assert compare(old, new)[0] == 1
    (new / "localization.json").write_text((old / "localization.json").read_text())
    (new / "qsp.json").write_text(json.dumps({"pass": True, "params": {"degree": 4}}))
    code, out = compare(old, new)
    assert code == 1 and "qsp.json: params.degree 2 -> 4  [gate]" in out


def test_missing_report_fails(tmp_path):
    old = write_reports(tmp_path / "old")
    new = write_reports(tmp_path / "new")
    (new / "qsp.json").unlink()
    code, out = compare(old, new)
    assert code == 1 and "qsp.json: missing" in out
