#!/usr/bin/env python3
"""Compare two directories of bound-suite reports field by field.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR

Both directories hold the ``<experiment>.json`` reports that
``scripts/run_bound_suite.py --out-dir`` writes.  Every numeric field that
moved is printed with the absolute size of the move, and every other field
that changed is printed as it is; ``timestamp`` is ignored.  Exits 1 if a
report is in one directory only, or if any ``pass``, ``degree`` or
``eta_recovered`` field differs; otherwise exits 0.
"""

from __future__ import annotations

import json
import numbers
import sys
from pathlib import Path

GATED = ("pass", "degree", "eta_recovered")
IGNORED = ("timestamp",)


def flatten(doc, prefix: str = "") -> dict:
    """Dotted path -> leaf value of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """The lines to print and whether a gate failed."""
    lines, failed = [], False
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.json")})
    if not names:
        return [f"no reports in {old_dir} or {new_dir}"], True
    for name in names:
        paths = [old_dir / name, new_dir / name]
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            lines.append(f"{name}: missing {', '.join(missing)}")
            failed = True
            continue
        old, new = (flatten(json.loads(p.read_text())) for p in paths)
        for key in sorted(set(old) | set(new)):
            leaf = key.rsplit(".", 1)[-1]
            a, b = old.get(key), new.get(key)
            if leaf in IGNORED or a == b:
                continue
            if leaf in GATED:
                lines.append(f"{name}: {key} {a!r} -> {b!r}  [gate]")
                failed = True
            elif is_number(a) and is_number(b):
                lines.append(f"{name}: {key} {a!r} -> {b!r}  (moved {abs(b - a):.2g})")
            else:
                lines.append(f"{name}: {key} {a!r} -> {b!r}")
    return lines, failed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines, failed = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines) if lines else "reports identical apart from the timestamp")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
