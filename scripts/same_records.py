"""Compare two edgepa record files cell by cell.

    python3 scripts/same_records.py BEFORE AFTER

Each file is a record file as ``generate``, ``couple`` or ``observe``
writes it, csv or json (a json file starts with ``[``); both should be
in the same format, since csv cells are strings.  Rows are matched by
(family, t, rep).  Names each (family, t, rep, column) whose cell
differs, and each row that only one file holds, and exits 1 if there is
any; exits 0 when every cell is the same.  ``wall_time`` is not compared.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

IGNORED = ("wall_time",)


def read(path: str) -> list[dict]:
    text = Path(path).read_text()
    if text.lstrip().startswith("["):
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text, newline="")))


def differences(before: list[dict], after: list[dict]) -> list[str]:
    """One line per differing cell or unmatched row, in ``before``'s row
    order and then ``after``'s new rows."""

    def keyed(rows):
        return {(r["family"], str(r["t"]), str(r["rep"])): r for r in rows}

    old, new = keyed(before), keyed(after)
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        name = "{} t={} rep={}".format(*key)
        if key not in old or key not in new:
            lines.append(f"{name}: only in {'AFTER' if key in new else 'BEFORE'}")
            continue
        a, b = old[key], new[key]
        for column in list(a) + [c for c in b if c not in a]:
            if column not in IGNORED and a.get(column) != b.get(column):
                lines.append(f"{name} {column}: {a.get(column)!r} -> {b.get(column)!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (read(path) for path in argv)
    lines = differences(before, after)
    for line in lines:
        print(line)
    if not lines:
        print(f"{len(after)} records identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
