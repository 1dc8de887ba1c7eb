"""Compare two ``edgepa verify --suite all --json`` outputs verdict by verdict.

    python3 scripts/same_verdicts.py BEFORE.json AFTER.json

Names each criterion whose ``passed``, ``measured`` or ``expected``
differs between the two files, or that only one of them holds, and exits
1 if there is any; exits 0 when every verdict is the same.  ``seconds``
is not compared, nor C16's ``measured``, which holds timings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIELDS = ("passed", "measured", "expected")


def differences(before: list[dict], after: list[dict]) -> list[str]:
    """One line per criterion whose verdict differs, in ``before``'s order
    and then ``after``'s new cids."""
    old = {r["cid"]: r for r in before}
    new = {r["cid"]: r for r in after}
    lines = []
    for cid in list(old) + [c for c in new if c not in old]:
        if cid not in old or cid not in new:
            lines.append(f"{cid}: only in {'AFTER' if cid in new else 'BEFORE'}")
            continue
        for field in FIELDS:
            if (cid, field) != ("C16", "measured") and old[cid][field] != new[cid][field]:
                lines.append(f"{cid}: {field} {old[cid][field]!r} -> {new[cid][field]!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text()) for path in argv)
    lines = differences(before, after)
    for line in lines:
        print(line)
    if not lines:
        print(f"{len(after)} verdicts identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
