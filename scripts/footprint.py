#!/usr/bin/env python3
"""Print the two figures a change records: the line count of the package
and the digest of the default suite.

    python3 scripts/footprint.py

The first line is the total of ``wc -l src/pita/*.py``; the second the
sha256 of ``pita all --json`` at the defaults, its report count and its
total checks. The suite runs in this process, on the ``src/pita`` of
the checkout the script sits in.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from pita.cli import main as pita_main  # noqa: E402


def main() -> int:
    lines = sum(
        len(path.read_bytes().splitlines())
        for path in (SRC / "pita").glob("*.py")
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pita_main(["all", "--json"])
    suite = json.loads(out.getvalue())
    print(f"src/pita/*.py: {lines:,} lines")
    print(
        f"pita all --json: sha256 "
        f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}, "
        f"{len(suite['reports'])} reports, {suite['checks']:,} checks"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
