#!/usr/bin/env python3
"""Count the product's lines outside tests, per crate and in total.

Every ``*.rs`` file under ``crates/*/src`` and the facade's ``src/`` is
counted up to (not including) its first ``#[cfg(test)]`` at column 0 —
the test module; a file without one counts whole. Integration tests,
examples and ``benchmark/`` are not product source and are not counted.
This is the number the simplicity PRs in CHANGES.md quote, so that it
is computed one way (24 537 at 74fab42).

Takes no arguments; run from anywhere.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def lines_outside_tests(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i
    return len(lines)


def main() -> int:
    src_dirs = sorted((ROOT / "crates").glob("*/src")) + [ROOT / "src"]
    total = 0
    for src in src_dirs:
        count = sum(lines_outside_tests(p) for p in sorted(src.rglob("*.rs")))
        print(f"{count:7d}  {src.relative_to(ROOT)}")
        total += count
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
