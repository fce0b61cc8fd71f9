#!/usr/bin/env python3
"""Hold the product's unsafe boundary: one module, one crate.

Fails if the ``unsafe`` keyword appears in code (comments, strings and
char literals do not count) in any ``*.rs`` file under ``crates/*/src``
or the facade's ``src/`` other than ``crates/crypto/src/accel.rs``, the
SHA-extension kernels. That covers the ``src/bin`` crate roots, which
no library attribute reaches. It also fails if a product crate root
(``crates/*/src/lib.rs``, ``src/lib.rs``) lacks ``#![forbid(unsafe_code)]``,
except ``ede-crypto``, which must say ``#![deny(unsafe_code)]`` so that
only ``accel``'s own ``allow`` lifts it.

Tests, examples and ``benchmark/`` are not product source and are not
checked. Takes no arguments; run from anywhere. Exit status 1 on any
finding.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = Path("crates/crypto/src/accel.rs")
CRYPTO_ROOT = Path("crates/crypto/src/lib.rs")

# One token at a time, leftmost first: whatever could hide the word
# (a comment, a string, a char literal) is consumed whole, so a match
# of the last alternative is the keyword itself.
TOKEN = re.compile(r"""
    //[^\n]*
  | /\*.*?\*/
  | b?r(?P<hashes>\#*)".*?"(?P=hashes)
  | b?"(?:\\.|[^"\\])*"
  | b?'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^'\\])'
  | \bunsafe\b
""", re.VERBOSE | re.DOTALL)


def unsafe_lines(path: Path) -> list[int]:
    text = path.read_text(encoding="utf-8")
    return [text.count("\n", 0, m.start()) + 1
            for m in TOKEN.finditer(text) if m.group(0) == "unsafe"]


def main() -> int:
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(ROOT.glob("src/**/*.rs"))
    found = []
    for path in sources:
        rel = path.relative_to(ROOT)
        if rel != ALLOWED:
            found.extend(f"{rel}:{line}: `unsafe` outside {ALLOWED}"
                         for line in unsafe_lines(path))
    roots = sorted(ROOT.glob("crates/*/src/lib.rs")) + [ROOT / "src/lib.rs"]
    for root in roots:
        rel = root.relative_to(ROOT)
        want = "#![deny(unsafe_code)]" if rel == CRYPTO_ROOT else "#![forbid(unsafe_code)]"
        if want not in root.read_text(encoding="utf-8").splitlines():
            found.append(f"{rel}: crate root lacks {want}")
    for line in found:
        print(line, file=sys.stderr)
    if found:
        print(f"{len(found)} breach(es) of the unsafe boundary", file=sys.stderr)
        return 1
    print(f"unsafe boundary OK: {len(sources)} files, {len(roots)} crate roots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
