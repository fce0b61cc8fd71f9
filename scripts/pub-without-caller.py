#!/usr/bin/env python3
"""List the product's `pub` functions and types that nothing outside tests calls.

Product source is every ``*.rs`` file under ``crates/*/src`` and the
facade's ``src/``; callers are looked for there and in ``examples/``,
``crates/*/examples`` and ``benchmark/src``. Every file is read up to
(not including) its first ``#[cfg(test)]`` at column 0, as
``loc-outside-tests.py`` reads it, with comments and ``use`` items taken
out: a doc link or a re-export is not a call.

An item is listed when its name, as a whole word, appears nowhere in
that text but where the item is defined. The match is by name alone, so
a name that some other item or a local variable shares hides the item
(the list can miss a candidate; what it lists has no caller). The list
is the starting point of a reachability census (ROADMAP item 16); each
entry is either deleted or kept with its reason.

The census's keeps are in ``KEPT`` below. Takes no arguments; run from
anywhere. Prints the list and exits 0 when it is exactly ``KEPT``;
otherwise it names each item that is new to the list (delete it, or keep
it with its reason in ``KEPT`` and ROADMAP item 16) or that left it
(drop it from ``KEPT``), and exits 1.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, name) of each item a census kept without a product caller.
KEPT = {
    # The test-facing API of product types (census round three).
    ("crates/netsim/src/fault.rs", "with_loss"),
    ("crates/netsim/src/fault.rs", "with_udp_payload_limit"),
    ("crates/resolver/src/profiles.rs", "winning_row"),
    ("crates/resolver/src/resolver.rs", "resolve_a"),
    ("crates/scan/src/scanner.rs", "final_records"),
    ("crates/scan/src/world.rs", "unsigned_root_zone"),
    ("crates/zone/src/zone.rs", "is_glue"),
    ("crates/zone/src/zone.rs", "rrset_count"),
    # Test references: the signed bytes and the DS digest a test recomputes.
    ("crates/zone/src/canonical.rs", "signing_data"),
    ("crates/zone/src/canonical.rs", "ds_digest"),
}

DEFINITION = re.compile(
    r"^[ \t]*pub\s+(?:const\s+|unsafe\s+|async\s+)*(fn|struct|enum|trait|type|union)\s+(\w+)",
    re.MULTILINE,
)
LINE_COMMENT = re.compile(r"//[^\n]*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
# An `impl` header up to its opening brace; group 1 is the implementing
# type's last path segment.
IMPL_HEADER = re.compile(
    r"^[ \t]*impl\b(?:<[^{]*?>)?[^{;]*?(?:\bfor\s+)?(?:\w+::)*(\w+)(?:<[^{]*>)?\s*(?:where[^{]*)?\{",
    re.MULTILINE,
)
USE_ITEM = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?use\s[^;]*;", re.MULTILINE | re.DOTALL)


def blank(match: re.Match) -> str:
    """What a match is replaced by: its newlines, so line numbers hold."""
    return "\n" * match.group(0).count("\n")


def outside_tests(path: Path) -> str:
    """The file's text up to its test module, without comments or `use` items."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            lines = lines[:i]
            break
    text = "\n".join(lines)
    for pattern in (BLOCK_COMMENT, LINE_COMMENT, USE_ITEM):
        text = pattern.sub(blank, text)
    return text


def without_own_impls(text: str) -> str:
    """`text` with the name of each `impl` block's type blanked inside its
    own block: a type that only its methods mention has no caller."""
    out = text
    for m in IMPL_HEADER.finditer(text):
        name, depth, end = m.group(1), 1, m.end()
        while depth and end < len(text):
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
        block = re.sub(rf"\b{name}\b", " " * len(name), out[m.start() : end])
        out = out[: m.start()] + block + out[end:]
    return out


def under_cfg_test(lines, at: int) -> bool:
    """Whether the item on line `at` (0-based) carries `#[cfg(test)]`:
    an item compiled for tests only is no product API."""
    for line in reversed(lines[:at]):
        line = line.strip()
        if line == "#[cfg(test)]":
            return True
        if line and not line.startswith("#["):
            return False
    return False


def rust_files(dirs):
    for d in dirs:
        yield from sorted(d.rglob("*.rs"))


def main() -> int:
    product_dirs = sorted((ROOT / "crates").glob("*/src")) + [ROOT / "src"]
    caller_dirs = [
        ROOT / "examples",
        *sorted((ROOT / "crates").glob("*/examples")),
        ROOT / "benchmark" / "src",
    ]
    product = {p: outside_tests(p) for p in rust_files(product_dirs)}
    callers = [outside_tests(p) for p in rust_files(caller_dirs)]

    definitions = []  # (path, line, kind, name)
    for path, text in product.items():
        lines = text.splitlines()
        for m in DEFINITION.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            if not under_cfg_test(lines, line - 1):
                definitions.append((path, line, m.group(1), m.group(2)))
    defined = {}
    for _, _, _, name in definitions:
        defined[name] = defined.get(name, 0) + 1

    corpus = "\n".join(without_own_impls(t) for t in [*product.values(), *callers])
    uses = {}
    for word in re.findall(r"\b\w+\b", corpus):
        if word in defined:
            uses[word] = uses.get(word, 0) + 1

    listed = set()
    for path, line, kind, name in definitions:
        if uses.get(name, 0) <= defined[name]:
            print(f"{path.relative_to(ROOT)}:{line}: {kind} {name}")
            listed.add((str(path.relative_to(ROOT)), name))
    for path, name in sorted(listed - KEPT):
        print(f"new: {path}: {name} has no caller outside tests and is not kept")
    for path, name in sorted(KEPT - listed):
        print(f"gone: {path}: {name} is kept but no longer listed")
    return 1 if listed != KEPT else 0


if __name__ == "__main__":
    sys.exit(main())
