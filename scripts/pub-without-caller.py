#!/usr/bin/env python3
"""List the product's `pub fn`s that nothing outside tests calls, by compiling.

Product source is every ``*.rs`` file under ``crates/*/src`` and the
facade's ``src/``, each read up to (not including) its first
``#[cfg(test)]`` at column 0, as ``loc-outside-tests.py`` reads it. A
definition under a ``#[cfg]`` that the host does not compile outside
tests (``#[cfg(test)]``, another target's stub) is skipped.

Each remaining ``pub fn`` is renamed in turn, and every non-test target
is checked: ``cargo check --workspace --lib --bins --examples`` and then
the benchmark crate (``benchmark/Cargo.toml``). The function is listed
when both checks pass: no product code, example or benchmark calls it.
The file is restored after each trial, whatever happens. A run checks
each function once, so it takes minutes.

The list is the starting point of a reachability census (ROADMAP item
16); each entry is either deleted or kept with its reason in ``KEPT``
below. Takes no arguments; run from anywhere. Prints the list and exits
0 when it is exactly ``KEPT``; otherwise it names each function that is
new to the list (delete it, or keep it with its reason in ``KEPT`` and
ROADMAP item 16) or that left it (drop it from ``KEPT``), and exits 1.
It also exits 1 if the work tree's ``git status`` differs at the end.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, name) of each function a census kept without a product caller.
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
    # Test references: the signed bytes and the DS digest a test
    # recomputes, and the byte-form RFC 4034 key tag that
    # `dnskey_key_tag` is compared against.
    ("crates/zone/src/canonical.rs", "signing_data"),
    ("crates/zone/src/canonical.rs", "ds_digest"),
    ("crates/crypto/src/keytag.rs", "key_tag"),
    # `ResolutionTrace::len` needs it (clippy's `len_without_is_empty`).
    ("crates/trace/src/sink.rs", "is_empty"),
    # Called by a standing pin, which stays unedited: the emission pin's
    # seven profiles, the diagnosis pin's trace reused between
    # resolutions, and the signer walk's owner names (census round six).
    ("crates/resolver/src/profiles.rs", "all"),
    ("crates/trace/src/sink.rs", "clear"),
    ("crates/zone/src/zone.rs", "names"),
}

DEFINITION = re.compile(r"^([ \t]*pub\s+(?:const\s+|unsafe\s+|async\s+)*fn\s+)(\w+)", re.MULTILINE)
CFG = re.compile(r"^\s*#\[cfg\((.*)\)\]\s*$")
CHECKS = [
    ["cargo", "check", "--offline", "--workspace", "--lib", "--bins", "--examples"],
    ["cargo", "check", "--offline", "--manifest-path", "benchmark/Cargo.toml"],
]


def host_cfg():
    """The host's `cfg` settings, as `rustc --print cfg` prints them."""
    out = subprocess.run(["rustc", "--print", "cfg"], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def cfg_holds(pred: str, cfg) -> bool:
    """Evaluate a `cfg` predicate (`all`, `any`, `not`, `key = "value"`, a
    name) for a build outside tests."""
    pred = pred.strip()
    m = re.fullmatch(r"(all|any|not)\((.*)\)", pred, re.DOTALL)
    if m:
        parts, depth, start = [], 0, 0
        for i, c in enumerate(m.group(2)):
            depth += {"(": 1, ")": -1}.get(c, 0)
            if c == "," and depth == 0:
                parts.append(m.group(2)[start:i])
                start = i + 1
        parts = [p for p in parts + [m.group(2)[start:]] if p.strip()]
        values = [cfg_holds(p, cfg) for p in parts]
        return {"all": all, "any": any, "not": lambda v: not v[0]}[m.group(1)](values)
    return re.sub(r"\s*=\s*", "=", pred) in cfg


def compiled(lines, at: int, cfg) -> bool:
    """Whether the host compiles the item on line `at` (0-based) outside
    tests, going by the `#[cfg]` attributes directly above it."""
    for line in reversed(lines[:at]):
        m = CFG.match(line)
        if m:
            if not cfg_holds(m.group(1), cfg):
                return False
        elif not line.strip().startswith(("#[", "///")):
            return True
    return True


def definitions(cfg):
    """(path, byte offset of the name, line, name) of each product `pub fn`."""
    found = []
    for src in sorted((ROOT / "crates").glob("*/src")) + [ROOT / "src"]:
        for path in sorted(src.rglob("*.rs")):
            text = path.read_text(encoding="utf-8")
            test_module = re.search(r"^#\[cfg\(test\)\]", text, re.MULTILINE)
            product = text[: test_module.start()] if test_module else text
            lines = product.splitlines()
            for m in DEFINITION.finditer(product):
                line = product.count("\n", 0, m.start())
                if compiled(lines, line, cfg):
                    offset = len(product[: m.start(2)].encode("utf-8"))
                    found.append((path, offset, line + 1, m.group(2)))
    return found


def unused(path: Path, offset: int) -> bool:
    """Rename the definition, check every non-test target, restore."""
    original = path.read_bytes()
    renamed = original[:offset] + b"census_trial_" + original[offset:]
    try:
        path.write_bytes(renamed)
        return all(
            subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0
            for cmd in CHECKS
        )
    finally:
        path.write_bytes(original)


def git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def main() -> int:
    before = git_status()
    for cmd in CHECKS:
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            print(f"{' '.join(cmd)} fails before any rename", file=sys.stderr)
            return 1
    listed = set()
    for path, offset, line, name in definitions(host_cfg()):
        if unused(path, offset):
            rel = str(path.relative_to(ROOT))
            print(f"{rel}:{line}: fn {name}", flush=True)
            listed.add((rel, name))
    for path, name in sorted(listed - KEPT):
        print(f"new: {path}: {name} has no caller outside tests and is not kept")
    for path, name in sorted(KEPT - listed):
        print(f"gone: {path}: {name} is kept but no longer listed")
    if git_status() != before:
        print("the work tree's git status changed during the run", file=sys.stderr)
        return 1
    return 1 if listed != KEPT else 0


if __name__ == "__main__":
    sys.exit(main())
