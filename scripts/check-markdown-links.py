#!/usr/bin/env python3
"""Check that relative links in the repo's markdown files resolve.

Scans every tracked ``*.md`` file (skipping ``target/`` and ``.git/``)
for inline links ``[text](target)`` and reference definitions
``[label]: target``, and fails if a relative target does not exist on
disk. External links (``http://``, ``https://``, ``mailto:``) and
pure-fragment links (``#section``) are ignored; fragments on relative
links are stripped before the existence check.

In the *live* documents (README.md, DESIGN.md, EXPERIMENTS.md,
docs/*.md and the verify skill — not the history files, which may name
what is gone) it also checks back-ticked repository paths: an inline
code span that starts with ``crates/``, ``src/``, ``docs/``, ``tests/``,
``examples/``, ``scripts/`` or ``benchmark/``, or is a bare ``*.json`` /
``*.md`` / ``*.toml`` name, must exist relative to the repository root,
so deleting a file finds every sentence that still points at it. A
trailing ``:line`` or ``::item`` is ignored, ``*`` globs, and what the
root ``.gitignore`` lists (build output) is exempt.

In DESIGN.md's "System inventory" table, every back-ticked name in the
"Key modules" column of a ``crates/<dir>`` row must be a module of that
crate: ``crates/<dir>/src/<name>.rs`` or ``crates/<dir>/src/<name>/``
(``a::b`` reads as ``a/b``, a trailing ``/*`` requires the directory, any
other glob such as ``repro-*`` is matched against ``src/bin/``). The
other way round, every ``pub mod`` of ``crates/<dir>/src/lib.rs`` must
be named in that cell, so a new public module cannot go unlisted.

The malformed-query policy is written down twice — the table in the
module doc of ``crates/server/src/pipeline.rs`` and the one in
docs/SERVING.md — and the two must list the same inputs, in the same
order: the first column of every row of the first ``| Input |`` table in
each file is compared. In the same way docs/OBSERVABILITY.md's event
schema (the ``| kind |`` table) must list exactly the ``=> "tag"`` arms
of ``TraceEvent::kind``, and its metrics catalogue (the ``| metric |``
table, every back-ticked name in the first column) exactly the ``pub``
fields of ``MetricsSnapshot``.

A ``--flag`` in a code span or a fenced block of a live document must
be one some program here parses: it has to appear in a string literal
(comments do not count) of a Rust file under ``crates/*/src/bin``,
``examples/``, ``crates/*/examples`` or ``benchmark/``, or be one of
``FOREIGN_FLAGS`` — so a retired flag finds the command lines that
still show it. In the same way every ``.name(`` chained on an
``X::builder()`` call, in a code span or a fenced block of a live
document, must be a ``pub fn`` of ``XBuilder`` under ``crates/*/src``,
so a retired setter finds the examples that still call it.

Run from anywhere: paths are resolved against the repository root
(the parent of this script's directory). Exit status is the number of
broken links, capped at 1 for shell friendliness.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP_DIRS = {"target", ".git", "node_modules"}

# [text](target) — target ends at the first unbalanced ')'
INLINE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# [label]: target   (reference-style definition at line start)
REFDEF = re.compile(r"^\s{0,3}\[[^\]]+\]:\s+(\S+)", re.MULTILINE)


# Documents that describe the repository as it is now.
LIVE_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
             ".claude/skills/verify/SKILL.md"]
CODE_SPAN = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(
    r"^(?:(?:crates|src|docs|tests|examples|scripts|benchmark)/[\w./*-]*"
    r"|[\w.-]+\.(?:json|md|toml))(?=$|:|\s)")


FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)
FLAG_SOURCES = ["crates/*/src/bin", "examples", "crates/*/examples", "benchmark"]
# Flags the live documents name that no program of this repository
# parses: cargo's and its test harness's, smoltcp's — and the ones the
# verify skill shows as examples of what the binaries refuse.
FOREIGN_FLAGS = {
    "--all", "--bin", "--bins", "--check", "--doc", "--example", "--examples",
    "--ignored", "--lib", "--manifest-path", "--no-deps", "--no-fail-fast",
    "--nocapture", "--offline", "--quiet", "--release", "--test", "--workspace",
    "--pcap",
    "--no-l2", "--no-l1", "--cache-budget", "--sede",
    "--synthesize", "--sweep", "--range-budget",
}


FENCE = re.compile(r"```.*?```", re.DOTALL)
BUILDER_CALL = re.compile(r"\b(\w+)::builder\(\)")
# Whitespace and `//` comments, then `.name(`.
CHAINED_CALL = re.compile(r"(?:\s|//[^\n]*)*\.(\w+)\(")
PUB_MOD = re.compile(r"^pub mod (\w+);", re.MULTILINE)
BUILDER_IMPL = re.compile(r"^impl (\w+Builder) \{\n(.*?)^\}", re.MULTILINE | re.DOTALL)


def is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "ftp://"))


def strip_fences(text: str) -> str:
    """Drop fenced code blocks — what they hold are examples and commands."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def strip_code_spans(text: str) -> str:
    """Drop fenced code blocks and inline code — links there are examples."""
    return re.sub(r"`[^`\n]*`", "", strip_fences(text))


def check_file(md: Path) -> list[str]:
    text = strip_code_spans(md.read_text(encoding="utf-8"))
    broken = []
    targets = INLINE.findall(text) + REFDEF.findall(text)
    for target in targets:
        if is_external(target) or target.startswith("#"):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md.parent / path).resolve()
        if not resolved.exists():
            broken.append(f"{md.relative_to(ROOT)}: broken link -> {target}")
    return broken


def ignored_prefixes() -> list[str]:
    """Root-anchored `.gitignore` entries: what a build leaves behind."""
    lines = (ROOT / ".gitignore").read_text(encoding="utf-8").split()
    return [line.strip("/") for line in lines if line.startswith("/")]


def check_paths(md: Path, ignored: list[str]) -> list[str]:
    text = strip_fences(md.read_text(encoding="utf-8"))
    broken = []
    for span in CODE_SPAN.findall(text):
        match = REPO_PATH.match(span)
        if not match:
            continue
        path = match.group(0).rstrip("/.")
        if any(path == p or path.startswith(p + "/") for p in ignored):
            continue
        if not any(ROOT.glob(path)):
            broken.append(f"{md.relative_to(ROOT)}: no such path -> `{span}`")
    return broken


def parsed_flags() -> set[str]:
    """Every `--flag` inside a string literal of the programs' sources."""
    flags = set()
    for pattern in FLAG_SOURCES:
        for src in ROOT.glob(pattern + "/**/*.rs"):
            if "target" in src.relative_to(ROOT).parts:
                continue
            code = "\n".join(line for line in src.read_text(encoding="utf-8").splitlines()
                             if not line.lstrip().startswith("//"))
            for literal in STRING_LITERAL.findall(code):
                flags.update(FLAG.findall(literal))
    return flags


def check_flags(md: Path, parsed: set[str]) -> list[str]:
    broken = []
    fenced = False
    for number, line in enumerate(md.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        code = line if fenced else " ".join(CODE_SPAN.findall(line))
        for flag in FLAG.findall(code):
            if flag not in parsed and flag not in FOREIGN_FLAGS:
                broken.append(f"{md.relative_to(ROOT)}:{number}: no program parses -> {flag}")
    return broken


def builder_setters() -> dict[str, set[str]]:
    """The `pub fn`s of every `impl XBuilder` block under crates/*/src."""
    setters: dict[str, set[str]] = {}
    for src in ROOT.glob("crates/*/src/**/*.rs"):
        for builder, body in BUILDER_IMPL.findall(src.read_text(encoding="utf-8")):
            names = re.findall(r"^\s*pub fn (\w+)", body, re.MULTILINE)
            setters.setdefault(builder, set()).update(names)
    return setters


def code_pieces(text: str) -> list[tuple[int, str]]:
    """(offset, code) of every fenced block, and of every code span
    outside them."""
    pieces = [(m.start(), m.group(0)) for m in FENCE.finditer(text)]
    blanked = FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    pieces += [(m.start(1), m.group(1)) for m in CODE_SPAN.finditer(blanked)]
    return pieces


def chained_calls(code: str):
    """(offset, X, name) for every `.name(` chained on an `X::builder()`."""
    for call in BUILDER_CALL.finditer(code):
        at = call.end()
        while chained := CHAINED_CALL.match(code, at):
            yield chained.start(1), call.group(1), chained.group(1)
            depth, at = 1, chained.end()
            while depth and at < len(code):
                if code[at] == '"':
                    at = code.find('"', at + 1)
                    if at < 0:
                        return
                depth += {"(": 1, ")": -1}.get(code[at], 0)
                at += 1


def check_builders(md: Path, setters: dict[str, set[str]]) -> list[str]:
    text = md.read_text(encoding="utf-8")
    broken = []
    for offset, code in code_pieces(text):
        for at, config, name in chained_calls(code):
            if name not in setters.get(config + "Builder", set()):
                line = text.count("\n", 0, offset + at) + 1
                broken.append(f"{md.relative_to(ROOT)}:{line}: {config}Builder has no setter -> .{name}(")
    return broken


def check_inventory(md: Path) -> list[str]:
    """The "Key modules" column of DESIGN.md's crate inventory."""
    text = md.read_text(encoding="utf-8")
    section = text.split("## System inventory", 1)[-1].split("\n## ", 1)[0]
    broken = []
    rows = re.findall(r"^\| `(crates/[\w-]+)`.*\|([^|]*)\|\s*$", section, re.MULTILINE)
    for crate, modules in rows:
        src = ROOT / crate / "src"
        for name in CODE_SPAN.findall(modules):
            path = name.replace("::", "/")
            if path.endswith("/*"):
                found = (src / path[:-2]).is_dir()
            elif "*" in path:
                found = any((src / "bin").glob(path))
            else:
                found = (src / f"{path}.rs").is_file() or (src / path).is_dir()
            if not found:
                broken.append(f"{md.relative_to(ROOT)}: `{crate}` has no module -> `{name}`")
        listed = {name.split("::")[0] for name in CODE_SPAN.findall(modules)}
        lib = (src / "lib.rs").read_text(encoding="utf-8")
        for name in PUB_MOD.findall(lib):
            if name not in listed:
                broken.append(f"{md.relative_to(ROOT)}: `{crate}` does not list `pub mod {name}`")
    return broken


def first_column(path: Path, header: str) -> list[str]:
    """First column of the first table in `path` whose header row starts
    with `header`."""
    cells = None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip().removeprefix("//!").strip()
        if cells is None:
            if line.startswith(header):
                cells = []
        elif line.startswith("|"):
            cell = line.split("|")[1].strip()
            if cell.strip("-"):
                cells.append(cell)
        else:
            break
    return cells or []


def differences(what: str, code: tuple[str, list[str]], docs: tuple[str, list[str]]) -> list[str]:
    """One failure naming every entry that only one side lists — or, when
    both list the same entries in another order, every entry."""
    (code_name, code_rows), (docs_name, docs_rows) = code, docs
    if not code_rows or not docs_rows:
        return [f"{what}: nothing found in {code_name} or {docs_name}"]
    if code_rows == docs_rows:
        return []
    lines = [f"{what}: {code_name} and {docs_name} differ"]
    same = set(code_rows) == set(docs_rows)
    for row in dict.fromkeys(code_rows + docs_rows):
        if row in code_rows and row in docs_rows:
            if same:
                lines.append(f"  both: {row}")
        else:
            lines.append(f"  {code_name if row in code_rows else docs_name} only: {row}")
    return ["\n".join(lines)]


def check_policy_tables() -> list[str]:
    """pipeline.rs and docs/SERVING.md must list the same inputs."""
    return differences(
        "malformed-query policy",
        ("pipeline.rs", first_column(ROOT / "crates/server/src/pipeline.rs", "| Input |")),
        ("SERVING.md", first_column(ROOT / "docs/SERVING.md", "| Input |")))


def check_observability_tables() -> list[str]:
    """The event schema and the metrics catalogue of OBSERVABILITY.md
    against `TraceEvent::kind` and `MetricsSnapshot`."""
    doc = ROOT / "docs/OBSERVABILITY.md"
    event = (ROOT / "crates/trace/src/event.rs").read_text(encoding="utf-8")
    kind_fn = event.split("pub fn kind(", 1)[-1].split("\n    }\n", 1)[0]
    kinds = sorted(re.findall(r'=> "(\w+)"', kind_fn))
    documented = sorted(cell.strip("`") for cell in first_column(doc, "| kind |"))
    metrics = (ROOT / "crates/trace/src/metrics.rs").read_text(encoding="utf-8")
    snapshot = metrics.split("pub struct MetricsSnapshot {", 1)[-1].split("\n}\n", 1)[0]
    fields = sorted(re.findall(r"^\s*pub (\w+):", snapshot, re.MULTILINE))
    catalogued = sorted({name for cell in first_column(doc, "| metric |")
                         for name in CODE_SPAN.findall(cell)})
    return (differences("event schema", ("TraceEvent::kind", kinds),
                        ("OBSERVABILITY.md", documented))
            + differences("metrics catalogue", ("MetricsSnapshot", fields),
                          ("OBSERVABILITY.md", catalogued)))


def main() -> int:
    broken = []
    for md in sorted(ROOT.rglob("*.md")):
        if any(part in SKIP_DIRS for part in md.relative_to(ROOT).parts):
            continue
        broken.extend(check_file(md))
    ignored = ignored_prefixes()
    parsed = parsed_flags()
    setters = builder_setters()
    for pattern in LIVE_DOCS:
        for md in sorted(ROOT.glob(pattern)):
            broken.extend(check_paths(md, ignored))
            broken.extend(check_flags(md, parsed))
            broken.extend(check_builders(md, setters))
    broken.extend(check_inventory(ROOT / "DESIGN.md"))
    broken.extend(check_policy_tables())
    broken.extend(check_observability_tables())
    for line in broken:
        print(line, file=sys.stderr)
    if broken:
        print(f"{len(broken)} broken markdown link(s), path(s), flag(s) or setter(s)",
              file=sys.stderr)
        return 1
    print("markdown links and paths OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
