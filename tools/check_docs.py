#!/usr/bin/env python3
"""Documentation and timing-seam guards for CI.

Five checks, all fail-on-regression:

* every Python module under ``src/repro/`` carries a non-empty module
  docstring (the docs job treats an undocumented module as a build
  break, not a style nit);
* every relative Markdown link in ``docs/*.md`` and ``README.md``
  resolves to an existing file (external ``http(s)``/``mailto`` targets
  and in-page ``#anchors`` are skipped — the guard is about repository
  rot, not the internet);
* no module under ``src/repro/`` calls ``time.time()`` or
  ``time.perf_counter()`` directly except ``repro/obs/clock.py`` — all
  timing goes through the injectable clock seam so ``FakeClock`` can
  drive deterministic span tests (``time.monotonic`` for deadlines is
  deliberately not banned; it measures elapsed wall budget, not spans);
* the metric table of ``docs/OBSERVABILITY.md`` and the source agree:
  every counter name passed as a string literal to ``.counter(...)``
  under ``src/repro/`` has a row, and every counter row names a counter
  the source emits;
* the span taxonomy of ``docs/OBSERVABILITY.md`` and the source agree:
  every span name passed to ``.span(...)`` under ``src/repro/`` has a
  row, and every row names a span the source opens. A string literal
  must match a row exactly; an f-string matches a templated row such as
  ``search.<strategy>`` by its constant parts.

Run locally with ``python tools/check_docs.py``; exits non-zero listing
every failure.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_ROOT = ROOT / "src" / "repro"

#: Inline Markdown links ``[text](target)``; the first character class
#: excludes pure in-page anchors ``(#...)``.
LINK = re.compile(r"\[[^\]]*\]\(([^)#\s][^)\s]*)\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def source_trees():
    """``(path, path relative to the repo root, module AST)`` per module
    under src/repro/."""
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path, str(path.relative_to(ROOT)), tree


def missing_docstrings() -> list[str]:
    """Modules under src/repro/ whose module docstring is absent or blank."""
    failures = []
    for _, relative, tree in source_trees():
        docstring = ast.get_docstring(tree)
        if not docstring or not docstring.strip():
            failures.append(relative)
    return failures


#: The one module allowed to touch the wall clock for span timing.
CLOCK_SEAM = SOURCE_ROOT / "obs" / "clock.py"

#: ``time`` attributes whose direct use bypasses the clock seam.
BANNED_TIME_ATTRIBUTES = frozenset({"time", "perf_counter"})


def bare_time_calls() -> list[str]:
    """Direct ``time.time``/``time.perf_counter`` uses outside the seam.

    Flags attribute references on the ``time`` module and ``from time
    import time/perf_counter`` aliases, found by AST walk so strings and
    comments never false-positive.
    """
    failures = []
    for path, relative, tree in source_trees():
        if path == CLOCK_SEAM:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in BANNED_TIME_ATTRIBUTES
            ):
                failures.append(
                    f"{relative}:{node.lineno}: time.{node.attr} bypasses "
                    "repro.obs.clock"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in BANNED_TIME_ATTRIBUTES:
                        failures.append(
                            f"{relative}:{node.lineno}: from time import "
                            f"{alias.name} bypasses repro.obs.clock"
                        )
    return failures


#: The metric table documenting every counter.
METRIC_TABLE = ROOT / "docs" / "OBSERVABILITY.md"

#: A counter row of the table, ``| `name{label=…}` | counter | ...``;
#: the group is the name without its labels.
COUNTER_ROW = re.compile(r"^\| `([^`{]+)(?:\{[^`]*\})?` \| counter \|", re.MULTILINE)


def emitted_counters() -> dict[str, str]:
    """Counter names passed as string literals to ``.counter(...)`` under
    src/repro/, each with its first call site."""
    sites: dict[str, str] = {}
    for _, relative, tree in source_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "counter"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                sites.setdefault(node.args[0].value, f"{relative}:{node.lineno}")
    return sites


def counter_table_drift() -> list[str]:
    """Emitted counters without a table row, and rows no counter backs."""
    emitted = emitted_counters()
    documented = set(COUNTER_ROW.findall(METRIC_TABLE.read_text(encoding="utf-8")))
    table = METRIC_TABLE.relative_to(ROOT)
    failures = [
        f"{site}: counter {name} has no row in {table}"
        for name, site in sorted(emitted.items())
        if name not in documented
    ]
    failures.extend(
        f"{table}: counter {name} is not emitted under src/repro"
        for name in sorted(documented - set(emitted))
    )
    return failures


#: The span taxonomy's rows: ``| `name` | opened by | attributes |``
#: lines between its heading and the next one.
SPAN_SECTION = re.compile(r"^## Span taxonomy$(.*?)^## ", re.MULTILINE | re.DOTALL)
SPAN_ROW = re.compile(r"^\| `([^`]+)` \|", re.MULTILINE)

#: A templated part of a span row (``<strategy>``) or of an f-string.
TEMPLATE_PART = re.compile(r"<[^>]*>")


def opened_spans() -> dict[str, str]:
    """Span names passed to ``.span(...)`` under src/repro/, each with its
    first call site; an f-string's formatted parts read ``<>``."""
    sites: dict[str, str] = {}
    for _, relative, tree in source_trees():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                key = name.value
            elif isinstance(name, ast.JoinedStr):
                key = "".join(
                    part.value if isinstance(part, ast.Constant) else "<>"
                    for part in name.values
                )
            else:
                continue
            sites.setdefault(key, f"{relative}:{node.lineno}")
    return sites


def span_table_drift() -> list[str]:
    """Opened spans without a taxonomy row, and rows no span backs."""
    opened = opened_spans()
    section = SPAN_SECTION.search(METRIC_TABLE.read_text(encoding="utf-8"))
    rows = SPAN_ROW.findall(section.group(1)) if section else []
    documented = {TEMPLATE_PART.sub("<>", row): row for row in rows}
    table = METRIC_TABLE.relative_to(ROOT)
    failures = [
        f"{site}: span {name} has no row in {table}'s span taxonomy"
        for name, site in sorted(opened.items())
        if name not in documented
    ]
    failures.extend(
        f"{table}: span {row} is not opened under src/repro"
        for key, row in sorted(documented.items())
        if key not in opened
    )
    return failures


def broken_links() -> list[str]:
    """Relative links in docs/ and README.md that point at nothing."""
    documents = sorted((ROOT / "docs").glob("*.md"))
    readme = ROOT / "README.md"
    if readme.exists():
        documents.append(readme)
    failures = []
    for document in documents:
        for match in LINK.finditer(document.read_text(encoding="utf-8")):
            target = match.group(1).strip()
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (document.parent / relative).resolve().exists():
                failures.append(
                    f"{document.relative_to(ROOT)}: broken link -> {target}"
                )
    return failures


def main() -> int:
    failures = 0
    undocumented = missing_docstrings()
    if undocumented:
        failures += len(undocumented)
        print("modules without a docstring:", file=sys.stderr)
        for module in undocumented:
            print(f"  {module}", file=sys.stderr)
    broken = broken_links()
    if broken:
        failures += len(broken)
        print("broken documentation links:", file=sys.stderr)
        for link in broken:
            print(f"  {link}", file=sys.stderr)
    timing = bare_time_calls()
    if timing:
        failures += len(timing)
        print("wall-clock calls outside the clock seam:", file=sys.stderr)
        for call in timing:
            print(f"  {call}", file=sys.stderr)
    drift = counter_table_drift()
    if drift:
        failures += len(drift)
        print("metric table and source disagree:", file=sys.stderr)
        for counter in drift:
            print(f"  {counter}", file=sys.stderr)
    spans = span_table_drift()
    if spans:
        failures += len(spans)
        print("span taxonomy and source disagree:", file=sys.stderr)
        for span in spans:
            print(f"  {span}", file=sys.stderr)
    if failures:
        print(f"{failures} documentation failure(s)", file=sys.stderr)
        return 1
    print(
        "docs OK: all modules documented, all links resolve, "
        "timing stays behind repro.obs.clock, every counter and span "
        "documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
