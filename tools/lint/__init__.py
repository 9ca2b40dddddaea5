"""Dataflow-aware lint suite for the reproduction codebase.

Run it as ``python -m tools.lint [paths...]`` (defaults to
``src/repro``).  Exit status 0 means clean, 1 means findings, 2 means a
file failed to parse.

The engine layers, bottom up:

* :mod:`tools.lint.rules` — the flat single-statement rules
  (REPRO001-005) plus the shared :class:`Finding` type and the
  ``# lint: skip=`` waiver parser;
* :mod:`tools.lint.cfg` — per-function control-flow graphs with
  exception edges and the path queries;
* :mod:`tools.lint.model` — the cross-module class/protocol model
  (version counters, seqlock structs, shm wrappers, flat mirrors and
  SoA pools, snapshot producers/consumers);
* :mod:`tools.lint.dataflow` — the REPRO101-105 rule pack on top of
  the two;
* :mod:`tools.lint.baseline` — the grandfathered-findings file.

Waivers that no longer suppress anything are reported as *unused* so
they can be deleted (``--strict-waivers`` turns them into errors).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

from tools.lint.rules import (
    RULES,
    Finding,
    _parse_waivers,
    check_source,
    collect_flat_findings,
)

__all__ = [
    "Finding", "LintResult", "RULES", "UnusedWaiver", "analyze_sources",
    "check_source", "iter_python_files", "lint_paths", "lint_run",
]


class UnusedWaiver(NamedTuple):
    """A ``# lint: skip=CODE`` comment that suppresses nothing."""

    path: str
    line: int
    code: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}: unused waiver for {self.code} "
                f"— nothing to suppress; delete it")


class LintResult(NamedTuple):
    """Outcome of one engine run (before any baseline filtering)."""

    findings: List[Finding]
    unused_waivers: List[UnusedWaiver]


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def analyze_sources(sources: Dict[str, str]) -> LintResult:
    """Run the full rule pack over ``{path: source}``.

    The cross-module model (and therefore REPRO105's parity universe)
    spans exactly the files given — lint a whole tree for cross-file
    rules to see everything.
    """
    # Import here, not at module top: dataflow imports tools.lint.cfg /
    # .model which are siblings loaded during this package's own init.
    from tools.lint.dataflow import check_module_dataflow, check_snapshot_parity
    from tools.lint.model import build_model

    trees: Dict[str, ast.Module] = {
        path: ast.parse(source, filename=path)
        for path, source in sources.items()
    }
    model = build_model(trees)

    raw: List[Finding] = []
    for path, tree in trees.items():
        raw.extend(collect_flat_findings(path, tree))
        raw.extend(check_module_dataflow(model.modules[path]))
    raw.extend(check_snapshot_parity(model))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    waivers: Dict[str, Dict[int, Set[str]]] = {
        path: _parse_waivers(source) for path, source in sources.items()
    }
    kept: List[Finding] = []
    used: Set[Tuple[str, int, str]] = set()
    for finding in raw:
        codes = waivers.get(finding.path, {}).get(finding.line, set())
        if finding.code in codes:
            used.add((finding.path, finding.line, finding.code))
        else:
            kept.append(finding)
    unused = sorted(
        UnusedWaiver(path, line, code)
        for path, by_line in waivers.items()
        for line, codes in by_line.items()
        for code in codes
        if (path, line, code) not in used
    )
    return LintResult(kept, unused)


def lint_run(paths: Iterable[str]) -> LintResult:
    """Lint every Python file under ``paths``."""
    sources: Dict[str, str] = {}
    for file_path in iter_python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            sources[file_path] = handle.read()
    return analyze_sources(sources)


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every Python file under ``paths``; returns the findings."""
    return lint_run(paths).findings
