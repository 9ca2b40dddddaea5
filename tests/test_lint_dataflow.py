"""Tests for the dataflow rule pack (REPRO101, REPRO105), the
waiver accounting, the baseline machinery, and the CLI.

Each rule has a golden fixture triple under ``tests/fixtures/lint/``:
a seeded violation, the idiomatic fix, and the violation suppressed by
an inline waiver.  The violation tests pin exact (code, line) pairs so
a rule that silently stops firing — or starts firing somewhere new —
fails loudly.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from tools.lint import UnusedWaiver, analyze_sources
from tools.lint.baseline import (
    BaselineKey,
    load_baseline,
    match_baseline,
    serialize_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def run_fixture(name):
    path = FIXTURES / name
    rel = str(path.relative_to(REPO_ROOT))
    return analyze_sources({rel: path.read_text(encoding="utf-8")})


def hits(name):
    return [(f.code, f.line) for f in run_fixture(name).findings]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        cwd=str(cwd or REPO_ROOT),
        capture_output=True,
        text=True,
    )


class TestRepro101VersionBumps:
    def test_violation(self):
        assert hits("repro101_violation.py") == [("REPRO101", 11)]

    def test_clean(self):
        assert hits("repro101_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro101_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []

    def test_changes_counter_convention_is_retired(self):
        # ``changes`` is a plain attribute: an integer ``changes`` set in
        # __init__ no longer arms the rule.
        src = (
            "class Group:\n"
            "    def __init__(self):\n"
            "        self._members = {}\n"
            "        self.changes = 0\n"
            "\n"
            "    def add(self, kappa, element):\n"
            "        self._members[kappa] = element\n"
        )
        result = analyze_sources({"group.py": src})
        assert result.findings == []

    def test_local_alias_is_a_write_only_when_written_through(self):
        # Binding ``rows = self._rows`` mutates nothing; a subscript
        # write or a mutator call through the alias does.
        src = (
            "class Index:\n"
            "    def __init__(self):\n"
            "        self._rows = []\n"
            "        self._version = 0\n"
            "\n"
            "    def live(self, i):\n"
            "        rows = self._rows\n"
            "        return rows[i] is not None\n"
            "\n"
            "    def bury(self, i):\n"
            "        rows = self._rows\n"
            "        rows[i] = None\n"
            "\n"
            "    def grow(self, row):\n"
            "        rows = self._rows\n"
            "        rows.append(row)\n"
        )
        result = analyze_sources({"index.py": src})
        assert [(f.code, f.line) for f in result.findings] == [
            ("REPRO101", 12),
            ("REPRO101", 16),
        ]


class TestRepro105SnapshotParity:
    def test_violation(self):
        assert hits("repro105_violation.py") == [
            ("REPRO105", 10),
            ("REPRO105", 16),
        ]

    def test_clean(self):
        assert hits("repro105_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro105_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []


class TestUnusedWaivers:
    def test_waiver_suppressing_nothing_is_reported(self):
        source = "def f(x):\n    return x  # lint: skip=REPRO001\n"
        result = analyze_sources({"src/repro/demo.py": source})
        assert result.findings == []
        assert result.unused_waivers == [
            UnusedWaiver("src/repro/demo.py", 2, "REPRO001")
        ]

    def test_used_waiver_is_not_reported(self):
        source = "def f(x):\n    assert x  # lint: skip=REPRO001\n"
        result = analyze_sources({"src/repro/demo.py": source})
        assert result.findings == []
        assert result.unused_waivers == []

    def test_render_mentions_the_code(self):
        waiver = UnusedWaiver("a.py", 7, "REPRO101")
        assert "a.py:7" in waiver.render()
        assert "REPRO101" in waiver.render()


class TestBaseline:
    def _findings(self):
        name = "repro101_violation.py"
        return run_fixture(name).findings

    def test_round_trip_matches_everything(self, tmp_path):
        findings = self._findings()
        assert findings, "fixture must produce findings"
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text(serialize_baseline(findings))
        baseline = load_baseline(str(baseline_file))
        new, stale = match_baseline(findings, baseline)
        assert new == []
        assert stale == []

    def test_fixed_finding_turns_entry_stale(self, tmp_path):
        findings = self._findings()
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text(serialize_baseline(findings))
        baseline = load_baseline(str(baseline_file))
        new, stale = match_baseline(findings[1:], baseline)
        assert new == []
        assert len(stale) == 1
        assert stale[0].code == findings[0].code

    def test_unknown_finding_is_new(self):
        findings = self._findings()
        new, stale = match_baseline(findings, load_counter_empty())
        assert new == findings
        assert stale == []

    def test_scope_anchoring_survives_line_churn(self):
        # Keys carry no line numbers: path|code|scope only.
        findings = self._findings()
        key = serialize_baseline(findings).splitlines()[-1]
        parts = key.split("|")
        assert len(parts) == 3
        assert parts[1].startswith("REPRO")
        assert all(not part.isdigit() for part in parts)

    def test_malformed_line_raises(self, tmp_path):
        bad = tmp_path / "baseline.txt"
        bad.write_text("only-two|fields\n")
        try:
            load_baseline(str(bad))
        except ValueError as exc:
            assert "malformed" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_comments_and_blanks_ignored(self, tmp_path):
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text(
            "# a comment\n"
            "\n"
            "a.py|REPRO001|Demo.method  # trailing comment\n"
        )
        baseline = load_baseline(str(baseline_file))
        assert baseline == {BaselineKey("a.py", "REPRO001", "Demo.method"): 1}


def load_counter_empty():
    from collections import Counter

    return Counter()


class TestCli:
    def test_violation_fixture_exits_one(self):
        proc = run_cli("tests/fixtures/lint/repro101_violation.py")
        assert proc.returncode == 1
        assert "REPRO101" in proc.stdout

    def test_clean_fixture_exits_zero(self):
        proc = run_cli("tests/fixtures/lint/repro101_clean.py")
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        proc = run_cli(str(bad))
        assert proc.returncode == 2
        assert "parse error" in proc.stderr

    def test_github_format(self):
        proc = run_cli(
            "tests/fixtures/lint/repro101_violation.py",
            "--format", "github",
        )
        assert proc.returncode == 1
        line = proc.stdout.splitlines()[0]
        assert line.startswith("::error file=")
        assert "line=11," in line
        assert "title=REPRO101::" in line

    def test_write_then_check_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        target = "tests/fixtures/lint/repro101_violation.py"
        proc = run_cli(target, "--baseline", str(baseline),
                       "--write-baseline")
        assert proc.returncode == 0
        assert baseline.exists()
        proc = run_cli(target, "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stale_baseline_entry_fails(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        target = "tests/fixtures/lint/repro101_violation.py"
        run_cli(target, "--baseline", str(baseline), "--write-baseline")
        proc = run_cli("tests/fixtures/lint/repro101_clean.py",
                       "--baseline", str(baseline))
        assert proc.returncode == 1
        assert "stale baseline entry" in proc.stderr

    def test_strict_waivers(self, tmp_path):
        src = tmp_path / "demo.py"
        src.write_text("def f(x):\n    return x  # lint: skip=REPRO001\n")
        relaxed = run_cli(str(src))
        assert relaxed.returncode == 0
        assert "unused waiver" in relaxed.stderr
        strict = run_cli(str(src), "--strict-waivers")
        assert strict.returncode == 1

    def test_diff_out_artifact(self, tmp_path):
        diff = tmp_path / "diff.txt"
        proc = run_cli(
            "tests/fixtures/lint/repro101_violation.py",
            "--diff-out", str(diff),
        )
        assert proc.returncode == 1
        content = diff.read_text()
        assert "new findings: 1" in content
        assert "stale baseline entries: 0" in content
        assert "unused waivers: 0" in content


class TestProductionTreeWithBaseline:
    def test_full_ci_invocation_is_clean(self):
        proc = run_cli(
            "src/repro", "tools", "scripts", "benchmarks",
            "--baseline", "tools/lint/baseline.txt",
            "--strict-waivers",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
