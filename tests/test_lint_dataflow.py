"""Tests for the dataflow rule pack (REPRO101-105), the waiver
accounting, the baseline machinery, and the CLI.

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


class TestRepro101ChangesCounter:
    """The query-group convention: ``changes`` is a version counter
    too, and ``del``-statement mutations are visible to the rule."""

    def test_violation(self):
        assert hits("repro101_changes_violation.py") == [
            ("REPRO101", 13),
            ("REPRO101", 22),
        ]

    def test_clean(self):
        assert hits("repro101_changes_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro101_changes_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []

    def test_plain_changes_attribute_is_not_a_counter(self):
        # `changes` only counts when __init__ binds it to an integer
        # literal; a data attribute of the same name stays untracked.
        src = (
            "class Carrier:\n"
            "    def __init__(self, changes):\n"
            "        self._items = []\n"
            "        self.changes = list(changes)\n"
            "\n"
            "    def push(self, item):\n"
            "        self._items.append(item)\n"
        )
        result = analyze_sources({"carrier.py": src})
        assert result.findings == []


class TestRepro102Seqlock:
    def test_violation(self):
        assert hits("repro102_violation.py") == [
            ("REPRO102", 23),
            ("REPRO102", 37),
        ]

    def test_clean(self):
        assert hits("repro102_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro102_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []


class TestRepro103ShmLifecycle:
    def test_violation(self):
        assert hits("repro103_violation.py") == [("REPRO103", 8)]

    def test_clean(self):
        assert hits("repro103_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro103_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []


class TestRepro104KernelInvalidation:
    """The SoA pool half: a raw write into the pooled ``_points`` /
    ``_kappas`` matrices (the index's vectorised mirror of its entries)
    must be followed by block-summary maintenance."""

    def test_violation(self):
        assert hits("repro104_violation.py") == [("REPRO104", 18)]

    def test_clean(self):
        assert hits("repro104_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro104_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []


class TestRepro104MirrorKernels:
    """The ``X`` / ``X_kernel`` convention: a tracked container with a
    lazily rebuilt flat mirror must drop the mirror on every mutation
    path (the query index's sorted axis is the production instance)."""

    def test_violation(self):
        assert hits("repro104_mirror_violation.py") == [
            ("REPRO104", 14),
        ]

    def test_clean(self):
        assert hits("repro104_mirror_clean.py") == []

    def test_waived(self):
        result = run_fixture("repro104_mirror_waived.py")
        assert result.findings == []
        assert result.unused_waivers == []

    def test_kernel_without_matching_container_is_ignored(self):
        # A cache attr whose stem names no tracked container never
        # arms the mirror rule.
        src = (
            "class Free:\n"
            "    def __init__(self):\n"
            "        self._rows = []\n"
            "        self._cols_kernel = None\n"
            "\n"
            "    def push(self, row):\n"
            "        self._rows.append(row)\n"
        )
        result = analyze_sources({"free.py": src})
        assert result.findings == []

    # A pooled class's bulk maintenance methods satisfy the rule by
    # *name* (POOLED_MAINTENANCE_METHODS): calling them after a raw
    # pooled write is maintenance even when their own bodies delegate
    # and never touch a summary attribute directly.
    POOLED_BULK_SRC = (
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._points = _np.zeros((8, 2))\n"
        "        self._kappas = _np.zeros(8)\n"
        "        self._dirty = set()\n"
        "\n"
        "    def insert_many(self, points, kappas):\n"
        "        self._bulk_place(points, kappas)\n"
        "\n"
        "    def delete_many(self, kappas):\n"
        "        self._bulk_drop(kappas)\n"
        "\n"
        "    def rewrite(self, rows, pts):\n"
        "        self._points[rows] = pts\n"
        "        self.insert_many(pts, rows)\n"
        "\n"
        "    def erase(self, rows):\n"
        "        self._kappas[rows] = -1\n"
        "        self.delete_many(rows)\n"
    )

    def test_bulk_methods_count_as_maintenance_by_name(self):
        result = analyze_sources({"src/repro/pool.py": self.POOLED_BULK_SRC})
        assert [f.code for f in result.findings] == []

    def test_model_folds_contract_methods_into_pooled_classes(self):
        import ast

        from tools.lint.model import POOLED_MAINTENANCE_METHODS, build_model

        model = build_model(
            {"src/repro/pool.py": ast.parse(self.POOLED_BULK_SRC)}
        )
        cls = model.modules["src/repro/pool.py"].classes["Pool"]
        assert cls.is_pooled
        assert POOLED_MAINTENANCE_METHODS <= cls.maintenance_methods
        # A non-pooled class gets no contract fold: the names only mean
        # "re-summarise" on an SoA pool.
        plain = build_model({
            "src/repro/other.py": ast.parse(
                "class Router:\n"
                "    def insert_many(self, xs):\n"
                "        self.xs = xs\n"
            )
        })
        router = plain.modules["src/repro/other.py"].classes["Router"]
        assert not router.maintenance_methods


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
        waiver = UnusedWaiver("a.py", 7, "REPRO104")
        assert "a.py:7" in waiver.render()
        assert "REPRO104" in waiver.render()


class TestBaseline:
    def _findings(self):
        name = "repro104_violation.py"
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
        target = "tests/fixtures/lint/repro104_violation.py"
        proc = run_cli(target, "--baseline", str(baseline),
                       "--write-baseline")
        assert proc.returncode == 0
        assert baseline.exists()
        proc = run_cli(target, "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stale_baseline_entry_fails(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        target = "tests/fixtures/lint/repro104_violation.py"
        run_cli(target, "--baseline", str(baseline), "--write-baseline")
        proc = run_cli("tests/fixtures/lint/repro104_clean.py",
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
