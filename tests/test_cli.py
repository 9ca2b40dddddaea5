"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import csv
import io

import pytest

from repro.cli import main
from repro.core.query_index import mixed_query_plan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_emits_requested_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--dim", "3", "--count", "5", "--seed", "1"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5
        assert all(len(r) == 3 for r in rows)
        assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r)

    def test_deterministic_by_seed(self, capsys):
        _, first, _ = run_cli(capsys, "generate", "--count", "4", "--seed", "9")
        _, second, _ = run_cli(capsys, "generate", "--count", "4", "--seed", "9")
        assert first == second

    def test_distribution_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "-D", "anti", "--count", "3"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_unknown_distribution_errors(self, capsys):
        code, _, err = run_cli(capsys, "generate", "-D", "zipf")
        assert code == 2
        assert "unknown distribution" in err


class TestSkyline:
    @pytest.fixture
    def csv_file(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1,5\n2,3\n4,1\n3,4\n5,5\n")
        return str(path)

    @pytest.mark.parametrize("algorithm", ["klp", "bnl", "sfs", "bbs", "naive"])
    def test_algorithms_agree(self, capsys, csv_file, algorithm):
        code, out, _ = run_cli(
            capsys, "skyline", csv_file, "--algorithm", algorithm
        )
        assert code == 0
        assert out.splitlines() == ["1,5", "2,3", "4,1"]

    def test_indices_mode(self, capsys, csv_file):
        code, out, _ = run_cli(capsys, "skyline", csv_file, "--indices")
        assert code == 0
        assert out.splitlines() == ["0", "1", "2"]

    def test_ragged_rows_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code, _, err = run_cli(capsys, "skyline", str(path))
        assert code == 2
        assert "row 2" in err

    def test_non_numeric_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,oops\n")
        code, _, err = run_cli(capsys, "skyline", str(path))
        assert code == 2
        assert "row 1" in err

    def test_missing_file_errors(self, capsys):
        code, _, err = run_cli(capsys, "skyline", "/no/such/file.csv")
        assert code == 2
        assert "error" in err


class TestWindow:
    @pytest.fixture
    def stream_file(self, tmp_path):
        path = tmp_path / "stream.csv"
        rows = ["5,5", "3,4", "4,3", "1,6", "2,2", "6,1"]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_final_query(self, capsys, stream_file):
        code, out, _ = run_cli(
            capsys, "window", stream_file, "--capacity", "4"
        )
        assert code == 0
        [line] = out.splitlines()
        assert line.startswith("final\tn=4")
        # Last 4 = (4,3),(1,6),(2,2),(6,1): (4,3) is dominated by (2,2).
        assert "kappas=4,5,6" in line

    def test_periodic_reporting(self, capsys, stream_file):
        code, out, _ = run_cli(
            capsys, "window", stream_file, "--capacity", "4", "--n", "2",
            "--every", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert [l.split("\t")[0] for l in lines] == [
            "after 2", "after 4", "after 6", "final",
        ]

    def test_parameter_validation(self, capsys, stream_file):
        code, _, err = run_cli(
            capsys, "window", stream_file, "--capacity", "4", "--n", "9"
        )
        assert code == 2 and "--n" in err
        code, _, err = run_cli(
            capsys, "window", stream_file, "--capacity", "0"
        )
        assert code == 2 and "--capacity" in err
        code, _, err = run_cli(
            capsys, "window", stream_file, "--capacity", "4", "--every", "0"
        )
        assert code == 2 and "--every" in err

    def test_empty_stream(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, _ = run_cli(capsys, "window", str(path), "--capacity", "3")
        assert code == 0
        assert out == ""

    def test_band_mode_reports_skyband(self, capsys, stream_file):
        code, sky_out, _ = run_cli(
            capsys, "window", stream_file, "--capacity", "6"
        )
        code2, band_out, _ = run_cli(
            capsys, "window", stream_file, "--capacity", "6", "--band", "3"
        )
        assert code == 0 and code2 == 0
        sky_size = int(sky_out.split("size=")[1].split("\t")[0])
        band_size = int(band_out.split("size=")[1].split("\t")[0])
        assert band_size >= sky_size  # the band contains the skyline

    def test_band_validation(self, capsys, stream_file):
        code, _, err = run_cli(
            capsys, "window", stream_file, "--capacity", "4", "--band", "0"
        )
        assert code == 2 and "--band" in err

    @pytest.mark.parametrize("flag", [
        "--shards", "--shard-backend", "--shard-replicas",
        "--shard-replica-lag",
    ])
    def test_shard_flags_are_retired(self, capsys, stream_file, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["window", stream_file, "--capacity", "4", flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestWindowContinuous:
    QUERIES = 9
    CAPACITY = 40

    @pytest.fixture
    def stream_file(self, tmp_path):
        path = tmp_path / "stream.csv"
        rows = [f"{(i * 37) % 11},{(i * 53) % 13}" for i in range(150)]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def continuous_line(self, out):
        line = out.splitlines()[
            [l.split("\t")[0] for l in out.splitlines()].index("continuous")
        ]
        return dict(field.split("=") for field in line.split("\t")[1:])

    def run_window(self, capsys, stream_file, *extra):
        return run_cli(
            capsys, "window", stream_file,
            "--capacity", str(self.CAPACITY), "--n", "25",
            "--continuous-queries", str(self.QUERIES), *extra,
        )

    def test_per_element(self, capsys, stream_file):
        code, out, _ = self.run_window(capsys, stream_file)
        assert code == 0
        fields = self.continuous_line(out)
        plan = mixed_query_plan(self.QUERIES, self.CAPACITY)
        assert fields["queries"] == str(self.QUERIES)
        assert fields["groups"] == str(len(set(plan)))
        assert fields["probe_n"] == str(plan[0])
        assert fields["probe_match"] == "yes"
        assert "index" not in fields

    def test_batched_under_full_sanitize(self, capsys, stream_file):
        _, per_element, _ = self.run_window(capsys, stream_file)
        code, out, _ = self.run_window(
            capsys, stream_file, "--batch", "7", "--sanitize", "full"
        )
        assert code == 0
        assert self.continuous_line(out) == self.continuous_line(
            per_element
        )
        assert self.continuous_line(out)["probe_match"] == "yes"
        assert out.splitlines()[-1].startswith("batch\t")
        assert out.splitlines()[0] == per_element.splitlines()[0]

    def test_negative_query_count_is_rejected(self, capsys, stream_file):
        code, _, err = run_cli(
            capsys, "window", stream_file, "--capacity", "4",
            "--continuous-queries", "-1",
        )
        assert code == 2
        assert "--continuous-queries must be >= 0" in err

    def test_band_above_one_is_rejected(self, capsys, stream_file):
        code, _, err = run_cli(
            capsys, "window", stream_file, "--capacity", "4",
            "--continuous-queries", "3", "--band", "2",
        )
        assert code == 2
        assert "requires --band 1" in err

    def test_query_index_flag_is_retired(self, capsys, stream_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["window", stream_file, "--capacity", "4",
                  "--continuous-queries", "3", "--query-index", "on"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --query-index" in (
            capsys.readouterr().err
        )


class TestInfo:
    def test_info_summary(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        assert "repro" in out
        assert "NofNSkyline" in out
        assert "anticorrelated" in out
        assert "shard" not in out


class TestPipelines:
    def test_generate_pipes_into_skyline(self, capsys, tmp_path, monkeypatch):
        _, generated, _ = run_cli(
            capsys, "generate", "--count", "50", "--seed", "3"
        )
        path = tmp_path / "gen.csv"
        path.write_text(generated)
        code, out, _ = run_cli(capsys, "skyline", str(path), "--indices")
        assert code == 0
        indices = [int(line) for line in out.splitlines()]
        assert indices == sorted(indices)
        assert indices  # a skyline always exists for non-empty input
