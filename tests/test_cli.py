"""Tests for the command-line front end."""

import json
import math
from contextlib import nullcontext

import numpy as np
import pytest

from zerocorr import kac_rice
from zerocorr.cli import main, parse_grid, parse_points
from zerocorr.kernels import FubiniStudy, fs_scaled_szego, heisenberg_limit_kernel


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_linear_grid(self):
        grid = parse_grid("0..2:5")
        assert list(grid) == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_log_grid(self):
        grid = parse_grid("1..100:3:log")
        assert grid == pytest.approx([1.0, 10.0, 100.0])

    def test_bad_grid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("nope")

    def test_points(self):
        pts = parse_points("0,0;1+1j,2", 2)
        assert pts == ((0, 0), (1 + 1j, 2))

    def test_points_dimension_mismatch(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_points("0,0", 1)


class TestKappaCommand:
    def test_csv_output(self, capsys):
        code, out, err = run_cli(capsys, "kappa", "--m", "1", "--r", "0.5..1:2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,kappa,series,asymptote"
        assert len(lines) == 3

    def test_reruns_identical(self, capsys):
        _, a, _ = run_cli(capsys, "kappa", "--m", "2", "--r", "0.2..3:8")
        _, b, _ = run_cli(capsys, "kappa", "--m", "2", "--r", "0.2..3:8")
        assert a == b

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "kappa", "--m", "1", "--r", "1..1:1", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["kappa"] == pytest.approx(0.4735538040324709659)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "kappa.csv"
        code, out, _ = run_cli(
            capsys, "kappa", "--m", "1", "--r", "1..2:2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("r,kappa")


class TestKappaSeriesOverflow:
    def test_exits_1_without_traceback(self, capsys):
        code, out, err = run_cli(capsys, "kappa", "--m", "1", "--r", "1..1e30:2")
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:")
        assert "Traceback" not in err


class TestCorrelateCommand:
    def test_limit_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlate", "--model", "heisenberg-limit",
            "--m", "1", "--n", "2", "--r", "1.0",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        normalized = float(row[6])
        assert normalized == pytest.approx(0.4735538040324709659, abs=1e-10)

    def test_correlates_once(self, capsys, monkeypatch):
        # K_normalized is K over the n-th power of the density, not a second
        # evaluation.
        calls = []
        original = kac_rice.correlation

        def counted(query):
            calls.append(query)
            return original(query)

        monkeypatch.setattr(kac_rice, "correlation", counted)
        code, out, _ = run_cli(
            capsys, "correlate", "--model", "fs", "--N", "7", "--m", "2",
            "--n", "2", "--r", "0.3", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)
        assert len(calls) == 1
        rho = kac_rice.one_point_density(FubiniStudy(7, 2), 1)
        assert row["K_normalized"] == row["K"] / rho ** 2

    def test_numeric_failure_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "correlate", "--model", "heisenberg-limit",
            "--m", "1", "--n", "2", "--points", "0;1e-9",
        )
        assert code == 1
        assert "NearSingular" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["correlate"])  # missing required --model
        assert info.value.code == 2

    @pytest.mark.parametrize("samples", ["1", "0", "-5"])
    def test_too_few_mc_samples_exit_code(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "correlate", "--model", "heisenberg-limit", "--m", "2",
            "--k", "2", "--n", "2", "--method", "mc", "--samples", samples,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError")


class TestConvergeCommand:
    def test_rate_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--m", "1", "--r", "1.0",
            "--levels", "64..1024:3:log",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith("rate_exponent")
        exponent = float(lines[1].split(",")[-1])
        assert exponent > 0.45


class TestMcCommand:
    def test_poisson_calibration(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--N", "400", "--samples", "400", "--window", "4.0",
            "--bins", "0.5..2.5:5", "--poisson", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("bin_left,bin_right,count")
        assert len(lines) == 5

    def test_roots_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--N", "100", "--samples", "20", "--window", "2.0",
            "--bins", "0.4..1.2:3", "--seed", "5",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            assert float(row[3]) > 0  # normalizer positive

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_too_few_samples_exit_code(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "mc", "--N", "500", "--window", "4.4", "--samples", samples,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError")


class TestKernelCheckCommand:
    def test_decay(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel-check", "--m", "1", "--levels", "100..400:2:log",
            "--grid-extent", "1.0", "--grid-steps", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        devs = [float(line.split(",")[1]) for line in lines[1:]]
        assert devs[1] < devs[0]

    @pytest.mark.parametrize("m", [1, 3])
    def test_rows_match_scalar_loop(self, capsys, m):
        # Reference: the sup over every ordered pair of grid points, one
        # scalar kernel call each.
        levels, extent, steps = [64, 1000], 1.5, 4
        grid = np.linspace(-extent, extent, steps)
        points = [[complex(x, y)] + [0.0] * (m - 1) for x in grid for y in grid]
        expected = [
            max(abs(fs_scaled_szego(N, m, u, v) - heisenberg_limit_kernel(u, 0.0, v, 0.0))
                for u in points for v in points)
            for N in levels
        ]
        code, out, _ = run_cli(
            capsys, "kernel-check", "--m", str(m), "--levels", "64..1000:2:log",
            "--grid-extent", str(extent), "--grid-steps", str(steps),
        )
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == levels
        assert np.allclose([row[1] for row in rows], expected, rtol=1e-15, atol=0.0)


class TestBadArguments:
    # Each bad argument ends in one line on stderr: a ZerocorrError (exit 1)
    # or a usage error (exit 2), never a traceback.
    @pytest.mark.parametrize("code,args", [
        pytest.param(1, ["correlate", "--model", "fs", "--N", "0"], id="level-0"),
        pytest.param(1, ["correlate", "--model", "fs", "--m", "5"], id="dimension-5"),
        pytest.param(1, ["correlate", "--model", "heisenberg-limit", "--m", "2", "--k", "3"],
                     id="codimension-above-m"),
        pytest.param(1, ["correlate", "--model", "heisenberg-limit", "--n", "2",
                         "--points", "0"], id="too-few-points"),
        pytest.param(1, ["correlate", "--model", "heisenberg-limit", "--n", "0"],
                     id="no-points"),
        pytest.param(2, ["correlate", "--model", "heisenberg-limit", "--n", "2",
                         "--points", "0;x"], id="bad-point"),
        pytest.param(1, ["mc", "--N", "3000"], id="degree-3000"),
        pytest.param(1, ["mc", "--bins", "1..0.5:3"], id="decreasing-bins"),
        pytest.param(1, ["mc", "--window", "nan", "--poisson"], id="nan-window-poisson"),
        pytest.param(1, ["mc", "--window", "nan"], id="nan-window"),
        pytest.param(1, ["mc", "--bins", "0.2..nan:3"], id="nan-bins"),
        pytest.param(2, ["kappa", "--r", "0..1:0"], id="empty-grid"),
        pytest.param(2, ["kappa", "--r", "0..1:2", "--seed", "3"], id="unused-seed"),
        pytest.param(1, ["kernel-check", "--levels", "0..1:2"], id="level-grid-from-0"),
        pytest.param(1, ["kernel-check", "--grid-steps", "-1"], id="negative-grid-steps"),
        pytest.param(1, ["converge", "--levels", "64..64:1"], id="one-level"),
        pytest.param(1, ["connected", "--m", "1", "--points", "0"], id="one-point-connected"),
        pytest.param(1, ["correlate", "--model", "fs", "--N", "5", "--n", "2",
                         "--points", "0;nan"], id="nan-point"),
        pytest.param(1, ["correlate", "--model", "fs", "--N", "5", "--n", "2",
                         "--points", "0;1e400"], id="overflowing-point"),
    ])
    def test_one_line_on_stderr(self, capsys, code, args):
        with pytest.raises(SystemExit) if code == 2 else nullcontext() as info:
            result = main(args)
        captured = capsys.readouterr()
        assert (info.value.code if code == 2 else result) == code
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err


class TestConnectedCommand:
    def test_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "connected", "--m", "1", "--points", "0;1.0",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        t2 = float(row[1])
        assert t2 == pytest.approx(0.4735538040324709659 - 1.0, abs=1e-10)

    @pytest.mark.parametrize("points", ["0;1.0;2.0;0.5+1j", "0;1.0;2.0;0.5+1j;1.5-0.8j"])
    def test_four_and_five_points(self, capsys, points):
        code, out, _ = run_cli(capsys, "connected", "--m", "1", "--points", points,
                               "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["n"] == len(points.split(";"))
        assert math.isfinite(row["T_connected"]) and math.isfinite(row["decay_bound"])
