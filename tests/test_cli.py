"""End-to-end checks of the command-line entry points."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradpce
from gradpce.adjoint_bvp import QOI_KINDS
from gradpce.cli import build_parser, main
from gradpce.checks import DEFAULT_MODES
from gradpce.harness import FORMATS, TARGETS, ResultTable

PINNED = Path(__file__).resolve().parent / "data"
# Loose enough for a BLAS thread-count difference (last digits), tight enough
# to fail on a program change at rounding level.
PIN_RTOL = 1e-12


def write_config(path, **overrides):
    path.write_text(json.dumps(overrides))
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def assert_table_matches(path, expected_path):
    """Header, labels, grid values and success fractions exactly; other floats to PIN_RTOL."""
    rows, expected = read_csv(path), read_csv(expected_path)
    header = expected[0]
    exact = [j for j, name in enumerate(header) if j < 2 or name == "success_fraction"]
    floats = [j for j in range(len(header)) if j not in exact]
    assert rows[0] == header and len(rows) == len(expected)
    assert [[row[j] for j in exact] for row in rows] == [[row[j] for j in exact] for row in expected]
    np.testing.assert_allclose([[float(row[j]) for j in floats] for row in rows[1:]],
                               [[float(row[j]) for j in floats] for row in expected[1:]],
                               rtol=PIN_RTOL, atol=0)


def assert_report_matches(text, expected_path):
    """`diagnose` lines: names and text exactly, numbers to PIN_RTOL (nan equals nan)."""
    lines = [line.split() for line in text.splitlines()]
    expected = [line.split() for line in expected_path.read_text().splitlines()]
    assert [line[0] for line in lines] == [line[0] for line in expected]
    for (name, value), (_, want) in zip(lines, expected):
        try:
            np.testing.assert_allclose(float(value), float(want), rtol=PIN_RTOL, atol=0,
                                       err_msg=name)
        except ValueError:
            assert value == want, name


def run_cli(args, out, threads):
    """Run the CLI in a fresh interpreter at a given OpenBLAS thread count."""
    src = str(Path(gradpce.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "gradpce.cli", *args, "--out", str(out)],
                          env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestRecover:
    def test_writes_csv(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json",
            kind="recovery-vs-N", degree=3, sample_grid=[8, 12],
            sparsity=1, trials=2,
        )
        code = main(["recover", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "recover.csv"
        assert f"wrote {out}" in capsys.readouterr().out
        rows = read_csv(out)
        assert rows[0] == ["mode", "N", "success_fraction"]
        assert len(rows) == 1 + 2 * 2  # two modes, two grid points
        assert {row[0] for row in rows[1:]} == {"standard", "gradient-enhanced"}

    def test_json_format(self, tmp_path):
        config = write_config(
            tmp_path / "config.json",
            kind="recovery-vs-s", degree=3, sparsity_grid=[0, 1],
            sample_count=10, trials=2, modes=["standard"],
        )
        code = main(["recover", "--config", str(config), "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "recover.json").read_text())
        assert payload["columns"] == ["mode", "s", "success_fraction"]
        assert payload["rows"][0] == ["standard", 0, 1.0]

    def test_defaults_need_no_config(self, tmp_path, monkeypatch):
        # Parse-only check: the default config is the full benchmark, too slow
        # to execute here.
        args = build_parser().parse_args(["recover", "--out", str(tmp_path)])
        assert args.config is None and args.format == "csv"

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path / "config.json",
            kind="recovery-vs-N", degree=3, sample_grid=[8],
            sparsity=1, trials=2, seed=7,
        )
        main(["recover", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["recover", "--config", str(config), "--out", str(tmp_path / "b"),
              "--seed", "7"])
        first = (tmp_path / "a" / "recover.csv").read_bytes()
        second = (tmp_path / "b" / "recover.csv").read_bytes()
        assert first == second

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", kind="rmse")
        code = main(["recover", "--config", str(config)])
        assert code == 1
        assert "does not belong" in capsys.readouterr().err


class TestMicSweep:
    def test_writes_table(self, tmp_path):
        config = write_config(
            tmp_path / "config.json",
            kind="mic-sweep", degree=6, sample_grid=[30, 40], trials=2,
        )
        code = main(["mic-sweep", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "mic_sweep.csv")
        assert rows[0] == ["matrix_id", "N", "mic"]
        assert len(rows) == 1 + 3 * 2  # three matrices, two grid points


class TestRmse:
    def test_target_flag(self, tmp_path):
        config = write_config(
            tmp_path / "config.json",
            kind="rmse", degree=4, sample_grid=[20], trials=2,
            modes=["gradient-enhanced"], target="f3",
        )
        # f1 lies in the basis and is fitted to solver accuracy; f3 is not.
        code = main(["rmse", "--config", str(config), "--out", str(tmp_path),
                     "--target", "f1"])
        assert code == 0
        rows = read_csv(tmp_path / "rmse.csv")
        assert rows[0] == ["mode", "N", "rmse"]
        assert float(rows[1][2]) < 1e-6


class TestBvp:
    def test_writes_moment_errors(self, tmp_path):
        code = main(["bvp", "--d", "1", "--n", "3", "--N-grid", "8,12",
                     "--cells", "64", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "bvp.csv")
        assert rows[0] == ["mode", "N", "mean_error", "std_error"]
        assert len(rows) == 1 + 2 * 2
        assert all(float(row[2]) >= 0.0 for row in rows[1:])

    def test_single_mode(self, tmp_path):
        code = main(["bvp", "--d", "1", "--n", "2", "--N-grid", "8",
                     "--cells", "64", "--mode", "standard",
                     "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "bvp.json").read_text())
        assert [row[0] for row in payload["rows"]] == ["standard"]

    @pytest.mark.parametrize("flag, value", [("--N-grid", "10,x"), ("--d", "x")])
    def test_ill_typed_flag_is_named_by_argparse(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bvp", flag, value, "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert f"error: argument {flag}: invalid " in capsys.readouterr().err

    def test_bad_mode_reported(self, tmp_path, capsys):
        code = main(["bvp", "--d", "1", "--mode", "turbo", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDiagnose:
    def test_prints_report(self, capsys):
        code = main(["diagnose", "--measure", "chebyshev", "--dim", "2",
                     "--degree", "4", "--samples", "30"])
        assert code == 0
        out = capsys.readouterr().out
        for field in ("mic", "value_coherence", "stacked_coherence",
                      "coherence_bound", "bound_growth", "stacked_bound"):
            assert field in out
        values = {line.split()[0]: line.split()[1] for line in out.splitlines()}
        assert values["measure"] == "chebyshev"
        assert float(values["mic"]) > 0.0
        # Chebyshev tensor bases meet the product bound with unit growth.
        assert float(values["bound_growth"]) == pytest.approx(1.0)

    def test_gaussian_reports_nan_bounds(self, capsys):
        code = main(["diagnose", "--measure", "gaussian", "--dim", "1",
                     "--degree", "3", "--samples", "20"])
        assert code == 0
        values = {line.split()[0]: line.split()[1]
                  for line in capsys.readouterr().out.splitlines()}
        assert values["coherence_bound"] == "nan"


    @pytest.mark.parametrize("measure", ["legendre", "chebyshev", "hermite", "jacobi(0.5,1.5)"])
    def test_grid_scan_reports_or_errors(self, measure, capsys):
        # An unsupported scan ends in one error line, never an uncaught exception.
        code = main(["diagnose", "--measure", measure, "--dim", "2", "--degree", "3",
                     "--samples", "20", "--grid-points", "21"])
        captured = capsys.readouterr()
        if measure == "hermite":
            assert code == 1
            assert captured.err.splitlines() == [
                "error: grid scan is defined for Jacobi bases on [-1, 1] only"
            ]
        else:
            assert code == 0
            assert captured.err == ""
            assert "stacked_coherence" in captured.out

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_grid_scan_of_fewer_than_two_points_errors(self, points, capsys):
        assert main(["diagnose", "--grid-points", points]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: grid_points must be >= 2"]

    @pytest.mark.parametrize("measure, message", [
        ("jacobi(inf,0)", "error: Jacobi parameters must be finite"),
        ("jacobi(1e308,0)", "error: Jacobi parameters alpha=1e+308, beta=0.0 are too large"),
        ("jacobi(1e200,0)", "error: Jacobi parameters alpha=1e+200, beta=0.0 are too large"),
        ("jacobi(1e50,0)", "error: Jacobi parameters alpha=1e+50, beta=0.0: derivative constant"),
        ("jacobi(1e10,0)",
         "error: Jacobi parameters alpha=10000000000.0, beta=0.0: derivative constant"),
        ("jacobi(1e8,0)", "error: Jacobi parameters alpha=100000000.0, beta=0.0: derivative"),
        ("jacobi(1e6,0)", "error: Jacobi parameters alpha=1000000.0, beta=0.0 are too large: "
                          "the density normalization underflows"),
        ("jacobi(1000,0)", "error: Jacobi parameters alpha=1000.0, beta=0.0 are too large for "
                           "these sample points: a row weight underflows to 0"),
        ("jacobi(300,0)", "error: Jacobi parameters alpha=300.0, beta=0.0 are too large for "
                          "these sample points"),
        ("jacobi(100,0)", "error: Jacobi parameters alpha=100.0, beta=0.0 are too large for "
                          "these sample points"),
    ])
    def test_bad_jacobi_exponents_end_in_one_error_line(self, measure, message, capsys):
        # Exponents too large for the recurrence, the derivative self-check,
        # the density normalization or the sample points' row weights are
        # named in the error line, and the failure emits no warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["diagnose", "--measure", measure])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(message)
        assert caught == []

    @pytest.mark.parametrize("measure", ["jacobi(a,b)", "jacobi(1,)"])
    def test_unparsable_measure_names_the_label(self, measure, capsys):
        assert main(["diagnose", "--measure", measure]) == 1
        assert capsys.readouterr().err == f"error: cannot parse measure id {measure!r}\n"


class TestParsing:
    def test_command_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([1, 2]))
        code = main(["recover", "--config", str(config)])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_config_key_reported(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json",
                              kind="mic-sweep", turbo=True)
        code = main(["mic-sweep", "--config", str(config)])
        assert code == 1
        assert "turbo" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"sample_grid": 5}, {"dim": "2"}, {"trials": 2.5}, {"seed": "x"}, {"epsilon": "0"},
        {"measure": 5}, {"modes": 5}, {"sample_grid": [20.7]},
        {"degree": True, "sparsity": 1, "trials": 1},
        {"target": 5}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
    ])
    def test_ill_typed_config_ends_in_one_error_line(self, overrides, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", **overrides)
        code = main(["recover", "--config", str(config), "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not list(tmp_path.glob("recover.*"))

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["recover", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestPinnedMicSweep:
    """`gradpce mic-sweep` with {"kind": "mic-sweep", "trials": 3} against its committed output."""

    def test_matches_pinned_output(self, tmp_path):
        config = write_config(tmp_path / "config.json", kind="mic-sweep", trials=3)
        assert main(["mic-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert_table_matches(tmp_path / "mic_sweep.csv", PINNED / "mic_sweep_trials3.csv")

    def test_blas_thread_counts_agree(self, tmp_path):
        config = write_config(tmp_path / "config.json", kind="mic-sweep", trials=3)
        outputs = []
        for threads in ("1", "2"):
            run_cli(["mic-sweep", "--config", str(config)], tmp_path / threads, threads)
            outputs.append(tmp_path / threads / "mic_sweep.csv")
            assert_table_matches(outputs[-1], PINNED / "mic_sweep_trials3.csv")
        assert_table_matches(outputs[0], outputs[1])


class TestNameTables:
    """The parser's choices and defaults are the library's own name tables."""

    @staticmethod
    def _action(command, dest):
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        return next(a for a in commands[command]._actions if a.dest == dest)

    def test_choices_are_the_library_tables(self):
        for command in ("mic-sweep", "recover", "rmse", "bvp"):
            assert tuple(self._action(command, "format").choices) == FORMATS
        assert tuple(self._action("rmse", "target").choices) == tuple(TARGETS)
        assert tuple(self._action("bvp", "qoi").choices) == QOI_KINDS
        assert self._action("bvp", "mode").default == ",".join(DEFAULT_MODES)
        assert gradpce.ExperimentConfig(kind="rmse").modes == DEFAULT_MODES

    def test_table_writes_only_a_listed_format(self, tmp_path):
        table = ResultTable(("mode",), (("standard",),))
        for fmt in FORMATS:
            table.write(tmp_path / f"table.{fmt}", fmt)
        assert (tmp_path / "table.csv").read_text() == table.to_csv()
        assert (tmp_path / "table.json").read_text() == table.to_json()
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            table.write(tmp_path / "table.xml", "xml")


class TestPinnedOutputs:
    """Every other CLI output of the reference runs against its committed copy.

    The copies were written at OPENBLAS_NUM_THREADS=1; a program change that
    moves any number past rounding level fails here and updates its file.
    """

    @pytest.mark.parametrize("reference, args, config, output", [
        ("recover_vs_N_trials10.csv", ["recover"], {"kind": "recovery-vs-N", "trials": 10},
         "recover.csv"),
        ("recover_vs_s_trials10.csv", ["recover"], {"kind": "recovery-vs-s", "trials": 10},
         "recover.csv"),
        ("rmse_f1_trials3.csv", ["rmse", "--target", "f1"], {"trials": 3}, "rmse.csv"),
        ("rmse_f2_trials3.csv", ["rmse", "--target", "f2"], {"trials": 3}, "rmse.csv"),
        ("rmse_f3_trials3.csv", ["rmse", "--target", "f3"], {"trials": 3}, "rmse.csv"),
        ("bvp.csv", ["bvp"], None, "bvp.csv"),
        ("bvp_d3.csv", ["bvp", "--d", "3"], None, "bvp.csv"),
        ("bvp_midpoint_double.csv",
         ["bvp", "--qoi", "midpoint", "--mode", "standard,gradient-enhanced,standard-double"],
         None, "bvp.csv"),
    ], ids=["recover-N", "recover-s", "rmse-f1", "rmse-f2", "rmse-f3", "bvp", "bvp-d3",
            "bvp-midpoint-double"])
    def test_table_matches_pinned_output(self, reference, args, config, output, tmp_path):
        if config is not None:
            args = args + ["--config", str(write_config(tmp_path / "config.json", **config))]
        assert main(args + ["--out", str(tmp_path)]) == 0
        assert_table_matches(tmp_path / output, PINNED / reference)

    @pytest.mark.parametrize("args, reference", [
        (["--measure", "legendre"], "diagnose_legendre.txt"),
        (["--measure", "chebyshev"], "diagnose_chebyshev.txt"),
        (["--measure", "jacobi(0.5,1.5)"], "diagnose_jacobi_0.5_1.5.txt"),
        (["--measure", "hermite"], "diagnose_hermite.txt"),
        (["--grid-points", "101"], "diagnose_legendre_grid101.txt"),
    ], ids=["legendre", "chebyshev", "jacobi(0.5,1.5)", "hermite", "legendre-grid101"])
    def test_diagnose_matches_pinned_output(self, args, reference, capsys):
        assert main(["diagnose", *args]) == 0
        assert_report_matches(capsys.readouterr().out, PINNED / reference)

    def test_rmse_blas_thread_counts_agree(self, tmp_path):
        config = write_config(tmp_path / "config.json", trials=3)
        outputs = []
        for threads in ("1", "2"):
            run_cli(["rmse", "--config", str(config), "--target", "f2"], tmp_path / threads,
                    threads)
            outputs.append(tmp_path / threads / "rmse.csv")
            assert_table_matches(outputs[-1], PINNED / "rmse_f2_trials3.csv")
        assert_table_matches(outputs[0], outputs[1])
