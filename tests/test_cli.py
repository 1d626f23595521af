"""End-to-end checks of the command-line entry points."""

import csv
import json

import pytest

from gradpce.cli import build_parser, main


def write_config(path, **overrides):
    path.write_text(json.dumps(overrides))
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


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


    @pytest.mark.parametrize("measure, message", [
        ("jacobi(inf,0)", "error: Jacobi parameters must be finite"),
        ("jacobi(1e308,0)", "error: "),
    ])
    def test_bad_jacobi_exponents_end_in_one_error_line(self, measure, message, capsys):
        code = main(["diagnose", "--measure", measure])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(message)


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

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["recover", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
