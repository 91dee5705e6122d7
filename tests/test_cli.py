import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sropo
import sropo.cli
import sropo.dispersion
import sropo.errors
import sropo.trace
from sropo import FrequencyTriple, load_scenario, transit_time_diff
from sropo.cli import COMMANDS, main
from sropo.correlations import g2_grid
from sropo.names import SHOWN_CHARACTERS, format_float
from sropo.numerics import MAX_GRID_POINTS
from sropo.peaks import measure_peaks, nearest_peak
from sropo.spectra import g1_grid
from sropo.trace import write_table_csv
from conftest import CONFIG_DIR, GAMMA, ROUND_TRIP, scenario_dict
from helpers import read_table_csv


T_FIELDS = "crystal.length_l, crystal.dispersion_signal, cavity.resonator_length_Lr"


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sropo", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    return write_config(tmp, scenario_dict())


class TestRunBasics:
    def test_scales_summary_line(self, config_path, tmp_path):
        result = run_cli("scales", "--config", str(config_path), "--out", str(tmp_path))
        assert result.returncode == 0
        line = result.stdout.strip().splitlines()[-1]
        assert line.startswith("tau0=") and "regime=pass" in line
        payload = json.loads((tmp_path / "scales.json").read_text())
        assert payload["tau0_s"] == pytest.approx(3.3356409519815163e-12, rel=1e-12)
        assert payload["regime"]["ok"] is True
        assert payload["resonance_mode_number"] > 0

    def test_scales_bisects_a_phase_matched_root(self, tmp_path, monkeypatch):
        # configs/phase_matched.json's scan lands exactly on its root,
        # omega_s = 2.0e15, and _bisect returns that scan point without a
        # step.  From 1.81e15 the root falls strictly between two scan points.
        data = json.loads((CONFIG_DIR / "phase_matched.json").read_text())
        data["frequencies"]["bracket"] = [1.81e15, 2.2e15]
        bisect, roots = sropo.dispersion._bisect, []

        def spy(f, a, b):
            roots.append((bisect(f, a, b), f, a, b))
            return roots[-1][0]

        monkeypatch.setattr(sropo.dispersion, "_bisect", spy)
        config = write_config(tmp_path, data)
        assert main(["scales", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(roots) == 1
        root, mismatch, a, b = roots[0]
        assert a < root < b
        assert root == pytest.approx(2.0e15, rel=1e-12)
        crystal = load_scenario(CONFIG_DIR / "phase_matched.json").crystal
        k_p = sropo.dispersion.wavenumber(crystal.dispersion_pump, 3.5e15)
        assert abs(mismatch(root)) <= 1e-12 * k_p
        at_root = FrequencyTriple.from_pump_and_signal(3.5e15, 2.0e15)
        payload = json.loads((tmp_path / "out" / "scales.json").read_text())
        assert payload["tau0_s"] == pytest.approx(transit_time_diff(crystal, at_root),
                                                  rel=1e-10)

    def test_check_regime_pass(self, config_path, tmp_path):
        result = run_cli(
            "check-regime", "--config", str(config_path), "--out", str(tmp_path)
        )
        assert result.returncode == 0
        payload = json.loads((tmp_path / "regime.json").read_text())
        assert payload["ok"] is True
        assert len(payload["checks"]) == 3

    def test_rate_both_methods(self, config_path, tmp_path):
        result = run_cli(
            "rate", "--config", str(config_path), "--out", str(tmp_path),
            "--method", "both",
        )
        assert result.returncode == 0
        payload = json.loads((tmp_path / "rate.json").read_text())
        ratio = payload["kappa_mode_sum_per_s"] / payload["kappa_continuum_per_s"]
        assert ratio == pytest.approx(1.0, rel=0.01)

    def test_g2_compact_peak_heights(self, config_path, tmp_path):
        result = run_cli(
            "g2", "--tier", "compact", "--config", str(config_path),
            "--out", str(tmp_path), "--peaks", "3",
        )
        assert result.returncode == 0
        comments, names, cols = read_table_csv(tmp_path / "g2_compact.csv")
        assert names == ["tau_seconds", "g2_value"]
        tau, values = cols
        peaks = measure_peaks(tau, values, floor=0.02)
        tau0 = 3.3356409519815163e-12
        for j, expected in [(0, 1.0), (1, math.exp(-GAMMA * ROUND_TRIP)),
                            (2, math.exp(-2 * GAMMA * ROUND_TRIP))]:
            peak = nearest_peak(peaks, j * ROUND_TRIP - tau0 / 2)
            assert peak.height == pytest.approx(expected, rel=1e-9)
        assert any("scenario_hash" in c for c in comments)
        assert any("regime" in c for c in comments)

    def test_spectrum_idler_peaks_at_minus_m_fsr(self, config_path, tmp_path):
        result = run_cli(
            "spectrum", "--field", "idler", "--config", str(config_path),
            "--out", str(tmp_path), "--window-modes", "4.5", "--m-max", "30",
        )
        assert result.returncode == 0
        _, _, (detuning, values) = read_table_csv(tmp_path / "spectrum_idler.csv")
        fsr = 2 * math.pi / ROUND_TRIP
        peaks = measure_peaks(detuning, values, floor=0.5)
        spacing = detuning[1] - detuning[0]
        for m in range(-4, 5):
            peak = nearest_peak(peaks, -m * fsr)
            assert abs(peak.center - (-m * fsr)) <= spacing

    def test_g1_emits_complex_columns(self, config_path, tmp_path):
        result = run_cli(
            "g1", "--field", "signal", "--config", str(config_path),
            "--out", str(tmp_path), "--m-max", "5",
        )
        assert result.returncode == 0
        _, names, cols = read_table_csv(tmp_path / "g1_signal.csv")
        assert names == ["tau_seconds", "re_value", "im_value"]
        tau, re, im = cols
        i0 = int(np.argmin(np.abs(tau)))
        assert re[i0] == pytest.approx(1.0, abs=1e-12)

    def test_wavefunction_export(self, config_path, tmp_path):
        result = run_cli(
            "wavefunction", "--config", str(config_path), "--out", str(tmp_path),
            "--modes", "3", "--halfwidth-gammas", "10", "--points-per-mode", "321",
        )
        assert result.returncode == 0
        comments, names, cols = read_table_csv(tmp_path / "wavefunction.csv")
        assert names == ["m", "Omega", "re_psi", "im_psi"]
        m_col, omega, re, im = cols
        assert set(np.unique(m_col)) == {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}
        assert any("normalization_N" in c for c in comments)

    def test_json_format(self, config_path, tmp_path):
        result = run_cli(
            "g2", "--tier", "compact", "--config", str(config_path),
            "--out", str(tmp_path), "--format", "json", "--peaks", "2",
        )
        assert result.returncode == 0
        payload = json.loads((tmp_path / "g2_compact.json").read_text())
        assert payload["columns"] == ["tau_seconds", "g2_value"]
        assert payload["meta"]["tier"] == "compact"
        assert len(payload["data"]) > 100
        # json mirrors the csv data bit-exactly
        run_cli(
            "g2", "--tier", "compact", "--config", str(config_path),
            "--out", str(tmp_path), "--format", "csv", "--peaks", "2",
        )
        _, _, (tau, values) = read_table_csv(tmp_path / "g2_compact.csv")
        rows = np.array(payload["data"])
        assert np.array_equal(rows[:, 0], tau)
        assert np.array_equal(rows[:, 1], values)

    def test_plot_emits_svg(self, config_path, tmp_path):
        result = run_cli(
            "g2", "--tier", "compact", "--config", str(config_path),
            "--out", str(tmp_path), "--plot", "--peaks", "2",
        )
        assert result.returncode == 0
        svg = (tmp_path / "g2_compact.svg").read_text()
        assert svg.startswith("<svg") and "<polyline" in svg


class TestGridFlags:
    def test_g1_window_gammas_applies_with_or_without_points(self, tmp_path):
        config = CONFIG_DIR / "g2_comb.json"
        scales = load_scenario(config).scales
        grid = g1_grid(scales, 3.0)
        files = []
        for points in ([], ["--points", str(grid.size)]):
            out = tmp_path / str(len(points))
            assert main(["g1", "--config", str(config), "--field", "idler",
                         "--window-gammas", "3", *points, "--out", str(out)]) == 0
            files.append((out / "g1_idler.csv").read_bytes())
        assert files[0] == files[1]
        _, _, (tau, _, _) = read_table_csv(tmp_path / "0" / "g1_idler.csv")
        assert np.array_equal(tau, grid)
        assert tau[-1] == -tau[0] == 3.0 / scales.gamma

    def test_spectrum_window_modes_rounds_as_the_default_window(self, tmp_path):
        # gamma/fsr = 0.05, so 2.5 fsr at 24 points per gamma is 1200 a side.
        config = CONFIG_DIR / "g2_comb.json"
        assert main(["spectrum", "--config", str(config), "--field", "signal",
                     "--window-modes", "2.5", "--out", str(tmp_path)]) == 0
        _, _, (detuning, _) = read_table_csv(tmp_path / "spectrum_signal.csv")
        assert detuning.size == 2401

    def test_g2_grid_rule(self, tmp_path):
        # Comb tiers: -2|tau0| - T/8 to peaks*T + 2|tau0|, the fewest uniform steps
        # of at most |tau0|/12.  T = 116|tau0| up to rounding, so the span is
        # 8574 such steps and a hair more, which the ceiling makes 8575.
        s = load_scenario(CONFIG_DIR / "g2_comb.json").scales
        T, t0 = s.round_trip_T, abs(s.tau0)
        tau = g2_grid(s, "series", 6)
        assert (tau[0], tau[-1], tau.size) == (-2 * t0 - T / 8, 6 * T + 2 * t0, 8576)
        span = tau[-1] - tau[0]
        assert span / (tau.size - 1) <= t0 / 12 < span / (tau.size - 2)
        # Averaged tier: -3 dT to peaks*T + 2|tau0| in steps of at most dT/16.
        s = load_scenario(CONFIG_DIR / "detector_averaged.json").scales
        dt = 7.74e-12
        tau = g2_grid(s, "averaged", 5, dt)
        stop = 5 * s.round_trip_T + 2 * abs(s.tau0)
        assert (tau[0], tau[-1], tau.size) == (-3 * dt, stop, 4050)
        span = tau[-1] - tau[0]
        assert span / (tau.size - 1) <= dt / 16 < span / (tau.size - 2)
        # The CLI writes exactly this axis.
        config = CONFIG_DIR / "g2_comb.json"
        assert main(["g2", "--config", str(config), "--tier", "series", "--peaks", "6",
                     "--out", str(tmp_path)]) == 0
        _, _, (axis, _) = read_table_csv(tmp_path / "g2_series.csv")
        want = g2_grid(load_scenario(config).scales, "series", 6)
        assert np.array_equal(axis.view(np.int64), want.view(np.int64))


class TestErrorPaths:
    def test_missing_config_is_config_error(self, tmp_path):
        result = run_cli("scales", "--config", str(tmp_path / "nope.json"))
        assert result.returncode == 1
        assert "error: exit=1" in result.stdout

    def test_invalid_config_is_config_error(self, tmp_path):
        data = scenario_dict()
        data["cavity"]["resonator_length_Lr"] = 0.001
        path = write_config(tmp_path, data)
        result = run_cli("scales", "--config", str(path))
        assert result.returncode == 1
        assert "resonator_length_Lr" in result.stdout

    def test_degenerate_rate_is_numeric_error(self, tmp_path):
        data = scenario_dict(idler_n=1.8)  # tau0 = 0
        path = write_config(tmp_path, data)
        result = run_cli(
            "rate", "--config", str(path), "--out", str(tmp_path), "--method",
            "continuum",
        )
        assert result.returncode == 2
        assert "error: exit=2" in result.stdout

    def test_bisection_past_its_step_cap_is_numeric_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scales", "--config", str(write_config(tmp_path, _bisection_cap())),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: exit=2 type=NonConvergenceError: ")
        assert not out.exists()

    def test_strict_regime_exit_code(self, tmp_path):
        data = scenario_dict(gamma=0.5 * 2 * math.pi / ROUND_TRIP)  # gamma/fsr = 0.5
        path = write_config(tmp_path, data)
        result = run_cli(
            "scales", "--config", str(path), "--out", str(tmp_path),
            "--strict-regime",
        )
        assert result.returncode == 3
        assert "error: exit=3" in result.stdout
        # without the flag the same scenario runs fine
        result = run_cli("scales", "--config", str(path), "--out", str(tmp_path))
        assert result.returncode == 0

    def test_averaged_without_resolution(self, config_path, tmp_path):
        result = run_cli(
            "g2", "--tier", "averaged", "--config", str(config_path),
            "--out", str(tmp_path),
        )
        assert result.returncode == 1

    @pytest.mark.parametrize("args, name", [
        (["scales"], "scales.json"), (["spectrum", "--field", "idler"], "spectrum_idler.csv"),
    ])
    @pytest.mark.parametrize("where, error", [
        ("a file", "FileExistsError"),
        ("under a file", "NotADirectoryError"),
        ("an output file that is a directory", "IsADirectoryError"),
    ])
    def test_unusable_out_is_config_error(self, config_path, tmp_path, capsys, args,
                                          name, where, error):
        blocker = tmp_path / "file"
        blocker.write_text("kept", encoding="ascii")
        out = {"a file": blocker, "under a file": blocker / "sub",
               "an output file that is a directory": tmp_path / "out"}[where]
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main([*args, "--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith(f"error: exit=1 type={error}: --out: ")
        assert blocker.read_text(encoding="ascii") == "kept"

    @pytest.mark.parametrize("table_existed", [False, True])
    def test_unopenable_plot_leaves_no_file_the_run_created(self, tmp_path, capsys,
                                                           table_existed):
        out = tmp_path / "out"
        (out / "spectrum_idler.svg").mkdir(parents=True)
        (out / "kept.txt").write_text("kept", encoding="ascii")
        before = {"kept.txt", "spectrum_idler.svg"}
        if table_existed:
            (out / "spectrum_idler.csv").write_text("old", encoding="ascii")
            before.add("spectrum_idler.csv")
        argv = ["spectrum", "--config", str(CONFIG_DIR / "spectrum_comb.json"), "--field",
                "idler", "--out", str(out), "--plot"]
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith(
            "error: exit=1 type=IsADirectoryError: --out: ")
        assert {path.name for path in out.iterdir()} == before
        assert (out / "spectrum_idler.svg").is_dir() and not any(
            (out / "spectrum_idler.svg").iterdir())
        assert (out / "kept.txt").read_text(encoding="ascii") == "kept"
        if table_existed:  # written whole by the run, never left truncated
            comments, names, _ = read_table_csv(out / "spectrum_idler.csv")
            assert names == ["detuning_rad_per_s", "value"] and comments

    G1_ARGV = ["g1", "--config", str(CONFIG_DIR / "spectrum_comb.json"), "--field", "idler"]

    def test_mirrored_table_leaves_no_scratch_file(self, tmp_path, capsys, monkeypatch):
        # The upper half's text goes to an unnamed scratch file in --out.
        mirrored = []
        real = sropo.trace._mirror_rows

        def spy(columns):
            mirrored.append(real(columns))
            return mirrored[-1]

        monkeypatch.setattr(sropo.trace, "_mirror_rows", spy)
        out = tmp_path / "out"
        assert main([*self.G1_ARGV, "--out", str(out)]) == 0
        assert mirrored[0] > 0
        assert [path.name for path in out.iterdir()] == ["g1_idler.csv"]

    def test_failed_mirrored_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # The disk fills while the upper half is formatted, in its second chunk.
        sizes = []
        real = sropo.trace._format_rows

        def failing(columns, row, sep, convert=None):
            sizes.append(len(columns[0]))
            chunks = real(columns, row, sep, convert)

            def fail():
                yield next(chunks)
                raise OSError(28, "No space left on device")
            return fail()

        monkeypatch.setattr(sropo.trace, "_format_rows", failing)
        out = tmp_path / "out"
        assert main([*self.G1_ARGV, "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("error: exit=1 type=OSError: --out: ")
        assert sizes[1] == sizes[0] // 2  # the upper half, so the mirrored path
        assert not any(out.iterdir())

    def test_output_directory_naming_a_file_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept", encoding="ascii")
        path = write_config(tmp_path, scenario_dict(output={"directory": str(blocker)}))
        assert main(["scales", "--config", str(path)]) == 1
        assert capsys.readouterr().out.startswith(
            "error: exit=1 type=FileExistsError: output.directory: ")
        assert blocker.read_text(encoding="ascii") == "kept"

    @pytest.mark.parametrize("directory", [None, 5, ["a"]])
    def test_output_directory_that_is_no_string_is_config_error(self, tmp_path, capsys,
                                                                monkeypatch, directory):
        # str() of these made a directory "None", "5" or "['a']"
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, scenario_dict(output={"directory": directory}))
        assert main(["scales", "--config", str(path)]) == 1
        assert capsys.readouterr().out == ("error: exit=1 type=ScenarioValidationError: "
                                           f"output.directory: must be a string, got {directory!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["g2", "--tier", "series", "--peaks", "-3"], "--peaks"),
            (["g1", "--field", "idler", "--points", "1"], "--points"),
            (["g2", "--tier", "compact", "--points", "1"], "--points"),
            (["spectrum", "--field", "idler", "--points", "1"], "--points"),
            (["g1", "--field", "idler", "--m-max", "-1"], "--m-max"),
            (["spectrum", "--field", "idler", "--m-max", "-1"], "--m-max"),
            (["g2", "--tier", "series", "--m-max", "0"], "--m-max"),
            (["g2", "--tier", "exact", "--m-max", "0"], "--m-max"),
            (["wavefunction", "--modes", "0"], "--modes"),
            (["g2", "--tier", "averaged", "--resolution", "-1"], "--resolution"),
            (["g1", "--field", "idler", "--window-gammas", "-1"], "--window-gammas"),
            (["g1", "--field", "idler", "--window-gammas", "nan"], "--window-gammas"),
            (["spectrum", "--field", "idler", "--window-modes", "0"], "--window-modes"),
            (["wavefunction", "--halfwidth-gammas", "9.5"], "--halfwidth-gammas"),
            (["wavefunction", "--halfwidth-gammas", "nan"], "--halfwidth-gammas"),
            (["wavefunction", "--points-per-mode", "1"], "--points-per-mode"),
            # integers past the float range
            (["g2", "--tier", "compact", "--peaks", "1" + "0" * 399], "--peaks"),
            (["g2", "--tier", "compact", "--points", "1" + "0" * 399], "--points"),
            (["spectrum", "--field", "idler", "--m-max", "1" + "0" * 399], "--m-max"),
            (["wavefunction", "--modes", "1" + "0" * 399], "--modes"),
        ],
    )
    def test_flag_out_of_range_is_config_error(self, config_path, tmp_path, capsys, args,
                                               flag):
        # The parser checks types only; the library's rule refuses the value.
        assert main([*args, "--config", str(config_path), "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: exit=1 type=ScenarioValidationError: ")
        assert f"({flag}) must be " in out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["g2", "--tier", "series", "--peaks", "two"], "--peaks"),
            (["g1", "--field", "idler", "--points", "2.5"], "--points"),
            (["wavefunction", "--halfwidth-gammas", "wide"], "--halfwidth-gammas"),
        ],
    )
    def test_flag_that_does_not_parse_is_argument_error(self, config_path, tmp_path, capsys,
                                                         args, flag):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--config", str(config_path), "--out", str(tmp_path)])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert out.startswith("error: exit=1 type=ArgumentError: ")
        assert f"argument {flag}:" in out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["scales", "check-regime", "rate", "wavefunction"])
    def test_plot_is_a_flag_of_the_trace_commands_only(self, config_path, tmp_path, capsys,
                                                       command):
        # A report or a table has no trace to plot: argparse refuses the flag.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--plot", "--config", str(config_path), "--out", str(out)])
        assert exc.value.code == 1
        assert capsys.readouterr().out == (
            "error: exit=1 type=ArgumentError: unrecognized arguments: --plot\n")
        assert not out.exists()
        for name in (command, "spectrum", "g1", "g2"):
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            assert ("--plot" in capsys.readouterr().out) is (name != command)

    @pytest.mark.parametrize(
        "config, args, flag",
        [
            ("g2_comb", ["--tier", "compact", "--m-max", "5"], "--m-max"),
            ("detector_averaged",
             ["--tier", "averaged", "--resolution", "7.74e-12", "--m-max", "5"], "--m-max"),
            ("g2_comb", ["--tier", "series", "--resolution", "1e-11"], "--resolution"),
            ("g2_comb", ["--tier", "exact", "--resolution", "1e-11"], "--resolution"),
            ("g2_comb", ["--tier", "compact", "--resolution", "1e-11"], "--resolution"),
            # refused before a grid of any size is built
            ("g2_comb", ["--tier", "compact", "--peaks", "100000000000000",
                         "--resolution", "1e-12"], "--resolution"),
        ],
    )
    def test_g2_refuses_a_tier_flag_its_tier_does_not_read(self, tmp_path, capsys,
                                                           monkeypatch, config, args, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("grid built for a refused flag")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "out"
        argv = ["g2", *args, "--config", str(CONFIG_DIR / f"{config}.json"), "--out", str(out)]
        assert main(argv) == 1
        text = capsys.readouterr().out
        assert text.startswith(
            f"error: exit=1 type=ScenarioValidationError: {flag}: g2 --tier {args[1]} ")
        assert not out.exists()

    def test_rate_has_no_mode_truncation_flag(self, config_path, tmp_path, capsys):
        # The rate is the full mode sum in closed form; there is no M to set.
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--m-max", "5", "--config", str(config_path),
                  "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --m-max 5" in capsys.readouterr().out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, given",
        [
            (["spectrum", "--field", "idler", "--points", "5"], "--points 5"),
            (["spectrum", "--field", "idler", "--window-modes", "3", "--points", "500"],
             "--window-modes 3.0 --points 500"),
            (["g1", "--field", "idler", "--points", "3"], "--points 3"),
            (["g2", "--tier", "series", "--points", "3"], "--points 3"),
            (["wavefunction", "--points-per-mode", "300"], "--points-per-mode 300"),
        ],
    )
    def test_too_coarse_grid_names_its_flags(self, config_path, tmp_path, capsys, args,
                                             given):
        argv = [*args, "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: exit=2 type=GridTooCoarseError: {given}: ")

    @pytest.mark.parametrize(
        "args, code",
        [
            (["g2", "--tier", "series", "--points", "3"], 2),  # grid too coarse
            (["g2", "--tier", "averaged"], 1),  # no --resolution
        ],
    )
    def test_failed_run_leaves_no_out_directory(self, tmp_path, capsys, args, code):
        out = tmp_path / "out"
        config = str(CONFIG_DIR / "g2_comb.json")
        assert main([*args, "--config", config, "--out", str(out)]) == code
        assert f"error: exit={code}" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("tier", ["exact", "series", "compact", "averaged"])
    def test_g2_at_zero_tau0(self, tmp_path, capsys, tier):
        # Comb tiers cannot sample peaks of zero width; the averaged tier can.
        path = write_config(tmp_path, scenario_dict(idler_n=1.8))  # tau0 = 0
        out = tmp_path / "out"
        argv = ["g2", "--config", str(path), "--tier", tier, "--out", str(out)]
        if tier == "averaged":
            assert main([*argv, "--resolution", "7.74e-12"]) == 0
            assert (out / "g2_averaged.csv").is_file()
            return
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith(
            "error: exit=2 type=DegenerateGroupVelocityError: tau0 = 0")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, needs",
        [
            (["spectrum"], "--window-modes"),
            (["spectrum", "--m-max", "10"], "--window-modes"),
            (["spectrum", "--window-modes", "3"], "--m-max"),
            (["spectrum", "--window-modes", "3", "--m-max", "10"], None),
            (["g1"], "--m-max"),
            (["g1", "--m-max", "10"], None),
        ],
    )
    def test_envelope_flags_at_zero_tau0(self, tmp_path, capsys, args, needs):
        # The sinc^2 envelope has no zero, so the flag it would set is required.
        path = write_config(tmp_path, scenario_dict(idler_n=1.8))  # tau0 = 0
        out = tmp_path / "out"
        argv = [*args, "--field", "idler", "--config", str(path), "--out", str(out)]
        if needs is None:
            assert main(argv) == 0
            assert out.is_dir()
            return
        assert main(argv) == 2
        assert capsys.readouterr().out == (
            "error: exit=2 type=DegenerateGroupVelocityError: tau0 = 0: the envelope "
            f"has no zero; pass {needs[2:].replace('-', '_')} ({needs})\n")
        assert not out.exists()

    def test_spectrum_refuses_unit_at_zero_normalization(self, tmp_path, capsys):
        data = scenario_dict()
        data["output"]["normalization"] = "unit_at_zero"
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["spectrum", "--field", "idler", "--config", str(path),
                     "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: exit=1 type=ScenarioValidationError: "
                               "output.normalization: must be one of peak_unity, "
                               "unit_integral")
        assert not out.exists()

    def test_non_finite_scenario_number_is_config_error(self, tmp_path, capsys):
        data = scenario_dict()
        data["crystal"]["length_l"] = float("nan")
        path = write_config(tmp_path, data)  # json writes the NaN literal
        assert main(["scales", "--config", str(path), "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ScenarioValidationError" in out and "crystal.length_l" in out
        assert not (tmp_path / "scales.json").exists()


    @pytest.mark.parametrize("argv, where", [
        (["spectrum", "--field", "idler", "--window-modes", "5e-324", "--points", "2001"],
         f"{T_FIELDS}, --window-modes, --points: derived detuning spacing"),
        (["spectrum", "--field", "idler", "--window-modes", "5e-324"],
         f"{T_FIELDS}, cavity.loss_rate_gamma, --window-modes: derived detuning spacing"),
        (["g1", "--field", "idler", "--window-gammas", "1e-300", "--points", "2001"],
         "cavity.loss_rate_gamma, --window-gammas, --points: derived delay spacing"),
        (["g1", "--field", "idler", "--window-gammas", "1e-300"],
         "cavity.loss_rate_gamma, crystal.length_l, crystal.dispersion_signal, "
         "crystal.dispersion_idler, cavity.resonator_length_Lr, --window-gammas: "
         "derived delay spacing"),
        (["g1", "--field", "idler", "--window-gammas", "1e-300", "--m-max", "3"],
         f"cavity.loss_rate_gamma, {T_FIELDS}, --window-gammas, --m-max: derived delay spacing"),
    ], ids=["spectrum-points", "spectrum", "g1-points", "g1", "g1-m-max"])
    def test_grid_too_fine_to_be_uniform_is_config_error(self, tmp_path, capsys, argv, where):
        # a subnormal spacing: linspace's step rounds by up to half of 5e-324,
        # which 2000 steps add up past the grid check's tolerance; the grid
        # builder refuses any spacing below the normal range, naming the
        # fields of the scales it comes from and the flags given
        out = tmp_path / "out"
        config = CONFIG_DIR / "spectrum_comb.json"
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert re.fullmatch(rf"error: exit=1 type=ScenarioValidationError: "
                            rf"{re.escape(where)} must be at least 2\.22507e-308, "
                            rf"got [0-9.]+e-3[0-9][0-9]\n", text), text
        assert not out.exists()

    @pytest.mark.parametrize("edits, argv, line", [
        ([], ["--window-modes", "1e308"],
         f"{T_FIELDS}, --window-modes: derived detuning span must be finite, got inf"),
        ([("crystal", "length_l", 1e-302)], [],
         "crystal.length_l, crystal.dispersion_signal, crystal.dispersion_idler, "
         "cavity.resonator_length_Lr: derived detuning span must be finite, got inf"),
    ], ids=["window-given", "envelope-default"])
    def test_span_refusal_names_only_its_inputs(self, tmp_path, capsys, edits, argv, line):
        # span = window * fsr * 2: tau0's fields only for the envelope's
        # default window, --window-modes only when given
        data = _config_with("spectrum_comb", *edits)
        out = tmp_path / "out"
        assert main(["spectrum", "--field", "idler", *argv, "--config",
                     str(write_config(tmp_path, data)), "--out", str(out)]) == 1
        assert capsys.readouterr().out == (
            f"error: exit=1 type=ScenarioValidationError: {line}\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit, where", [
        (lambda text: text.replace("0.05", "[" * 900 + "0.05" + "]" * 900, 1),
         "cavity.resonator_length_Lr must be a real number"),
        (lambda text: json.dumps(_config_with(
            "phase_matched", ("crystal", "dispersion_signal", "parameters", [1.5] * 100_000))),
         "crystal.dispersion_signal.parameters must be a list of length 2"),
    ], ids=["nested-900", "list-100000"])
    def test_refusal_clips_a_large_value(self, tmp_path, capsys, edit, where):
        # printed whole, the two values made lines of 1,902 and 500,113 characters
        text = (CONFIG_DIR / "phase_matched.json").read_text()
        path = tmp_path / "large.json"
        path.write_text(edit(text))
        assert main(["scales", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        line = capsys.readouterr().out
        assert line.startswith(f"error: exit=1 type=ScenarioValidationError: {where}, got ")
        assert re.search(r"\.\.\. \(\d+ characters\)\n$", line)
        assert len(line) <= len(f"error: exit=1 type=ScenarioValidationError: {where}, got "
                                f"... (500000 characters)\n") + SHOWN_CHARACTERS


ERROR_CLASSES = [cls for cls in vars(sropo.errors).values()
                 if isinstance(cls, type) and issubclass(cls, sropo.SropoError)]


def test_error_classes_carry_their_exit_codes():
    config_errors = {"ScenarioParseError", "ScenarioValidationError"}
    assert sropo.SropoError in ERROR_CLASSES
    for cls in ERROR_CLASSES:
        assert cls.exit_code == (1 if cls.__name__ in config_errors else 2), cls


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("argv", [["scales"], ["g1", "--field", "idler", "--points", "7"]],
                         ids=["scales", "g1-points"])
def test_main_exits_with_the_class_exit_code(monkeypatch, tmp_path, capsys, error, argv):
    """Any library error a runner raises ends the run with its class's
    exit_code and one typed line; only GridTooCoarseError names the grid flags."""
    def refuse(args, config):
        raise error("refused")

    help_text, flags, _ = COMMANDS[argv[0]]
    monkeypatch.setitem(COMMANDS, argv[0], (help_text, flags, refuse))
    out = tmp_path / "out"
    code = main([*argv, "--config", str(CONFIG_DIR / "g2_comb.json"), "--out", str(out)])
    assert code == error.exit_code
    given = "--points 7: " if error is sropo.GridTooCoarseError and "--points" in argv else ""
    assert capsys.readouterr().out == (
        f"error: exit={code} type={error.__name__}: {given}refused\n")
    assert not out.exists()


def _bisection_cap():
    """phase_matched.json with a phase-match root near 7.8e-291 rad/s, which
    the bisection's absolute tolerance of 1e-300 cannot reach in 200 steps."""
    def constant(n, low=1e14):
        return {"kind": "constant", "parameters": [n], "validity_range": [low, 1e16]}
    return _config_with("phase_matched", ("crystal", "dispersion_idler", constant(1.5)),
                        ("crystal", "dispersion_pump", constant(1.5000000000000002)),
                        ("crystal", "dispersion_signal", constant(1e290, 1e-310)),
                        ("frequencies", "bracket", [1e-300, 1e15]))


# One run per exit code: (argv before --config, the scenario it reads).
EXIT_RUNS = {
    0: (["scales"], lambda: _config_with("g2_comb")),
    1: (["g2", "--tier", "compact", "--points", "1"], lambda: _config_with("g2_comb")),
    2: (["scales"], _bisection_cap),
    3: (["scales", "--strict-regime"],  # gamma/fsr = 0.5
        lambda: scenario_dict(gamma=0.5 * 2 * math.pi / ROUND_TRIP)),
}


class TestProcessExit:
    """``python -m sropo`` ends through ``cli.run``: flush, then ``os._exit``.
    The children run with stdout buffered, as by default, so that a lost flush
    loses the summary line."""

    ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}

    @pytest.mark.parametrize("stdout", ["pipe", "file"])
    @pytest.mark.parametrize("code", sorted(EXIT_RUNS))
    def test_process_prints_and_exits_as_main(self, tmp_path, capsys, code, stdout):
        argv, data = EXIT_RUNS[code]
        argv = [*argv, "--config", str(write_config(tmp_path, data())),
                "--out", str(tmp_path / "out")]
        assert main(argv) == code
        expected = capsys.readouterr().out
        assert len(expected.splitlines()) == 1
        command = [sys.executable, "-m", "sropo", *argv]
        if stdout == "pipe":
            result = subprocess.run(command, capture_output=True, text=True, env=self.ENV)
            printed = result.stdout
        else:
            log = tmp_path / "stdout.txt"
            with open(log, "w", encoding="utf-8") as sink:
                result = subprocess.run(command, stdout=sink, stderr=subprocess.PIPE,
                                        text=True, env=self.ENV)
            printed = log.read_text(encoding="utf-8")
        assert (result.returncode, printed, result.stderr) == (code, expected, "")

    # argv[1]: a file the atexit hook writes; argv[2]: "run" or "exit", how
    # the child ends; argv[3]: "refuse" to give it a stdout whose flush fails,
    # or the name of an exception its scales runner raises.
    CHILD = """if True:
        import atexit, builtins, errno, pathlib, sys
        from sropo import cli

        atexit.register(pathlib.Path(sys.argv[1]).write_text, "teardown ran")

        class FlushRefused:
            def __init__(self, stream):
                self.stream = stream

            def write(self, text):
                return self.stream.write(text)

            def flush(self):
                raise OSError(errno.EPIPE, "flush refused")

        def crash(args, config):
            raise getattr(builtins, fault)("crashed")

        ending, fault, sys.argv = sys.argv[2], sys.argv[3], ["sropo", *sys.argv[4:]]
        if fault == "refuse":
            sys.stdout = FlushRefused(sys.stdout)
        elif fault != "keep":
            cli.COMMANDS["scales"] = (*cli.COMMANDS["scales"][:2], crash)
        cli.run() if ending == "run" else sys.exit(cli.main())
    """

    def _child(self, tmp_path, ending, fault):
        hook = tmp_path / f"hook-{ending}-{fault}"
        argv = ["scales", "--config", str(CONFIG_DIR / "g2_comb.json"),
                "--out", str(tmp_path / "out")]
        result = subprocess.run([sys.executable, "-c", self.CHILD, str(hook), ending, fault,
                                 *argv], capture_output=True, text=True, env=self.ENV)
        return result, hook.exists()

    def test_run_skips_the_teardown(self, tmp_path):
        result, hooked = self._child(tmp_path, "run", "keep")
        assert (result.returncode, result.stderr, hooked) == (0, "", False)
        assert re.fullmatch(r"tau0=\S+ T=.* wrote=\S+scales\.json\n", result.stdout)

    def test_failed_flush_leaves_through_sys_exit(self, tmp_path):
        result, hooked = self._child(tmp_path, "run", "refuse")
        former, hooked_former = self._child(tmp_path, "exit", "refuse")
        assert hooked and hooked_former
        assert (result.returncode, result.stdout) == (former.returncode, former.stdout)
        assert result.returncode != 0  # the teardown's flush fails too
        assert "Error: [Errno 32] flush refused" in result.stderr

    def test_crash_exits_4_with_its_traceback(self, tmp_path):
        result, hooked = self._child(tmp_path, "run", "ZeroDivisionError")
        assert (result.returncode, hooked) == (4, False)
        assert result.stdout == "error: exit=4 type=ZeroDivisionError: crashed\n"
        assert result.stderr.startswith("Traceback (most recent call last):\n")
        assert result.stderr.endswith("\nZeroDivisionError: crashed\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ending", ["run", "exit"])
    def test_interrupt_leaves_as_before(self, tmp_path, ending):
        result, hooked = self._child(tmp_path, ending, "KeyboardInterrupt")
        assert (result.returncode, result.stdout, hooked) == (-2, "", True)
        assert result.stderr.endswith("\nKeyboardInterrupt: crashed\n")


def _config_with(name, *edits):
    """A shipped config with each (key, ..., key, value) edit applied."""
    data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    for *keys, value in edits:
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return data


def _strict_json(path):
    """The file's JSON; a NaN or Infinity literal in it fails the test."""
    def refuse(literal):
        raise AssertionError(f"{path.name} holds the non-JSON literal {literal}")
    return json.loads(path.read_text(encoding="ascii"), parse_constant=refuse)


class TestDerivedScales:
    # Each input over- or underflows one derived scale at a finite input.
    @pytest.mark.parametrize("command", [
        ["scales"], ["check-regime"], ["rate"], ["g2", "--tier", "compact"],
        ["g2", "--tier", "averaged", "--resolution", "7.74e-12"]])
    @pytest.mark.parametrize("block, key, value, scale", [
        ("crystal", "cross_section_A", 5e-324, "kappa"),  # its prefactor divides by 0
        ("cavity", "resonator_length_Lr", 1e308, "T"),  # T = inf, fsr = 0
        ("crystal", "chi", 1e308, "kappa"),  # kappa = inf
        ("crystal", "chi", 1e-300, "kappa"),  # kappa = 0
        ("cavity", "loss_rate_gamma", 5e-324, "gamma*T"),  # the echo count divides by 0
    ])
    def test_overflowing_scale_is_config_error(self, tmp_path, capsys, command, block,
                                               key, value, scale):
        path = write_config(tmp_path, _config_with("phase_matched", (block, key, value)))
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: exit=1 type=ScenarioValidationError: ")
        assert f"{block}.{key}" in lines[0] and f"derived {scale} must be " in lines[0]
        assert not out.exists()

    def test_overflow_prints_no_traceback(self, tmp_path):
        path = write_config(tmp_path, _config_with("phase_matched",
                                                    ("crystal", "cross_section_A", 5e-324)))
        result = run_cli("scales", "--config", str(path), "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert result.stdout.startswith("error: exit=1 type=ScenarioValidationError: ")
        assert result.stderr == ""

    def test_resonance_mode_number_overflow_is_config_error(self, tmp_path, capsys):
        # l = L_r = 1e300 keeps the five scales finite (T = 1.2e292 s), but
        # omega_s*n_s*l/(pi*c), which only scales reports, overflows
        data = _config_with("g2_comb", ("crystal", "length_l", 1e300),
                            ("cavity", "resonator_length_Lr", 1e300))
        out = tmp_path / "out"
        assert main(["scales", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "error: exit=1 type=ScenarioValidationError: crystal.length_l, "
            "crystal.dispersion_signal: derived resonance mode number must be finite, got inf"]
        assert not out.exists()

    def test_fsr_tau0_overflow_names_each_input_once(self, tmp_path, capsys):
        # l = L_r and an idler index of 1e308 make tau0 = 3.3e297 s and fsr =
        # 9.4e10 rad/s, both doubles; their product is not
        data = _config_with("g2_comb", ("crystal", "chi", 6e140),
                            ("crystal", "dispersion_signal", "kind", "constant"),
                            ("crystal", "dispersion_signal", "parameters", [1.0000001]),
                            ("crystal", "dispersion_idler", "kind", "constant"),
                            ("crystal", "dispersion_idler", "parameters", [1e308]),
                            ("cavity", "resonator_length_Lr", 0.01))
        out = tmp_path / "out"
        assert main(["scales", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: exit=1 type=ScenarioValidationError: ")
        for field in ("crystal.length_l", "crystal.dispersion_signal",
                      "crystal.dispersion_idler", "cavity.resonator_length_Lr"):
            assert lines[0].count(field) == 1, field
        assert "derived fsr*|tau0| must be finite, got inf" in lines[0]
        assert not out.exists()

    def test_report_is_serialised_before_its_directory_is_made(self, tmp_path):
        args = argparse.Namespace(out=str(tmp_path / "out"), format=None, plot=False)
        config = load_scenario(CONFIG_DIR / "g2_comb.json")
        with pytest.raises(ValueError, match="not JSON compliant"):
            sropo.cli._write(args, config, "report", {"value": math.inf})
        assert not (tmp_path / "out").exists()

    # A group index of 2**70 makes |tau0| = 3.9e10 s, so gamma*|tau0| = 3.2e19:
    # signal side tau0 < 0, idler side tau0 > 0.  The exact tier's values span
    # exp(gamma*|tau0|) and the series tier's exp(gamma*tau0) (tau >= -tau0),
    # past a double, and both refuse; with tau0 < 0 the series envelope is at
    # most 1 from the first allowed delay on, and that run writes its trace.
    @pytest.mark.parametrize("side, tier, code", [
        ("signal", "exact", 1), ("signal", "series", 0),
        ("idler", "exact", 1), ("idler", "series", 1),
    ])
    def test_huge_group_index_comb_tiers(self, tmp_path, capsys, side, tier, code):
        data = _config_with("spectrum_comb",
                            ("crystal", f"dispersion_{side}", "parameters", 0, 2**70))
        out = tmp_path / "out"
        assert main(["g2", "--tier", tier, "--peaks", "1", "--format", "json", "--config",
                     str(write_config(tmp_path, data)), "--out", str(out)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        if code == 0:
            table = _strict_json(out / f"g2_{tier}.json")
            values = [row[1] for row in table["data"]]
            assert max(values) == 1.0 and min(values) == 0.0
            return
        assert lines[0].startswith("error: exit=1 type=ScenarioValidationError: ")
        assert "crystal.dispersion_signal" in lines[0]
        assert "cavity.loss_rate_gamma" in lines[0]
        assert f"the {tier} tier's values span exp(" in lines[0]
        assert not out.exists()

    # A value the scales accept but a kernel cannot hold: gamma past
    # numerics.GAMMA_RANGE (its Lorentzian lines over- or underflow), a
    # default spectrum window of 6e303 fsr (length_l = 1e-302 makes tau0
    # subnormal), a resolution whose squares overflow, and resolutions whose
    # delay grid step underflows to 0 or whose grid start overflows.
    @pytest.mark.parametrize("name, edits, command, fields", [
        ("spectrum_comb", [("cavity", "loss_rate_gamma", 1.7e308)],
         ["spectrum", "--field", "idler"], ["cavity.loss_rate_gamma"]),
        ("spectrum_comb", [("cavity", "loss_rate_gamma", 1.7e308)],
         ["g1", "--field", "idler"], ["cavity.loss_rate_gamma"]),
        ("spectrum_comb", [("cavity", "loss_rate_gamma", 1.7e308)],
         ["wavefunction", "--format", "json"], ["cavity.loss_rate_gamma"]),
        ("detector_averaged", [("cavity", "loss_rate_gamma", 8.12e-292)],
         ["wavefunction"], ["cavity.loss_rate_gamma"]),
        ("spectrum_comb", [("crystal", "length_l", 1e-302)],
         ["spectrum", "--field", "idler", "--points", "2001"],
         ["crystal.dispersion_idler, cavity.resonator_length_Lr: derived detuning span"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "1e300"],
         ["--resolution"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "1e200"],
         ["--resolution"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "5e-324"],
         ["--resolution", "step must be above 0, got 0.0"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "1e308",
                                   "--points", "3"],
         ["--resolution", "start must be finite, got -inf"]),
    ], ids=["spectrum", "g1", "wavefunction-huge-gamma", "wavefunction-tiny-gamma",
            "spectrum-window", "averaged-1e300", "averaged-1e200", "averaged-step-underflow",
            "averaged-start-overflow"])
    def test_value_out_of_a_kernels_range_is_config_error(self, tmp_path, capsys, name,
                                                         edits, command, fields):
        path = write_config(tmp_path, _config_with(name, *edits))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: exit=1 type=ScenarioValidationError: ")
        assert all(field in lines[0] for field in fields)
        assert not out.exists()

    @pytest.mark.parametrize("name, edits, command, fields", [
        # the half-width, 9.7e307 rad/s, is a double; the span 2*half is not
        ("spectrum_comb", [], ["spectrum", "--field", "idler", "--window-modes", "6e297",
                               "--points", "3"],
         ["cavity.resonator_length_Lr", "--window-modes",
          "detuning span must be finite, got inf"]),
        ("spectrum_comb", [], ["spectrum", "--field", "idler", "--window-modes", "6e297"],
         ["cavity.resonator_length_Lr", "--window-modes",
          "detuning span must be finite, got inf"]),
        # at gamma = 0.5 rad/s the half-width is 1.2e308 s
        ("spectrum_comb", [("cavity", "loss_rate_gamma", 0.5)],
         ["g1", "--field", "idler", "--window-gammas", "6e307", "--points", "3"],
         ["cavity.loss_rate_gamma, --window-gammas", "delay span must be finite, got inf"]),
        # the averaged tier's grid: the start -3*dT is -1.8e308 s and the end
        # 1e307*T is 3.9e297 s, both doubles; the span between them is not
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution",
                                   "5.992310449541052e307", "--peaks", str(10**307),
                                   "--points", "3"],
         ["--peaks and --resolution", "delay grid span must be finite, got inf"]),
    ], ids=["spectrum-points", "spectrum", "g1-points", "g2-averaged-points"])
    def test_window_whose_span_overflows_is_config_error(self, tmp_path, capsys, name,
                                                         edits, command, fields):
        path = write_config(tmp_path, _config_with(name, *edits))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's own warnings too
            assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: exit=1 type=ScenarioValidationError: ")
        assert all(field in lines[0] for field in fields)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "g1"])
    def test_envelope_zero_mode_that_overflows_is_config_error(self, tmp_path, capsys,
                                                               command):
        # tau0 = 6.1e-307 s and fsr = 9.4e-4 rad/s are both doubles (scales
        # exits 0), but 2*pi/(fsr*|tau0|), the envelope's first zero, is not.
        path = write_config(tmp_path, _config_with(
            "spectrum_comb", ("crystal", "length_l", 1e-297),
            ("cavity", "resonator_length_Lr", 1e12)))
        assert main(["scales", "--config", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--field", "idler", "--config", str(path),
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "error: exit=1 type=ScenarioValidationError: crystal.length_l, "
            "crystal.dispersion_signal, crystal.dispersion_idler, "
            "cavity.resonator_length_Lr: derived 2*pi/(fsr*|tau0|) must be finite, got inf"]
        assert not out.exists()

    def test_tau0_underflow_to_zero_reads_kappa_inf(self, tmp_path, capsys):
        # tau0 = l/v_gI - l/v_gS underflows to exactly 0: the documented
        # tau0 = 0 path, not an overflow.
        path = write_config(tmp_path, _config_with("phase_matched", ("crystal", "length_l", 5e-324)))
        assert main(["scales", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "tau0=0 " in capsys.readouterr().out
        payload = _strict_json(tmp_path / "scales.json")
        assert payload["kappa_per_s"] == "inf" and payload["tau0_s"] == 0.0

    @pytest.mark.parametrize("idler_n", [1.81, 1.8], ids=["tau0", "tau0-zero"])
    def test_json_files_hold_only_finite_numbers(self, tmp_path, capsys, idler_n):
        path = str(write_config(tmp_path, scenario_dict(idler_n=idler_n)))
        commands = [["scales"], ["check-regime"],
                    ["g2", "--tier", "averaged", "--resolution", "7.74e-12", "--peaks", "1"],
                    ["spectrum", "--field", "idler", "--window-modes", "1", "--m-max", "10"],
                    ["g1", "--field", "signal", "--m-max", "10"]]
        if idler_n != 1.8:  # these refuse tau0 = 0 with exit 2
            commands += [["rate", "--method", "both"], ["wavefunction", "--modes", "1"]]
            commands += [["g2", "--tier", tier, "--peaks", "1"]
                         for tier in ("series", "exact", "compact")]
        out = tmp_path / "out"
        for argv in commands:
            assert main([*argv, "--config", path, "--out", str(out), "--format", "json"]) == 0
        written = sorted(out.glob("*.json"))
        assert len(written) == len(commands)
        for file in written:
            _strict_json(file)


_HEADER_LINE = re.compile(r"# (\w+) = (.*)")
_TABLE_COMMANDS = {
    "spectrum_idler": ["spectrum", "--field", "idler", "--window-modes", "1",
                       "--m-max", "10"],
    "g1_signal": ["g1", "--field", "signal", "--m-max", "10"],
    **{f"g2_{tier}": ["g2", "--tier", tier, "--peaks", "1"]
       for tier in ("exact", "series", "compact")},
    "g2_averaged": ["g2", "--tier", "averaged", "--resolution", "7.74e-12", "--peaks", "1"],
    "wavefunction": ["wavefunction", "--modes", "1"],
}
_AT_TAU0_ZERO = ("spectrum_idler", "g1_signal", "g2_averaged")  # the others refuse it


def _header_value(comments, key: str) -> float:
    """A header value as perfbench/workloads.py reads it from a g2 CSV: the
    first comment that starts with the key, split on "="."""
    return float(next(c for c in comments if c.startswith(key)).split("=", 1)[1])


class TestTableHeader:
    @pytest.mark.parametrize("idler_n, stem", [
        *(pytest.param(1.81, stem, id=stem) for stem in _TABLE_COMMANDS),
        *(pytest.param(1.8, stem, id=f"{stem}-tau0-zero") for stem in _AT_TAU0_ZERO),
    ])
    def test_one_header_in_csv_and_json(self, tmp_path, capsys, idler_n, stem):
        path = write_config(tmp_path, scenario_dict(idler_n=idler_n))
        config = load_scenario(path)
        for fmt in ("csv", "json"):
            argv = [*_TABLE_COMMANDS[stem], "--config", str(path), "--format", fmt]
            assert main([*argv, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / f"{stem}.csv").read_text(encoding="ascii").splitlines()
        header = [line for line in lines if line.startswith("#")]
        assert lines[: len(header)] == header  # one block, before the column row
        pairs = [_HEADER_LINE.fullmatch(line) for line in header]
        assert all(pairs), header
        keys = [m[1] for m in pairs]
        assert len(set(keys)) == len(keys)  # each key once
        assert keys[:2] == ["sropo", "scenario_hash"] and keys[-1] == "regime"
        assert "columns" not in keys
        csv = {m[1]: m[2] for m in pairs}
        meta = json.loads((tmp_path / f"{stem}.json").read_text(encoding="ascii"))["meta"]
        assert list(csv) == keys and sorted(meta) == sorted(keys)
        # the same values: a float as 17 digits, anything else as str()
        assert csv == {k: format_float(v) if isinstance(v, float) else str(v)
                       for k, v in meta.items()}
        assert meta["sropo"] == sropo.__version__
        assert meta["scenario_hash"] == config.scenario_hash
        assert meta["regime"] == config.regime.summary()
        scales = sropo.cli._scale_fields(config.scales)
        assert keys[-1 - len(scales) : -1] == [key for _, key, _ in scales]
        for _, key, value in scales:
            assert meta[key] == value
        if idler_n == 1.8:
            assert meta["kappa_per_s"] == csv["kappa_per_s"] == "inf"
        if stem.startswith("g2"):
            comments = [line[1:].strip() for line in header]
            s = config.scales
            assert _header_value(comments, "tau0_s") == s.tau0
            assert _header_value(comments, "round_trip_T_s") == s.round_trip_T
            assert _header_value(comments, "gamma_rad_per_s") == s.gamma


class TestGridBudget:
    @pytest.mark.parametrize(
        "args, flag",
        [
            (["spectrum", "--field", "idler", "--points", "1000000000000001"],
             "--points"),
            (["spectrum", "--field", "idler", "--points", str(MAX_GRID_POINTS + 1)],
             "--points"),
            (["spectrum", "--field", "idler", "--window-modes", "1e6"],
             "--window-modes"),
            (["g1", "--field", "idler", "--points", str(MAX_GRID_POINTS + 1)],
             "--points"),
            (["g1", "--field", "idler", "--window-gammas", "1e7"],
             "--window-gammas and --m-max"),
            (["g2", "--tier", "compact", "--peaks", "100000000000000"], "--peaks"),
            (["g2", "--tier", "series", "--points", str(MAX_GRID_POINTS + 1)],
             "--points"),
            (["g2", "--tier", "averaged", "--resolution", "1e-16"],
             "--peaks and --resolution"),
        ],
    )
    def test_oversized_grid_is_config_error_before_allocating(
        self, tmp_path, capsys, monkeypatch, args, flag
    ):
        config = load_scenario(CONFIG_DIR / "g2_comb.json")
        monkeypatch.setattr(sropo.cli, "load_scenario", lambda path: config)

        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated past the budget")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "out"
        assert main([*args, "--config", "unused.json", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: exit=1 type=ScenarioValidationError: ")
        assert f"the grid from {flag} would hold more than" in text
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["spectrum", "--field", "idler", "--m-max", "1000000000000000"], "--m-max"),
            (["g1", "--field", "idler", "--m-max", str(MAX_GRID_POINTS // 2)],
             "--window-gammas and --m-max"),  # its grid resolves every mode beat
            (["g2", "--tier", "series", "--m-max", "1000000000000000"], "--m-max"),
            (["g2", "--tier", "exact", "--m-max", str(MAX_GRID_POINTS)], "--m-max"),
            (["wavefunction", "--modes", "1000000000000000"],
             "--modes and --points-per-mode"),
            (["wavefunction", "--modes", str(MAX_GRID_POINTS // 770 + 1)],
             "--modes and --points-per-mode"),
        ],
    )
    def test_oversized_mode_count_is_config_error_before_allocating(
        self, tmp_path, capsys, monkeypatch, args, flag
    ):
        # 2M+1 weights (spectrum), M+1 (series, exact), (2M+1) x points
        # (wavefunction, 385 points per mode by default).
        config = load_scenario(CONFIG_DIR / "g2_comb.json")
        monkeypatch.setattr(sropo.cli, "load_scenario", lambda path: config)

        def refuse(*args, **kwargs):
            raise AssertionError("mode array allocated past the budget")

        monkeypatch.setattr(np, "arange", refuse)
        out = tmp_path / "out"
        assert main([*args, "--config", "unused.json", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: exit=1 type=ScenarioValidationError: ")
        assert f"the grid from {flag} would hold more than" in text
        assert not out.exists()

    # The spectrum's far lines come from a table of 18 rows per fsr cell of the
    # grid: 3 points over +-W fsr span 2W + 1 cells.  W = 932068 is the first
    # window past the budget (18 * 1864137 > 2**25 - 1).  np.arange, the
    # kernel's first allocation, raises here, so a check that let W through
    # allocates nothing (the table alone would take about 270 MB).
    @pytest.mark.parametrize("window, refused", [(932067, False), (932068, True)])
    def test_spectrum_table_past_the_budget_is_config_error(
        self, tmp_path, capsys, monkeypatch, window, refused
    ):
        config = load_scenario(CONFIG_DIR / "spectrum_comb.json")
        gamma = 2e7 * config.scales.fsr_delta_omega  # >= 16 points per gamma at W fsr
        path = write_config(tmp_path, _config_with(
            "spectrum_comb", ("cavity", "loss_rate_gamma", gamma)))

        def refuse(*args, **kwargs):
            raise AssertionError("comb table allocated")

        monkeypatch.setattr(np, "arange", refuse)
        out = tmp_path / "out"
        args = ["spectrum", "--field", "idler", "--points", "3", "--window-modes",
                str(window), "--config", str(path), "--out", str(out)]
        if not refused:  # within the budget the kernel goes on to allocate
            with pytest.raises(AssertionError, match="comb table allocated"):
                main(args)
            return
        assert main(args) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: exit=1 type=ScenarioValidationError: ")
        assert "the grid from --window-modes would hold more than" in text
        assert not out.exists()


class TestDeterminismAndRoundTrip:
    def test_csv_round_trip_bit_exact(self, config_path, tmp_path):
        run_cli(
            "spectrum", "--field", "signal", "--config", str(config_path),
            "--out", str(tmp_path), "--window-modes", "2.5", "--m-max", "10",
        )
        path = tmp_path / "spectrum_signal.csv"
        _, _, (axis, values) = read_table_csv(path)
        text = path.read_text().splitlines()
        rows = [line for line in text if line and not line.startswith("#")][1:]
        for i in (0, len(rows) // 2, len(rows) - 1):
            a_str, v_str = rows[i].split(",")
            assert format_float(axis[i]) == a_str
            assert format_float(values[i]) == v_str

    def test_csv_rows_match_cell_by_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 500
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-308, 308, n)
        floats[:6] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1e22]
        cols = [floats, np.arange(n) - 250, np.abs(rng.standard_normal(n))]
        path = tmp_path / "table.csv"
        write_table_csv(path, {"a": 1, "b c": -0.0}, ["x", "m", "y"], cols)
        expected = ["# a = 1", "# b c = -0", "x,m,y"] + [
            ",".join(format_float(col[i]) for col in cols) for i in range(n)
        ]
        assert path.read_text(encoding="ascii") == "\n".join(expected) + "\n"

    def test_repeated_runs_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            for cmd in (
                ["g2", "--tier", "series", "--peaks", "2", "--plot"],
                ["spectrum", "--field", "idler", "--window-modes", "2.5",
                 "--m-max", "10", "--plot"],
                ["scales"],
            ):
                result = run_cli(*cmd, "--config", str(config_path), "--out", str(out))
                assert result.returncode == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from sropo.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_import_loads_no_scipy():
    code = (
        "import sys, sropo, sropo.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args, written",
    [
        (["scales"], "scales.json"),
        (["g2", "--tier", "series"], "g2_series.csv"),
        (["wavefunction"], "wavefunction.csv"),
    ],
)
def test_commands_run_with_scipy_blocked(config_path, tmp_path, args, written):
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, *args,
         "--config", str(config_path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert (tmp_path / written).is_file()


REPO_ROOT = CONFIG_DIR.parent


def _readme_commands() -> list[list[str]]:
    """Every ``sropo ...`` command of the bash block under README "Command line"."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sropo ")]


README_COMMANDS = _readme_commands()


def test_readme_covers_every_subcommand():
    assert sorted({argv[0] for argv in README_COMMANDS}) == sorted(COMMANDS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[a[0] for a in README_COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # the commands name configs/ relative to the root
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    else:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    written = summary.split("wrote=", 1)[1].split(",")
    assert all(Path(p).is_file() for p in written), written


def test_readme_library_use_runs():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["trace"].values.max() == 1.0
