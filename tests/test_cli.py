import argparse
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sropo.cli
import sropo.dispersion
from sropo import FrequencyTriple, load_scenario, transit_time_diff
from sropo.cli import COMMANDS, main
from sropo.correlations import g2_grid
from sropo.names import format_float
from sropo.numerics import MAX_GRID_POINTS
from sropo.peaks import measure_peaks, nearest_peak
from sropo.spectra import g1_grid
from sropo.trace import write_table_csv
from conftest import CONFIG_DIR, GAMMA, ROUND_TRIP, scenario_dict
from helpers import read_table_csv


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
            (["g2", "--tier", "series", "--peaks", "two"], "--peaks"),
            (["wavefunction", "--halfwidth-gammas", "9.5"], "--halfwidth-gammas"),
            (["wavefunction", "--halfwidth-gammas", "nan"], "--halfwidth-gammas"),
            (["wavefunction", "--points-per-mode", "1"], "--points-per-mode"),
            # integers past the float range
            (["g2", "--tier", "compact", "--peaks", "1" + "0" * 399], "--peaks"),
            (["g2", "--tier", "compact", "--points", "1" + "0" * 399], "--points"),
            (["spectrum", "--field", "idler", "--m-max", "1" + "0" * 399], "--m-max"),
            (["wavefunction", "--modes", "1" + "0" * 399], "--modes"),
            # a table has no trace to plot
            (["wavefunction", "--plot"], "--plot"),
        ],
    )
    def test_bad_flag_is_config_error(self, config_path, tmp_path, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--config", str(config_path), "--out", str(tmp_path)])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert out.startswith("error: exit=1 type=ArgumentError: ")
        assert f"argument {flag}:" in out
        assert not any(tmp_path.iterdir())

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
        assert f"{block}.{key}" in lines[0] and f"derived {scale} = " in lines[0]
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
            "crystal.dispersion_signal: resonance mode number = inf overflows a double"]
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
         ["crystal.length_l", "--window-modes"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "1e300"],
         ["--resolution"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "1e200"],
         ["--resolution"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "5e-324"],
         ["--resolution", "step = 0.0"]),
        ("detector_averaged", [], ["g2", "--tier", "averaged", "--resolution", "1e308",
                                   "--points", "3"], ["--resolution", "start = -inf"]),
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
            # --resolution does not size a comb-tier grid
            (["g2", "--tier", "compact", "--peaks", "100000000000000",
              "--resolution", "1e-12"], "--peaks"),
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
        write_table_csv(path, ["a", "b c"], ["x", "m", "y"], cols)
        expected = ["# a", "# b c", "x,m,y"] + [
            ",".join(format_float(col[i]) for col in cols) for i in range(n)
        ]
        assert path.read_text(encoding="ascii") == "\n".join(expected) + "\n"

    def test_repeated_runs_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            for cmd in (
                ["g2", "--tier", "series", "--peaks", "2"],
                ["spectrum", "--field", "idler", "--window-modes", "2.5",
                 "--m-max", "10"],
                ["scales"],
            ):
                result = run_cli(
                    *cmd, "--config", str(config_path), "--out", str(out), "--plot"
                )
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
