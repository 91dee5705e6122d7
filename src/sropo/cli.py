"""Command-line interface: scenario in, CSV/JSON traces and reports out.

Subcommands: scales, rate, spectrum, g1, g2, wavefunction, check-regime.
Every run prints a one-line scalar summary to stdout and exits 0 on success,
1 on configuration errors, 2 on numeric errors, and 3 when --strict-regime is
set and the scenario fails the regime check.  Identical inputs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .biphoton import (
    MIN_HALFWIDTH_GAMMAS,
    MIN_POINTS_PER_MODE,
    rate_continuum,
    rate_mode_sum,
    wavefunction_grid,
)
from .cavity import resonance_mode_number
from .correlations import (
    G2Request,
    G2Tier,
    g2_averaged,
    g2_compact,
    g2_exact,
    g2_series,
)
from .errors import (
    ScenarioParseError,
    ScenarioValidationError,
    SropoError,
)
from .scenario import ScenarioConfig, load_scenario
from .spectra import envelope_zero_mode, g1, spectrum
from .svgplot import write_svg_plot
from .trace import (
    ComplexTrace,
    Trace,
    format_float,
    write_table_csv,
    write_table_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_REGIME = 3


def _error(code: int, kind: str, message) -> int:
    print(f"error: exit={code} type={kind}: {message}")
    return code


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a configuration error: exit 1, flag named."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_error(EXIT_CONFIG, "ArgumentError", message))


def _bounded(kind, low, strict: bool = False):
    """argparse type: a finite ``kind`` number >= low (> low when strict)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    return parse


_POSITIVE = _bounded(float, 0.0, strict=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sropo",
        description="Biphoton rates, spectra, and cross-correlations for a "
        "single-resonant OPO far below threshold.",
    )
    parser.add_argument("--version", action="version", version=f"sropo {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument(
        "--strict-regime",
        action="store_true",
        help="exit with status 3 if the scenario fails the regime check",
    )
    common.add_argument(
        "--plot", action="store_true", help="emit a static SVG next to each trace"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scales", parents=[common], help="derived scales report")
    sub.add_parser("check-regime", parents=[common], help="regime report")

    p = sub.add_parser("rate", parents=[common], help="biphoton generation rate")
    p.add_argument("--method", choices=("continuum", "sum", "both"), default="continuum")

    p = sub.add_parser("spectrum", parents=[common], help="output spectrum")
    p.add_argument("--field", choices=("signal", "idler"), required=True)
    p.add_argument("--window-modes", type=_POSITIVE, default=None,
                   help="detuning half-width in units of the free spectral range")
    p.add_argument("--points", type=_bounded(int, 2), default=None)
    p.add_argument("--m-max", type=_bounded(int, 0), default=None)

    p = sub.add_parser("g1", parents=[common], help="first-order correlation")
    p.add_argument("--field", choices=("signal", "idler"), required=True)
    p.add_argument("--window-gammas", type=_POSITIVE, default=10.0,
                   help="delay half-width in units of 1/gamma")
    p.add_argument("--points", type=_bounded(int, 2), default=None)
    p.add_argument("--m-max", type=_bounded(int, 0), default=None)

    p = sub.add_parser("g2", parents=[common], help="second-order cross-correlation")
    p.add_argument("--tier", choices=[t.value for t in G2Tier], required=True)
    p.add_argument("--peaks", type=_bounded(int, 0), default=5, help="round trips covered")
    p.add_argument("--points", type=_bounded(int, 2), default=None)
    p.add_argument("--m-max", type=_bounded(int, 1), default=None)
    p.add_argument("--resolution", type=_POSITIVE, default=None,
                   help="detector resolution dT in seconds (averaged tier)")

    p = sub.add_parser("wavefunction", parents=[common], help="two-photon amplitudes")
    p.add_argument("--modes", type=_bounded(int, 1), default=8)
    p.add_argument("--halfwidth-gammas", type=_bounded(float, MIN_HALFWIDTH_GAMMAS),
                   default=12.0)
    p.add_argument("--points-per-mode", type=_bounded(int, MIN_POINTS_PER_MODE),
                   default=385)
    return parser


def _summary_line(config: ScenarioConfig, written: list[Path]) -> str:
    s = config.scales
    fields = [
        f"tau0={format_float(s.tau0)}",
        f"T={format_float(s.round_trip_T)}",
        f"fsr={format_float(s.fsr_delta_omega)}",
        f"gamma={format_float(s.gamma)}",
        f"kappa={format_float(s.kappa) if math.isfinite(s.kappa) else 'inf'}",
        f"regime={'pass' if config.regime.ok else 'fail'}",
    ]
    if written:
        fields.append("wrote=" + ",".join(str(p) for p in written))
    return " ".join(fields)


def _header_comments(config: ScenarioConfig, extra: dict) -> list[str]:
    s = config.scales
    lines = [
        f"sropo {__version__}",
        f"scenario_hash: {config.scenario_hash}",
    ]
    for key in sorted(extra):
        lines.append(f"{key}: {extra[key]}")
    lines += [
        f"tau0_s = {format_float(s.tau0)}",
        f"round_trip_T_s = {format_float(s.round_trip_T)}",
        f"fsr_rad_per_s = {format_float(s.fsr_delta_omega)}",
        f"gamma_rad_per_s = {format_float(s.gamma)}",
        "kappa_per_s = "
        + (format_float(s.kappa) if math.isfinite(s.kappa) else "inf"),
        f"regime: {config.regime.summary()}",
    ]
    return lines


def _trace_columns(trace: Trace | ComplexTrace, axis_name: str) -> tuple[list, list]:
    if isinstance(trace, ComplexTrace):
        names = [axis_name, "re_value", "im_value"]
        cols = [trace.axis, trace.values.real, trace.values.imag]
    else:
        value_name = "g2_value" if trace.meta.kind.value == "g2" else "value"
        names = [axis_name, value_name]
        cols = [trace.axis, trace.values]
    return names, cols


def _write_table(config: ScenarioConfig, path: Path, extra: dict, names, cols) -> Path:
    """Write one .csv or .json table, with ``extra`` as its metadata."""
    if path.suffix == ".csv":
        write_table_csv(path, _header_comments(config, extra), names, cols)
    else:
        meta = {"scenario_hash": config.scenario_hash, **extra}
        write_table_json(path, meta, names, cols)
    return path


def _write_trace(
    config: ScenarioConfig,
    trace: Trace | ComplexTrace,
    stem: str,
    axis_name: str,
    out_dir: Path,
    fmt: str,
    plot: bool,
) -> list[Path]:
    meta_extra = {
        "kind": trace.meta.kind.value,
        "normalization": trace.meta.normalization.value,
    }
    for key in sorted(trace.meta.extra):
        meta_extra[key] = trace.meta.extra[key]
    names, cols = _trace_columns(trace, axis_name)
    meta_extra["columns"] = ",".join(names)
    written = [_write_table(config, out_dir / f"{stem}.{fmt}", meta_extra, names, cols)]
    if plot:
        svg = out_dir / f"{stem}.svg"
        y = np.abs(trace.values) if isinstance(trace, ComplexTrace) else trace.values
        write_svg_plot(svg, trace.axis, y, stem, axis_name, "value")
        written.append(svg)
    return written


def _report_payload(config: ScenarioConfig) -> dict:
    s = config.scales
    return {
        "scenario_hash": config.scenario_hash,
        "tau0_s": s.tau0,
        "round_trip_T_s": s.round_trip_T,
        "fsr_rad_per_s": s.fsr_delta_omega,
        "gamma_rad_per_s": s.gamma,
        "kappa_per_s": s.kappa if math.isfinite(s.kappa) else "inf",
        "resonance_mode_number": resonance_mode_number(config.crystal, config.freqs),
        "regime": {
            "threshold": config.regime.threshold,
            "ok": config.regime.ok,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value if math.isfinite(c.value) else "inf",
                    "passed": c.passed,
                }
                for c in config.regime.checks
            ],
        },
    }


def _write_report(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )


def _g2_grid(config: ScenarioConfig, args) -> np.ndarray:
    s = config.scales
    tier = G2Tier(args.tier)
    T = s.round_trip_T
    if tier is G2Tier.AVERAGED:
        if args.resolution is None:
            raise ScenarioValidationError(
                "g2 --tier averaged requires --resolution <seconds>"
            )
        start = -3.0 * args.resolution
        step = args.resolution / 16.0
    else:
        start = -2.0 * abs(s.tau0) - T / 8.0 if s.tau0 != 0 else -T / 8.0
        step = abs(s.tau0) / 12.0 if s.tau0 != 0 else T / 1024.0
    stop = args.peaks * T + 2.0 * abs(s.tau0)
    if args.points is not None:
        n = args.points
    else:
        n = int(math.ceil((stop - start) / step)) + 1
    return np.linspace(start, stop, n)


def _run(args, config: ScenarioConfig) -> list[Path]:
    out_dir = Path(args.out if args.out is not None else config.output_directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = args.format if args.format is not None else config.output_format
    written: list[Path] = []

    if args.command == "scales":
        path = out_dir / "scales.json"
        _write_report(_report_payload(config), path)
        written.append(path)

    elif args.command == "check-regime":
        path = out_dir / "regime.json"
        _write_report(_report_payload(config)["regime"] | {
            "scenario_hash": config.scenario_hash
        }, path)
        written.append(path)

    elif args.command == "rate":
        payload = {"scenario_hash": config.scenario_hash}
        if args.method in ("continuum", "both"):
            payload["kappa_continuum_per_s"] = rate_continuum(
                config.crystal, config.pump, config.freqs, config.scales
            )
        if args.method in ("sum", "both"):
            payload["kappa_mode_sum_per_s"] = rate_mode_sum(
                config.crystal, config.pump, config.freqs, config.scales
            )
        path = out_dir / "rate.json"
        _write_report(payload, path)
        written.append(path)

    elif args.command == "spectrum":
        detuning = None
        if args.window_modes is not None or args.points is not None:
            window = (
                args.window_modes
                if args.window_modes is not None
                else envelope_zero_mode(config.scales) + 0.5
            )
            half = window * config.scales.fsr_delta_omega
            n = (
                args.points
                if args.points is not None
                else 2 * math.ceil(24.0 * half / config.scales.gamma) + 1
            )
            detuning = np.linspace(-half, half, n)
        trace = spectrum(
            args.field,
            config.scales,
            config.freqs,
            detuning=detuning,
            m_max=args.m_max,
            normalization=config.normalization,
        )
        written += _write_trace(
            config,
            trace,
            f"spectrum_{args.field}",
            "detuning_rad_per_s",
            out_dir,
            fmt,
            args.plot,
        )

    elif args.command == "g1":
        tau = None
        if args.points is not None:
            half = args.window_gammas / config.scales.gamma
            tau = np.linspace(-half, half, args.points)
        trace = g1(
            args.field, config.scales, config.freqs, tau=tau, m_max=args.m_max
        )
        written += _write_trace(
            config, trace, f"g1_{args.field}", "tau_seconds", out_dir, fmt, args.plot
        )

    elif args.command == "g2":
        tier = G2Tier(args.tier)
        request = G2Request(
            tier=tier,
            tau_grid=_g2_grid(config, args),
            m_max=args.m_max,
            resolution_dt=args.resolution,
        )
        runner = {
            G2Tier.EXACT: g2_exact,
            G2Tier.SERIES: g2_series,
            G2Tier.COMPACT: g2_compact,
            G2Tier.AVERAGED: g2_averaged,
        }[tier]
        trace = runner(request, config.scales)
        written += _write_trace(
            config, trace, f"g2_{tier.value}", "tau_seconds", out_dir, fmt, args.plot
        )

    elif args.command == "wavefunction":
        grid = wavefunction_grid(
            config.scales,
            m_count=args.modes,
            omega_grid_halfwidth=args.halfwidth_gammas,
            points_per_mode=args.points_per_mode,
        )
        n_modes, n_pts = grid.amplitudes.shape
        m_col = np.repeat(grid.modes.astype(float), n_pts)
        omega_col = np.tile(grid.detuning, n_modes)
        re_col = grid.amplitudes.real.ravel()
        im_col = grid.amplitudes.imag.ravel()
        extra = {
            "kind": "biphoton_amplitudes",
            "normalization_N": format_float(grid.normalization),
            "modes": f"-{args.modes}..{args.modes}",
            "points_per_mode": n_pts,
            "columns": "m,Omega,re_psi,im_psi",
            "units": "m dimensionless, Omega rad/s",
        }
        names = ["m", "Omega", "re_psi", "im_psi"]
        cols = [m_col, omega_col, re_col, im_col]
        path = out_dir / f"wavefunction.{fmt}"
        written.append(_write_table(config, path, extra, names, cols))

    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")
    return written


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_scenario(args.config)
        if args.strict_regime and not config.regime.ok:
            return _error(EXIT_REGIME, "RegimeFailure", config.regime.summary())
        written = _run(args, config)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        return _error(EXIT_CONFIG, type(exc).__name__, exc)
    except (SropoError, ValueError) as exc:
        return _error(EXIT_NUMERIC, type(exc).__name__, exc)

    print(_summary_line(config, written))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
