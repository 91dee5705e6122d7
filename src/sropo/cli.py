"""Command-line interface: scenario in, CSV/JSON traces and reports out.

Subcommands: scales, rate, spectrum, g1, g2, wavefunction, check-regime.
Every run prints a one-line scalar summary to stdout and exits 0 on success,
1 on configuration errors, 2 on numeric errors, and 3 when --strict-regime is
set and the scenario fails the regime check.  Identical inputs produce
byte-identical output files.

``COMMANDS`` gives each subcommand its help, flags and runner.  A runner
returns an output stem and a report dict, a ``(trace, axis_name)`` pair or a
``(meta, names, columns)`` table, which ``_write`` turns into files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, biphoton
from .cavity import DerivedScales, resonance_mode_number
from .errors import (
    GridTooCoarseError, ScenarioParseError, ScenarioValidationError, SropoError,
)
from .names import G2Tier, format_float
from .scenario import ScenarioConfig, load_scenario

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
            finite = math.isfinite(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        except OverflowError:  # an integer beyond the float range
            raise argparse.ArgumentTypeError(f"too large: {len(text)} digits")
        if not (finite and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    return parse


def _scale_fields(scales: DerivedScales) -> list[tuple[str, str, object]]:
    """(summary name, file key, value) of each scale; kappa = inf reads "inf"."""
    kappa = scales.kappa if math.isfinite(scales.kappa) else "inf"
    return [
        ("tau0", "tau0_s", scales.tau0),
        ("T", "round_trip_T_s", scales.round_trip_T),
        ("fsr", "fsr_rad_per_s", scales.fsr_delta_omega),
        ("gamma", "gamma_rad_per_s", scales.gamma),
        ("kappa", "kappa_per_s", kappa),
    ]


def _text(value) -> str:
    return value if isinstance(value, str) else format_float(value)


def _regime(config: ScenarioConfig) -> dict:
    regime = config.regime
    checks = [
        {
            "name": c.name,
            "value": c.value if math.isfinite(c.value) else "inf",
            "passed": c.passed,
        }
        for c in regime.checks
    ]
    return {"threshold": regime.threshold, "ok": regime.ok, "checks": checks}


def _run_scales(args, config: ScenarioConfig):
    report = {key: value for _, key, value in _scale_fields(config.scales)}
    report["resonance_mode_number"] = resonance_mode_number(config.crystal, config.freqs)
    report["regime"] = _regime(config)
    return "scales", {"scenario_hash": config.scenario_hash, **report}


def _run_check_regime(args, config: ScenarioConfig):
    return "regime", {"scenario_hash": config.scenario_hash, **_regime(config)}


def _run_rate(args, config: ScenarioConfig):
    inputs = (config.crystal, config.pump, config.freqs, config.scales)
    report = {"scenario_hash": config.scenario_hash}
    if args.method in ("continuum", "both"):
        report["kappa_continuum_per_s"] = biphoton.rate_continuum(*inputs)
    if args.method in ("sum", "both"):
        report["kappa_mode_sum_per_s"] = biphoton.rate_mode_sum(*inputs)
    return "rate", report


def _run_spectrum(args, config: ScenarioConfig):
    from . import spectra
    detuning = spectra.spectrum_grid(config.scales, args.window_modes, args.points)
    trace = spectra.spectrum(
        args.field,
        config.scales,
        config.freqs,
        detuning=detuning,
        m_max=args.m_max,
        normalization=config.normalization,
    )
    return f"spectrum_{args.field}", (trace, "detuning_rad_per_s")


def _run_g1(args, config: ScenarioConfig):
    from . import spectra
    tau = spectra.g1_grid(config.scales, args.window_gammas, args.points, args.m_max)
    trace = spectra.g1(args.field, config.scales, config.freqs, tau=tau, m_max=args.m_max)
    return f"g1_{args.field}", (trace, "tau_seconds")


def _run_g2(args, config: ScenarioConfig):
    from . import correlations
    s = config.scales
    tau = correlations.g2_grid(s, args.tier, args.peaks, args.resolution, args.points)
    request = correlations.G2Request(args.tier, tau, args.m_max, args.resolution)
    trace = getattr(correlations, f"g2_{args.tier}")(request, s)
    return f"g2_{args.tier}", (trace, "tau_seconds")


def _run_wavefunction(args, config: ScenarioConfig):
    import numpy as np
    grid = biphoton.wavefunction_grid(
        config.scales, args.modes, args.halfwidth_gammas, args.points_per_mode)
    n_modes, n_pts = grid.amplitudes.shape
    meta = {
        "kind": "biphoton_amplitudes",
        "normalization_N": format_float(grid.normalization),
        "modes": f"-{args.modes}..{args.modes}",
        "points_per_mode": n_pts,
        "columns": "m,Omega,re_psi,im_psi",
        "units": "m dimensionless, Omega rad/s",
    }
    columns = [
        np.repeat(grid.modes.astype(float), n_pts),
        np.tile(grid.detuning, n_modes),
        grid.amplitudes.real.ravel(),
        grid.amplitudes.imag.ravel(),
    ]
    return "wavefunction", (meta, ["m", "Omega", "re_psi", "im_psi"], columns)


_POSITIVE = _bounded(float, 0.0, strict=True)
_FIELD = ("--field", dict(choices=("signal", "idler"), required=True))
_POINTS = ("--points", dict(type=_bounded(int, 2)))
_M_MAX = ("--m-max", dict(type=_bounded(int, 0)))
# The flags that shape a grid, named when it is too coarse.
_GRID_FLAGS = ("window_modes", "window_gammas", "points", "halfwidth_gammas",
               "points_per_mode")

# name -> (help, [(flag, add_argument keywords)], runner).  Runners look library
# functions up when they run, never through this table, so that a wrapper put
# on a module attribute after import still sees every call.  The array modules
# (and numpy) are imported by the runners that use them, so scales,
# check-regime and rate never load numpy.
COMMANDS = {
    "scales": ("derived scales report", [], _run_scales),
    "check-regime": ("regime report", [], _run_check_regime),
    "rate": (
        "biphoton generation rate",
        [("--method", dict(choices=("continuum", "sum", "both"), default="continuum"))],
        _run_rate,
    ),
    "spectrum": (
        "output spectrum",
        [
            _FIELD,
            ("--window-modes", dict(type=_POSITIVE, help="detuning half-width in "
                                    "units of the free spectral range")),
            _POINTS,
            _M_MAX,
        ],
        _run_spectrum,
    ),
    "g1": (
        "first-order correlation",
        [
            _FIELD,
            ("--window-gammas", dict(type=_POSITIVE, help="delay half-width in "
                                     "units of 1/gamma")),
            _POINTS,
            _M_MAX,
        ],
        _run_g1,
    ),
    "g2": (
        "second-order cross-correlation",
        [
            ("--tier", dict(choices=[t.value for t in G2Tier], required=True)),
            ("--peaks", dict(type=_bounded(int, 0), default=5,
                             help="round trips covered")),
            _POINTS,
            ("--m-max", dict(type=_bounded(int, 1))),
            ("--resolution", dict(type=_POSITIVE, help="detector resolution dT in "
                                  "seconds (averaged tier)")),
        ],
        _run_g2,
    ),
    "wavefunction": (
        "two-photon amplitudes",
        [
            ("--modes", dict(type=_bounded(int, 1), default=8)),
            ("--halfwidth-gammas",
             dict(type=_bounded(float, biphoton.MIN_HALFWIDTH_GAMMAS))),
            ("--points-per-mode", dict(type=_bounded(int, biphoton.MIN_POINTS_PER_MODE))),
        ],
        _run_wavefunction,
    ),
}


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
        "--plot", action="store_true",
        help="emit a static SVG next to the trace (spectrum, g1, g2)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def _write(args, config: ScenarioConfig, stem: str, result) -> list[Path]:
    """Write a runner's result; the output directory is made only now, after
    a report is serialised."""
    out_dir = Path(args.out if args.out is not None else config.output_directory)
    if isinstance(result, dict):
        text = json.dumps(result, indent=1, sort_keys=True, allow_nan=False)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{stem}.json"
        path.write_text(text + "\n", encoding="ascii")
        return [path]
    from . import svgplot, trace as writers  # numpy comes with the table writers

    trace = None
    if len(result) == 3:
        meta, names, columns = result
    else:
        trace, axis_name = result
        kind = trace.meta.kind.value
        meta = {"kind": kind, "normalization": trace.meta.normalization.value}
        meta.update(trace.meta.extra)
        if trace.values.dtype.kind == "c":
            names = [axis_name, "re_value", "im_value"]
            columns = [trace.axis, trace.values.real, trace.values.imag]
        else:
            names = [axis_name, "g2_value" if kind == "g2" else "value"]
            columns = [trace.axis, trace.values]
        meta["columns"] = ",".join(names)
    fmt = args.format if args.format is not None else config.output_format
    written = [out_dir / f"{stem}.{fmt}"]
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        header = [f"sropo {__version__}", f"scenario_hash: {config.scenario_hash}"]
        header += [f"{key}: {meta[key]}" for key in sorted(meta)]
        header += [f"{key} = {_text(v)}" for _, key, v in _scale_fields(config.scales)]
        header.append(f"regime: {config.regime.summary()}")
        writers.write_table_csv(written[0], header, names, columns)
    else:
        meta = {"scenario_hash": config.scenario_hash, **meta}
        writers.write_table_json(written[0], meta, names, columns)
    if args.plot and trace is not None:
        y = abs(trace.values) if trace.values.dtype.kind == "c" else trace.values
        written.append(out_dir / f"{stem}.svg")
        svgplot.write_svg_plot(written[1], trace.axis, y, stem, names[0], "value")
    return written


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.plot and args.command == "wavefunction":
        parser.error("argument --plot: wavefunction writes a table, not a trace")
    try:
        config = load_scenario(args.config)
        if args.strict_regime and not config.regime.ok:
            return _error(EXIT_REGIME, "RegimeFailure", config.regime.summary())
        stem, result = COMMANDS[args.command][2](args, config)
        written = _write(args, config, stem, result)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        return _error(EXIT_CONFIG, type(exc).__name__, exc)
    except GridTooCoarseError as exc:  # the default grids are fine: name the flags
        given = " ".join(f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items()
                         if k in _GRID_FLAGS and v is not None)
        message = f"{given}: {exc}" if given else exc
        return _error(EXIT_NUMERIC, type(exc).__name__, message)
    except (SropoError, ValueError) as exc:
        return _error(EXIT_NUMERIC, type(exc).__name__, exc)

    summary = [f"{name}={_text(v)}" for name, _, v in _scale_fields(config.scales)]
    summary.append(f"regime={'pass' if config.regime.ok else 'fail'}")
    summary.append("wrote=" + ",".join(str(p) for p in written))
    print(" ".join(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
