"""Command-line interface: scenario in, CSV/JSON traces and reports out.

Subcommands: scales, rate, spectrum, g1, g2, wavefunction, check-regime.
Every run prints a one-line scalar summary to stdout and exits 0 on success,
1 on configuration errors, 2 on numeric errors (each ``SropoError`` class's
``exit_code``), 3 when --strict-regime is set and the scenario fails the
regime check, and, as a process (``run``), 4 when any other exception escapes.
Identical inputs produce byte-identical output files.

``COMMANDS`` gives each subcommand its help, flags and runner.  A runner
returns an output stem and either a report dict or a ``(meta, names, columns)``
table (``trace.trace_table`` of a trace), which ``_write`` turns into files.
The parser checks only a flag's type and choices.  Its bounds are the
library's (``names.as_count`` and ``names.as_real``): an out-of-range value is
refused after the scenario loads, before a runner allocates anything, as a
``ScenarioValidationError`` (exit 1).  A flag's ``dest`` is the library's
argument name, which ``_refusal`` turns back into the flag.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, biphoton
from .cavity import DerivedScales, resonance_mode_number
from .errors import GridTooCoarseError, ScenarioValidationError, SropoError
from .names import G2Tier, as_count, format_value
from .scenario import ScenarioConfig, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 3
EXIT_CRASH = 4


def _error(code: int, kind: str, message) -> int:
    print(f"error: exit={code} type={kind}: {message}")
    return code


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a configuration error: exit 1, flag named."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_error(EXIT_CONFIG, "ArgumentError", message))


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
    from . import spectra, trace
    if args.m_max is not None:  # refused before the grid is built
        as_count(args.m_max, "m_max", 0)
    detuning = spectra.spectrum_grid(config.scales, args.window_modes, args.points)
    result = spectra.spectrum(args.field, config.scales, config.freqs, detuning=detuning,
                              m_max=args.m_max, normalization=config.normalization)
    return f"spectrum_{args.field}", trace.trace_table(result)


def _run_g1(args, config: ScenarioConfig):
    from . import spectra, trace
    tau = spectra.g1_grid(config.scales, args.window_gammas, args.points, args.m_max)
    result = spectra.g1(args.field, config.scales, config.freqs, tau=tau, m_max=args.m_max)
    return f"g1_{args.field}", trace.trace_table(result)


def _run_g2(args, config: ScenarioConfig):
    from . import correlations, trace
    correlations.check_tier(args.tier, args.m_max, args.resolution_dt)  # before any grid
    s = config.scales
    tau = correlations.g2_grid(s, args.tier, args.peaks, args.resolution_dt, args.points)
    request = correlations.G2Request(args.tier, tau, args.m_max, args.resolution_dt)
    result = getattr(correlations, f"g2_{args.tier}")(request, s)
    return f"g2_{args.tier}", trace.trace_table(result)


def _run_wavefunction(args, config: ScenarioConfig):
    import numpy as np
    grid = biphoton.wavefunction_grid(
        config.scales, args.m_count, args.omega_grid_halfwidth, args.points_per_mode)
    n_modes, n_pts = grid.amplitudes.shape
    meta = {
        "kind": "biphoton_amplitudes",
        "normalization_N": grid.normalization,
        "modes": f"-{n_modes // 2}..{n_modes // 2}",
        "points_per_mode": n_pts,
        "units": "m dimensionless, Omega rad/s",
    }
    columns = [
        np.repeat(grid.modes.astype(float), n_pts),
        np.tile(grid.detuning, n_modes),
        grid.amplitudes.real.ravel(),
        grid.amplitudes.imag.ravel(),
    ]
    return "wavefunction", (meta, ["m", "Omega", "re_psi", "im_psi"], columns)


_FIELD = ("--field", dict(choices=("signal", "idler"), required=True))
_POINTS = ("--points", dict(type=int))
_M_MAX = ("--m-max", dict(type=int))
_PLOT = ("--plot", dict(action="store_true", help="emit a static SVG next to the trace"))
# Each grid a runner builds and passes on, by its library name: the arguments that make it.
_GRIDS = {"detuning": ("window_modes", "points"), "tau": ("window_gammas", "points"),
          "tau_grid": ("peaks", "points", "resolution_dt")}

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
            ("--window-modes", dict(type=float, help="detuning half-width in "
                                    "units of the free spectral range")),
            _POINTS,
            _M_MAX,
            _PLOT,
        ],
        _run_spectrum,
    ),
    "g1": (
        "first-order correlation",
        [
            _FIELD,
            ("--window-gammas", dict(type=float, help="delay half-width in "
                                     "units of 1/gamma")),
            _POINTS,
            _M_MAX,
            _PLOT,
        ],
        _run_g1,
    ),
    "g2": (
        "second-order cross-correlation",
        [
            ("--tier", dict(choices=[t.value for t in G2Tier], required=True)),
            ("--peaks", dict(type=int, help="round trips covered")),
            _POINTS,
            _M_MAX,
            ("--resolution", dict(type=float, dest="resolution_dt", metavar="RESOLUTION",
                                  help="detector resolution dT in seconds (averaged tier)")),
            _PLOT,
        ],
        _run_g2,
    ),
    "wavefunction": (
        "two-photon amplitudes",
        [
            ("--modes", dict(type=int, dest="m_count", metavar="MODES")),
            ("--halfwidth-gammas", dict(type=float, dest="omega_grid_halfwidth",
                                        metavar="HALFWIDTH_GAMMAS")),
            ("--points-per-mode", dict(type=int)),
        ],
        _run_wavefunction,
    ),
}


_COMMON = [  # the flags of every command, before its own
    ("--config", dict(required=True, help="scenario JSON file")),
    ("--out", dict(default=None, help="output directory")),
    ("--format", dict(choices=("csv", "json"), default=None)),
    ("--strict-regime", dict(action="store_true", help="exit with status 3 if the "
                             "scenario fails the regime check")),
]


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of ``argv``; of ``argv[0]``'s subparser alone if it names a command."""
    parser = _Parser(
        prog="sropo",
        description="Biphoton rates, spectra, and cross-correlations for a "
        "single-resonant OPO far below threshold.",
    )
    parser.add_argument("--version", action="version", version=f"sropo {__version__}")
    one = argv[:1] if argv[:1] and argv[0] in COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=one and "{" + ",".join(COMMANDS) + "}")
    for name in one or COMMANDS:
        p = sub.add_parser(name, help=COMMANDS[name][0])
        for flag, options in _COMMON + COMMANDS[name][1]:
            p.add_argument(flag, **options)
    return parser


def _write(args, config: ScenarioConfig, stem: str, result) -> list[Path]:
    """Write a runner's result; the output directory is made only now, after
    a report is serialised; a failed table write removes the files it made."""
    out_dir = Path(args.out if args.out is not None else config.output_directory)
    if isinstance(result, dict):
        if args.format == "csv":  # the scenario's output.format is for tables only
            raise ScenarioValidationError(f"--format csv: {args.command} writes a JSON report")
        text = json.dumps(result, indent=1, sort_keys=True, allow_nan=False)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{stem}.json"
        path.write_text(text + "\n", encoding="ascii")
        return [path]
    from . import svgplot, trace as writers  # numpy comes with the table writers

    meta, names, columns = result
    header = {"sropo": __version__, "scenario_hash": config.scenario_hash,
              **dict(sorted(meta.items())),
              **{key: v for _, key, v in _scale_fields(config.scales)},
              "regime": config.regime.summary()}
    fmt = args.format if args.format is not None else config.output_format
    plot = getattr(args, "plot", False)  # only the trace commands have --plot
    suffixes = [fmt, "svg"] if plot else [fmt]
    written = [out_dir / f"{stem}.{suffix}" for suffix in suffixes]
    out_dir.mkdir(parents=True, exist_ok=True)
    created = [path for path in written if not path.exists()]
    try:
        getattr(writers, f"write_table_{fmt}")(written[0], header, names, columns)
        if plot:  # g1's imaginary part is 0: |re_value| is |g1|
            svgplot.write_svg_plot(written[1], columns[0], abs(columns[1]), stem, names[0])
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    return written


def _refusal(exc: SropoError, args) -> str:
    """``exc``'s text, its sources named as on this command line: a field as it is; an
    argument by its flag, as "name (flag)" if ``own``, else only if given (with its value
    in a GridTooCoarseError); a grid of ``_GRIDS`` by the flags given that made it."""
    if not exc.sources:
        return exc.text
    flags = {options.get("dest", flag[2:].replace("-", "_")): flag
             for flag, options in _COMMON + COMMANDS[args.command][1]}
    valued = isinstance(exc, GridTooCoarseError)
    shown = {dest: [f"{flag} {getattr(args, dest)}" if valued else flag]
             for dest, flag in flags.items() if getattr(args, dest) is not None}
    shown.update((grid, [n for d in dests for n in shown.get(d, ())])
                 for grid, dests in _GRIDS.items())
    if exc.own:
        shown = {dest: [f"{dest} ({flag})"] for dest, flag in flags.items()}
    names = [n for s in exc.sources for n in shown.get(s, () if s in flags else (s,))]
    names = sorted(dict.fromkeys(names), key=lambda name: name.startswith("-"))  # flags last
    return exc.text.replace("{}" if names else "{}: ", (" " if valued else ", ").join(names), 1)


def main(argv=None) -> int:
    # One OpenBLAS thread unless the user chose: numpy starts one worker per
    # extra CPU at import, and an idle worker spins whether or not a BLAS call
    # follows.  Set before any runner imports numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    try:
        config = load_scenario(args.config)
        if args.strict_regime and not config.regime.ok:
            return _error(EXIT_REGIME, "RegimeFailure", config.regime.summary())
        stem, result = COMMANDS[args.command][2](args, config)
        try:
            written = _write(args, config, stem, result)
        except OSError as exc:  # the directory cannot be made, or a file opened
            source = "--out" if args.out is not None else "output.directory"
            return _error(EXIT_CONFIG, type(exc).__name__, f"{source}: {exc}")
    except SropoError as exc:  # its class carries the exit code
        return _error(exc.exit_code, type(exc).__name__, _refusal(exc, args))

    summary = [f"{name}={format_value(v)}" for name, _, v in _scale_fields(config.scales)]
    summary.append(f"regime={'pass' if config.regime.ok else 'fail'}")
    summary.append("wrote=" + ",".join(str(p) for p in written))
    print(" ".join(summary))
    return EXIT_OK


def run() -> None:
    """Process entry (``python -m sropo``, the ``sropo`` script): ``main``, then
    flush stdout and stderr and ``os._exit``, skipping the interpreter's
    teardown; every file ``main`` wrote is closed.  An exception escaping
    ``main`` is a crash, not a refusal: its traceback goes to stderr and it
    exits 4.  A failed flush, a ``SystemExit`` from ``main`` (argparse) or a
    ``KeyboardInterrupt`` leaves the normal way."""
    try:
        code = main()
    except Exception as exc:
        import traceback  # only a crash pays for the import

        traceback.print_exc()
        code = _error(EXIT_CRASH, type(exc).__name__, exc)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the normal exit's teardown reports the failure, as before
        sys.exit(code)
    os._exit(code)
