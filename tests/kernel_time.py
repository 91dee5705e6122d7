"""In-process CPU time of the kernels and the writers on the shipped configs.

Each call is ``spectra.spectrum`` or ``spectra.g1`` on the config's default
grid and mode count, or ``biphoton.wavefunction_grid`` at the CLI defaults
(8 modes, 385 points), with no file output; a spectrum or g1 grid is built
once, outside the timing, and one untimed call comes first.  Prints one
Markdown table row per config and kernel: the grid size N (for psi, modes
times points), the mode count M, the mirrored count h of the kernel's axis
(``numerics.mirror_count``: n//2 when the kernel evaluated only the
non-negative half, 0 when it evaluated every point), and the median and
range of the CPU time (``time.process_time``) over the runs.  A last row
times the spectrum on a grid far sparser than its cells: 3 points over
932,068 fsr cells of the mirrored half, at gamma = 2e7*fsr and M = 2, on the
first config, where the comb's work goes by cells, not points.

A second table times the writers on the same configs: ``write_table_csv`` and
``write_table_json`` on the default g1's table (``trace.trace_table``: delay,
real and imaginary part, as the ``g1`` command writes it), ``write_table_csv``
on the default spectrum's table (detuning and value, as the ``spectrum``
command writes it) and ``write_svg_plot`` on the same spectrum, each with the
table's header mapping and into a temporary directory, with
the rows, the rows h written from the mirror (``trace._mirror_rows``: n//2 when
the table is mirrored about 0, 0 on the plain path and for the SVG), the
bytes written, and the SVG polyline's vertex count (its M4 vertices, at most
four per run of rows in one pixel column; a table writes every row).

    PYTHONPATH=src python tests/kernel_time.py [--runs 5]
"""

from __future__ import annotations

import argparse
import re
import statistics
import tempfile
import time
from pathlib import Path

from sropo import biphoton, spectra
from sropo.numerics import mirror_count
from sropo.scenario import load_scenario
from sropo.svgplot import write_svg_plot
from sropo.trace import _mirror_rows, trace_table, write_table_csv, write_table_json

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = ["spectrum_comb.json", "g2_comb.json", "phase_matched.json",
           "detector_averaged.json"]
WAVEFUNCTION_MODES = 8  # the CLI's --modes default


def _spectrum(config):
    detuning = spectra.spectrum_grid(config.scales)
    return lambda: spectra.spectrum("idler", config.scales, config.freqs, detuning=detuning)


def _g1(config):
    tau = spectra.g1_grid(config.scales)
    return lambda: spectra.g1("idler", config.scales, config.freqs, tau=tau)


def _wavefunction(config):
    return lambda: biphoton.wavefunction_grid(config.scales, WAVEFUNCTION_MODES)


def _sparse_spectrum(config):
    scales = config.scales.replace(gamma=2e7 * config.scales.fsr_delta_omega)
    detuning = spectra.spectrum_grid(scales, 932067, 3)
    return lambda: spectra.spectrum("idler", scales, config.freqs, detuning=detuning,
                                    m_max=2)


KERNELS = {"spectrum": _spectrum, "g1": _g1, "wavefunction": _wavefunction}


def _sizes(result) -> tuple[int, int, int]:
    """N, M and h of a kernel's result."""
    if isinstance(result, biphoton.BiphotonAmplitudeGrid):
        return result.amplitudes.size, int(result.modes[-1]), mirror_count(result.detuning)
    return result.axis.size, result.meta.extra["m_max"], mirror_count(result.axis)


def _writers(config):
    """(writer, table, rows, h, call(path)) for each writer on the config's
    default g1 table or spectrum."""
    g1 = trace_table(spectra.g1("idler", config.scales, config.freqs))
    spectrum = trace_table(spectra.spectrum("idler", config.scales, config.freqs))
    (_, _, columns), (_, names, curve) = g1, spectrum
    return [
        ("write_table_csv", "g1", len(columns[0]), _mirror_rows(columns),
         lambda path: write_table_csv(path, *g1)),
        ("write_table_json", "g1", len(columns[0]), _mirror_rows(columns),
         lambda path: write_table_json(path, *g1)),
        ("write_table_csv", "spectrum", len(curve[0]), _mirror_rows(curve),
         lambda path: write_table_csv(path, *spectrum)),
        ("write_svg_plot", "spectrum", len(curve[0]), 0,
         lambda path: write_svg_plot(path, *curve, "spectrum_idler", names[0])),
    ]


def _cpu_ms(call, runs: int) -> str:
    """Median and range of the CPU time of ``runs`` calls, in ms."""
    times = []
    for _ in range(runs):
        start = time.process_time()
        call()
        times.append(1e3 * (time.process_time() - start))
    return f"{statistics.median(times):.1f} ({min(times):.1f}-{max(times):.1f})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    print(f"| config | kernel | N | M | h | CPU, ms (median, range of {args.runs}) |")
    print("|---|---|---|---|---|---|")
    rows = [(name, kernel, prepare)
            for name in CONFIGS for kernel, prepare in KERNELS.items()]
    rows.append((CONFIGS[0], "spectrum (sparse)", _sparse_spectrum))
    for name, kernel, prepare in rows:
        call = prepare(load_scenario(CONFIG_DIR / name))
        n, m, h = _sizes(call())
        print(f"| `{name}` | `{kernel}` | {n:,} | {m:,} | {h:,} "
              f"| {_cpu_ms(call, args.runs)} |", flush=True)
    print()
    print(f"| config | writer | table | rows | h | bytes | vertices "
          f"| CPU, ms (median, range of {args.runs}) |")
    print("|---|---|---|---|---|---|---|---|")
    for name in CONFIGS:
        config = load_scenario(CONFIG_DIR / name)
        for writer, table, rows, h, write in _writers(config):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp, "out")
                cpu = _cpu_ms(lambda: write(path), args.runs)
                size = path.stat().st_size
                points = re.search(r'points="([^"]*)"', path.read_text("ascii"))
            vertices = f"{points[1].count(','):,}" if points else "-"
            print(f"| `{name}` | `{writer}` | {table} | {rows:,} | {h:,} | {size:,} | {vertices} "
                  f"| {cpu} |", flush=True)


if __name__ == "__main__":
    main()
