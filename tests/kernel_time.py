"""In-process CPU time of the spectrum and g1 kernels on the shipped configs.

Each call is ``spectra.spectrum`` or ``spectra.g1`` on the config's default
grid and mode count, with no file output; the grid is built once, outside
the timing, and one untimed call comes first.  Prints one Markdown table row
per config and kernel: the grid size N, the mode count M, and the median and
range of the CPU time (``time.process_time``) over the runs.

    PYTHONPATH=src python tests/kernel_time.py [--runs 5]
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

from sropo import spectra
from sropo.scenario import load_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = ["spectrum_comb.json", "g2_comb.json", "phase_matched.json",
           "detector_averaged.json"]
KERNELS = {"spectrum": (spectra.spectrum, spectra.spectrum_grid, "detuning"),
           "g1": (spectra.g1, spectra.g1_grid, "tau")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    print(f"| config | kernel | N | M | CPU, ms (median, range of {args.runs}) |")
    print("|---|---|---|---|---|")
    for name in CONFIGS:
        config = load_scenario(CONFIG_DIR / name)
        for kernel, (run, make_grid, axis) in KERNELS.items():
            grid = {axis: make_grid(config.scales)}
            trace = run("idler", config.scales, config.freqs, **grid)
            times = []
            for _ in range(args.runs):
                start = time.process_time()
                run("idler", config.scales, config.freqs, **grid)
                times.append(1e3 * (time.process_time() - start))
            print(f"| `{name}` | `{kernel}` | {trace.axis.size:,} | {trace.meta.extra['m_max']:,} "
                  f"| {statistics.median(times):.1f} ({min(times):.1f}-{max(times):.1f}) |",
                  flush=True)


if __name__ == "__main__":
    main()
