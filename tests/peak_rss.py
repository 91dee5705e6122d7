"""Peak resident memory and CPU time of sropo commands: the table writers,
and ``scales`` and ``g2 --tier compact``, whose time is mostly start-up.

Each command runs in a fresh ``python -m sropo`` child, and each child is
measured on its own with ``os.wait4``: its ``ru_maxrss`` and its user plus
system CPU time.  A child's ``ru_maxrss`` also counts the pages of the
process that spawned it, which are the child's until ``exec``; so this script
imports neither numpy nor sropo, and its own 14 MiB stay below every
command's peak.  Prints one Markdown table row per command: the median and
the range over the runs.  Four reference rows come first, measured the same
way: a bare ``python -c pass`` and ``python -c "import numpy"``, each with the
interpreter's teardown, and ``python -c "import numpy, os; os._exit(0)"`` and
``python -c "import sropo.cli, os; os._exit(0)"`` without it.  A command ends
with ``os._exit`` once ``sropo.cli.main`` has returned (``sropo.cli.run``), so
the third row is the floor of a numpy command's CPU, the part that sropo
cannot move, and the fourth the floor of a scalar command: the interpreter and
sropo's own start-up, its import of ``sropo.cli``.  Every child runs with
``OPENBLAS_NUM_THREADS=1`` unless it is set, as ``sropo.cli.main`` sets it.

    PYTHONPATH=src python tests/peak_rss.py [--runs 5] [--large]

``--large`` adds ``g1`` on ``configs/detector_averaged.json`` (1.5 million
rows) as CSV and as JSON.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile

REFERENCE = {
    "python -c pass": ["-c", "pass"],
    'python -c "import numpy"': ["-c", "import numpy"],
    'python -c "import numpy, os; os._exit(0)"': ["-c", "import numpy, os; os._exit(0)"],
    'python -c "import sropo.cli, os; os._exit(0)"': ["-c", "import sropo.cli, os; os._exit(0)"],
}
COMMANDS = {
    "scales": ["scales", "--config", "configs/g2_comb.json"],
    "g2 --tier compact": ["g2", "--config", "configs/g2_comb.json", "--tier", "compact"],
    "g1": ["g1", "--config", "configs/spectrum_comb.json", "--field", "idler"],
    "g1 --format json": ["g1", "--config", "configs/spectrum_comb.json", "--field", "idler",
                         "--format", "json"],
    "spectrum --plot": ["spectrum", "--config", "configs/spectrum_comb.json", "--field",
                        "idler", "--plot"],
}
LARGE = {
    "g1 (detector_averaged)": ["g1", "--config", "configs/detector_averaged.json",
                               "--field", "idler"],
    "g1 --format json (detector_averaged)": ["g1", "--config",
                                             "configs/detector_averaged.json",
                                             "--field", "idler", "--format", "json"],
}


def measure(args: list[str]) -> tuple[float, float]:
    """(peak RSS in MiB, CPU seconds) of one ``python`` run of ``args``."""
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *args], {"OPENBLAS_NUM_THREADS": "1", **os.environ},
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"python {' '.join(args)} exited {os.waitstatus_to_exitcode(status)}")
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def measure_sropo(argv: list[str]) -> tuple[float, float]:
    """``measure`` of one ``python -m sropo`` run of ``argv``, into a fresh ``--out``."""
    out = tempfile.mkdtemp(prefix="sropo-rss-")
    try:
        return measure(["-m", "sropo", *argv, "--out", out])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--large", action="store_true")
    args = parser.parse_args()
    commands = {**COMMANDS, **(LARGE if args.large else {})}
    print(f"| command | peak RSS, MiB (median, range of {args.runs}) "
          "| CPU, s (median, range) |")
    print("|---|---|---|")
    rows = [(name, measure, argv) for name, argv in REFERENCE.items()]
    rows += [(name, measure_sropo, argv) for name, argv in commands.items()]
    for name, run, argv in rows:
        rss, cpu = zip(*(run(argv) for _ in range(args.runs)))
        print(f"| `{name}` | {statistics.median(rss):.1f} ({min(rss):.1f}-{max(rss):.1f}) "
              f"| {statistics.median(cpu):.3f} ({min(cpu):.3f}-{max(cpu):.3f}) |",
              flush=True)


if __name__ == "__main__":
    main()
