"""Golden CLI outputs: record ``tests/golden.json``, or compare against it.

    python tests/record_golden.py           # run every invocation, rewrite the manifest
    python tests/record_golden.py --check   # largest deviation of each entry

Each invocation runs ``sropo.cli.main`` in process from the repository root
with ``--out`` in a scratch directory.  Its entry holds the exit code, stdout
with that directory written as ``<work>``, and for every file written the
SHA-256 plus a sample: the header and a few evenly spaced rows of a table,
the whole of a report.  A table also records ``data_sha256``, the SHA-256 of
its data alone: the CSV lines after the column row, or the JSON ``data``
array.  The manifest also records what the bytes depend on past the code
(``machine``): numpy's version, the SIMD targets numpy dispatches to on the
CPU, and ``OPENBLAS_CORETYPE`` if it is set.  ``tests/test_golden.py``
compares bytes when all of them are as recorded, and the samples within
``RTOL`` otherwise.

``--check`` labels each entry ``identical``, ``header only`` (exit code,
stdout, table data and every other file as recorded: only table headers
moved) or ``differs`` (with its deviation).  A change that alters an output
re-records the manifest and lists each changed entry with that label.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from conftest import ROUND_TRIP, scenario_dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "golden.json"
SAMPLE_ROWS = 9
# Largest sample deviation tolerated on a machine other than the recorded one.
# With numpy's dispatched SIMD kernels switched off (NPY_DISABLE_CPU_FEATURES=
# "X86_V3 X86_V4 AVX512_ICL AVX512_SPR") the worst entry, g2-series, deviates
# by 2.7e-13; the bound leaves a factor of about 40 for other FFT builds.
RTOL = 1e-11


def _sellmeier(*parameters) -> dict:
    return {"kind": "sellmeier", "parameters": list(parameters),
            "validity_range": [8e14, 6e15]}  # 0.31-2.4 um


def _phase_matched(bracket: list) -> dict:
    data = json.loads((ROOT / "configs" / "phase_matched.json").read_text(encoding="utf-8"))
    data["frequencies"]["bracket"] = bracket
    return data


_SELLMEIER = scenario_dict()
_SELLMEIER["crystal"].update(  # fused silica signal; BK7 glass idler and pump
    dispersion_signal=_sellmeier(0.6961663, 0.4079426, 0.8974794,
                                 0.004679148, 0.01351206, 97.934),
    dispersion_idler=_sellmeier(1.03961212, 0.231792344, 1.01046945,
                                0.00600069867, 0.0200179144, 103.560653),
)
_SELLMEIER["crystal"]["dispersion_pump"] = _SELLMEIER["crystal"]["dispersion_idler"]

# Scenarios written next to the output directory; an argument "@name" names one.
SCENARIOS = {
    "tau0-zero": scenario_dict(idler_n=1.8),
    "regime-fail": scenario_dict(gamma=0.5 * 2 * math.pi / ROUND_TRIP),
    "unit-integral": scenario_dict(output={"format": "csv",
                                           "normalization": "unit_integral"}),
    # no scan point of this bracket is the root: the bisection iterates
    "bracket-off-grid": _phase_matched([1.81e15, 2.2e15]),
    "sellmeier": _SELLMEIER,
}

_G2 = "g2 --config configs/g2_comb.json"
_SPECTRUM = "spectrum --config configs/spectrum_comb.json --field idler"
INVOCATIONS = {
    # the benchmark's cli_cold commands
    "scales": "scales --config configs/g2_comb.json",
    "check-regime": "check-regime --config configs/g2_comb.json",
    "rate": "rate --config configs/g2_comb.json --method both",
    "spectrum": f"{_SPECTRUM} --plot",
    "g1": "g1 --config configs/spectrum_comb.json --field idler",
    "g2-series": f"{_G2} --tier series --peaks 6 --plot",
    "g2-compact": f"{_G2} --tier compact --peaks 6",
    "g2-averaged": "g2 --config configs/detector_averaged.json --tier averaged "
                   "--resolution 7.74e-12 --plot",
    "wavefunction": "wavefunction --config configs/g2_comb.json",
    "g1-json": "g1 --config configs/spectrum_comb.json --field idler --format json",
    "scales-phase-matched": "scales --config configs/phase_matched.json",
    # formats, plots and grid overrides
    "rate-continuum-phase-matched": "rate --config configs/phase_matched.json",
    "check-regime-averaged": "check-regime --config configs/detector_averaged.json",
    "g2-exact-json": f"{_G2} --tier exact --peaks 3 --format json",
    "g2-exact-points": f"{_G2} --tier exact --peaks 2 --points 5000 --m-max 40",
    "g2-compact-json-plot": f"{_G2} --tier compact --peaks 2 --format json --plot",
    "spectrum-signal-json": "spectrum --config configs/g2_comb.json --field signal "
                            "--window-modes 3 --format json",
    "spectrum-window-points-m-max": f"{_SPECTRUM} --window-modes 3 --points 2001 "
                                    "--m-max 5",
    "g1-signal-plot": "g1 --config configs/spectrum_comb.json --field signal "
                      "--points 3001 --window-gammas 2 --m-max 3 --plot",
    "wavefunction-json-plot": "wavefunction --config configs/g2_comb.json --modes 2 "
                              "--points-per-mode 401 --format json --plot",
    # exit 1: configuration errors
    "missing-config": "scales --config configs/missing.json",
    "bad-flag": f"{_G2} --tier compact --peaks -1",
    "averaged-no-resolution": f"{_G2} --tier averaged",
    "oversized-grid": f"{_SPECTRUM} --points 1000000000000001",
    # exit 2: numeric errors; exit 3: regime failure
    "g2-series-too-coarse": f"{_G2} --tier series --points 3",
    "spectrum-too-coarse": f"{_SPECTRUM} --points 5",
    "strict-regime": "scales --config @regime-fail --strict-regime",
    "regime-fail": "check-regime --config @regime-fail",
    # tau0 = 0
    "tau0-zero-scales": "scales --config @tau0-zero",
    "tau0-zero-rate": "rate --config @tau0-zero --method both",
    "tau0-zero-g2-exact": "g2 --config @tau0-zero --tier exact",
    "tau0-zero-g2-series": "g2 --config @tau0-zero --tier series",
    "tau0-zero-g2-compact": "g2 --config @tau0-zero --tier compact",
    "tau0-zero-g2-averaged": "g2 --config @tau0-zero --tier averaged "
                             "--resolution 7.74e-12 --peaks 2",
    "tau0-zero-spectrum": "spectrum --config @tau0-zero --field idler",
    "tau0-zero-spectrum-m-max": "spectrum --config @tau0-zero --field idler --m-max 10",
    "tau0-zero-spectrum-window": "spectrum --config @tau0-zero --field idler "
                                 "--window-modes 3",
    "tau0-zero-spectrum-window-m-max": "spectrum --config @tau0-zero --field idler "
                                       "--window-modes 3 --m-max 10",
    "tau0-zero-g1": "g1 --config @tau0-zero --field signal",
    "tau0-zero-g1-m-max": "g1 --config @tau0-zero --field signal --m-max 10",
    # a unit-integral spectrum, a bisected phase match and Sellmeier indices
    "spectrum-unit-integral": "spectrum --config @unit-integral --field idler",
    "scales-bracket-off-grid": "scales --config @bracket-off-grid",
    "scales-sellmeier": "scales --config @sellmeier",
    "rate-sellmeier": "rate --config @sellmeier --method both",
}


def run(command: str, work: Path) -> dict:
    """Run one invocation in process; its entry as the manifest stores it."""
    from sropo.cli import main

    argv = []
    for word in command.split():
        if word.startswith("@"):
            path = work / f"{word[1:]}.json"
            path.write_text(json.dumps(SCENARIOS[word[1:]]), encoding="utf-8")
            word = str(path)
        argv.append(word)
    out = work / "out"
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the commands name configs/ relative to the root
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse refusing a flag
                code = exc.code
    finally:
        os.chdir(cwd)
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {
        "command": command,
        "exit": code,
        "stdout": stdout.getvalue().replace(str(work), "<work>"),
        "files": {p.name: _describe(p) for p in files},
    }


def _describe(path: Path) -> dict:
    raw = path.read_bytes()
    entry = {"sha256": hashlib.sha256(raw).hexdigest()}
    if path.suffix == ".svg":
        return entry  # drawn from the table beside it; compared by bytes only
    if path.suffix == ".json":
        head = json.loads(raw)
        rows = head.pop("data", None)
        data = json.dumps(rows).encode("ascii")
    else:
        lines = raw.decode("ascii").splitlines()
        head = [line for line in lines if line.startswith("#")]
        head.append(lines[len(head)])  # the column names
        rows = [[float(v) for v in line.split(",")] for line in lines[len(head):]]
        data = raw.split(b"\n", len(head))[-1]  # the bytes after the column row
    entry["head"] = head
    if rows is not None:
        entry["data_sha256"] = hashlib.sha256(data).hexdigest()
        last = len(rows) - 1
        picks = sorted({i * last // (SAMPLE_ROWS - 1) for i in range(SAMPLE_ROWS)})
        entry["rows"] = len(rows)
        entry["sample"] = [[i, rows[i]] for i in picks]
    return entry


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _text_deviation(expected: str, actual: str) -> float:
    """Numbers in the text compared relatively; everything else exactly."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return math.inf
    pairs = zip(_NUMBER.findall(expected), _NUMBER.findall(actual))
    return max((_relative(float(a), float(b)) for a, b in pairs), default=0.0)


def _deviation(expected, actual) -> float:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return math.inf
        return max((_deviation(expected[k], actual[k]) for k in expected), default=0.0)
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return math.inf
        return max(map(_deviation, expected, actual), default=0.0)
    if isinstance(expected, str) and isinstance(actual, str):
        return _text_deviation(expected, actual)
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return _relative(expected, actual)
    return 0.0 if expected == actual else math.inf


def _sample_deviation(expected: list, actual: list) -> float:
    """Rows compared column by column, relative to the column's largest value."""
    if [(i, len(row)) for i, row in expected] != [(i, len(row)) for i, row in actual]:
        return math.inf
    worst = 0.0
    for j in range(len(expected[0][1])):
        pairs = [(e[j], a[j]) for (_, e), (_, a) in zip(expected, actual)]
        scale = max(max(abs(e), abs(a)) for e, a in pairs)
        worst = max([worst, *(abs(e - a) / scale for e, a in pairs if e != a)])
    return worst


def fingerprint(entry: dict) -> tuple:
    """What byte comparison compares: exit code, stdout and file digests."""
    digests = {name: file["sha256"] for name, file in entry["files"].items()}
    return entry["exit"], entry["stdout"], digests


def data_fingerprint(entry: dict) -> tuple:
    """``fingerprint`` with each table's data digest for its file digest: equal
    for two entries whose outputs differ in table headers alone."""
    digests = {name: file.get("data_sha256", file["sha256"])
               for name, file in entry["files"].items()}
    return entry["exit"], entry["stdout"], digests


def deviation(expected: dict, actual: dict) -> float:
    """Largest relative deviation of ``actual`` from ``expected``, hashes aside;
    inf where exit code, file names, text around numbers or row counts differ."""
    if expected["exit"] != actual["exit"] or sorted(expected["files"]) != sorted(
        actual["files"]
    ):
        return math.inf
    worst = _text_deviation(expected["stdout"], actual["stdout"])
    for name, file_e in expected["files"].items():
        file_a = actual["files"][name]
        worst = max(worst, _deviation(file_e.get("head"), file_a.get("head")))
        if file_e.get("rows") != file_a.get("rows"):
            return math.inf
        if "sample" in file_e:
            worst = max(worst, _sample_deviation(file_e["sample"], file_a["sample"]))
    return worst


def machine() -> dict:
    """numpy's version, the SIMD targets numpy dispatches to on this CPU (the
    exp and log paths, among others, round differently on each), and the
    OpenBLAS core OPENBLAS_CORETYPE forces, if it is set."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    facts = {"numpy": numpy.__version__, "numpy_cpu_dispatch": found}
    if "OPENBLAS_CORETYPE" in os.environ:
        facts["openblas_coretype"] = os.environ["OPENBLAS_CORETYPE"]
    return facts


def recorded_machine(manifest: dict) -> dict:
    return {key: value for key, value in manifest.items() if key != "entries"}


def comparison_mode() -> str:
    recorded = recorded_machine(json.loads(MANIFEST.read_text(encoding="utf-8")))
    if machine() == recorded:
        return f"bytes ({recorded}, as recorded)"
    return f"samples within {RTOL:g} ({machine()}, recorded on {recorded})"


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if check else None
    entries = {}
    for name, command in INVOCATIONS.items():
        with tempfile.TemporaryDirectory() as work:
            entries[name] = run(command, Path(work))
        if check and name not in old["entries"]:
            print(f"{name}: not recorded")
        elif check:
            expected, actual = old["entries"][name], entries[name]
            if fingerprint(expected) == fingerprint(actual):
                print(f"{name}: identical, deviation 0")
            elif data_fingerprint(expected) == data_fingerprint(actual):
                print(f"{name}: header only")
            else:
                print(f"{name}: differs, deviation {deviation(expected, actual):.3g}")
    if not check:
        manifest = {**machine(), "entries": entries}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {len(entries)} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
