"""The workloads: inputs made from the seed, a fixed operation list, checks.

An operation is one timed call: ``run()`` does the work and returns its
result, ``check(result)`` returns ``None`` or a one-line failure reason and
is never timed.  Library functions are looked up on their modules at call
time, so the tracer's wrappers are used while it is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sropo.biphoton as biphoton
import sropo.correlations as correlations
import sropo.scenario as scenario
import sropo.spectra as spectra

import checks as ck

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def raw(fn):
    """The unwrapped function, so checks never add spans or counts."""
    return getattr(fn, "__wrapped__", fn)


def perturb(result):
    """Fault injection for the self-tests: spoil one sample of a result."""
    if isinstance(result, tuple):
        return tuple(perturb(r) for r in result)
    values = getattr(result, "values", None)
    if isinstance(values, np.ndarray):
        values[int(np.argmax(np.abs(values)))] *= 1.0 - 1e-3
    amplitudes = getattr(result, "amplitudes", None)
    if isinstance(amplitudes, np.ndarray):
        amplitudes.flat[int(np.argmax(np.abs(amplitudes)))] *= 1.0 - 1e-3
    if isinstance(result, float):
        return result * (1.0 - 1e-3)
    if isinstance(result, Path):
        path = min(result.iterdir()) if result.is_dir() else result
        path.write_bytes(path.read_bytes() + b"0\n")
    return result


def _jittered(config: Path, rng: random.Random) -> dict:
    """Shipped config with L_r and gamma moved by up to 1%, inside the regime."""
    data = json.loads(config.read_text())
    cav = data["cavity"]
    cav["resonator_length_Lr"] *= 1.0 + rng.uniform(-0.01, 0.01)
    cav["loss_rate_gamma"] *= 1.0 + rng.uniform(-0.01, 0.01)
    return data


def g2_grid(scales, peaks: int) -> np.ndarray:
    """The CLI's G2 delay grid: -2|tau0| - T/8 to peaks*T + 2|tau0| in steps of |tau0|/12."""
    T, t0 = scales.round_trip_T, abs(scales.tau0)
    start, stop = -2.0 * t0 - T / 8.0, peaks * T + 2.0 * t0
    return np.linspace(start, stop, int(math.ceil((stop - start) * 12.0 / t0)) + 1)


# ---------------------------------------------------------------- kernels


class KernelsLarge:
    """Warm in-process kernel calls on the shipped comb configs.

    Nine operations.  Three passes give 27 samples: the median is the middle
    g2_exact call at 6 peaks and the tail (rank 17, p63) the middle g2_series
    call at 40 peaks, each in the middle of its own three samples.
    """

    min_passes = 3

    def __init__(self, root: Path, rng: random.Random, tiny: bool):
        cfg = root / "configs"
        self.spec = scenario.scenario_from_dict(_jittered(cfg / "spectrum_comb.json", rng))
        self.comb = scenario.scenario_from_dict(_jittered(cfg / "g2_comb.json", rng))
        s, c = self.spec, self.comb
        m_cap = 40 if tiny else None
        peaks = (1, 3) if tiny else (6, 40)
        T = s.scales.round_trip_T
        g1_tau = np.linspace(-2.0 * T, 2.0 * T, 801) if tiny else None
        self.ops = [
            Op("g1", lambda: spectra.g1("idler", s.scales, s.freqs, tau=g1_tau, m_max=m_cap),
               self._check_g1),
            Op("spectrum", lambda: spectra.spectrum("idler", s.scales, s.freqs, m_max=m_cap),
               self._check_spectrum),
        ]
        for tier, fn, oracle in (
            ("series", "g2_series", ck.series_oracle),
            ("exact", "g2_exact", ck.exact_oracle),
        ):
            for p in peaks:
                grid = g2_grid(c.scales, p)
                self.ops.append(Op(
                    f"{tier}{p}",
                    lambda fn=fn, tier=tier, grid=grid: getattr(correlations, fn)(
                        correlations.G2Request(tier, grid, m_max=m_cap), c.scales),
                    lambda r, oracle=oracle: self._check_g2(r, oracle),
                ))
        # The default points_per_mode=385 puts the grid exactly on the
        # 16-points-per-gamma limit, and about one jittered gamma in seven is
        # refused by rounding (GridTooCoarseError); 401 points stay clear.
        self.ops += [
            Op("rate_mode_sum",
               lambda: biphoton.rate_mode_sum(c.crystal, c.pump, c.freqs, c.scales),
               self._check_rate),
            Op("wavefunction64",
               lambda: biphoton.wavefunction_grid(c.scales, 64, points_per_mode=401),
               self._check_wavefunction),
            Op("wavefunction8",
               lambda: biphoton.wavefunction_grid(c.scales, 8, points_per_mode=401),
               self._check_wavefunction),
        ]

    def order(self) -> list[Op]:
        return self.ops

    def warm_up(self) -> None:
        """Run every code path once on its full grid with two modes, so lazy
        imports, cached quadrature rules and first allocations of each array
        size are paid before timing."""
        s, c = self.spec, self.comb
        spectra.g1("idler", s.scales, s.freqs, m_max=2,
                   tau=np.linspace(-10 / s.scales.gamma, 10 / s.scales.gamma, 80_217))
        spectra.spectrum("idler", s.scales, s.freqs, m_max=2)
        for tier in ("series", "exact"):
            getattr(correlations, f"g2_{tier}")(
                correlations.G2Request(tier, g2_grid(c.scales, 6), m_max=2), c.scales)
        biphoton.wavefunction_grid(c.scales, 2, points_per_mode=401)

    def _check_g1(self, r) -> str | None:
        s = self.spec.scales
        i0 = int(np.argmin(np.abs(r.axis)))
        if abs(r.values[i0] - 1.0) > ck.G1_ZERO_TOL:
            return f"g1(0) = {r.values[i0]!r}"
        idx = ck.sample_indices(r.axis.size)
        want = ck.g1_oracle(r.axis[idx], int(r.meta.extra["m_max"]), s.fsr_delta_omega,
                            s.tau0, s.gamma)
        return ck.close(r.values[idx], want, 1.0)

    def _check_spectrum(self, r) -> str | None:
        s = self.spec.scales
        m = int(r.meta.extra["m_max"])
        return ck.first_error(
            ck.peak_is_one(r.values),
            ck.normalized_match(
                r.values, ck.sample_indices(r.axis.size),
                lambda i: ck.spectrum_oracle(r.axis[i], m, s.fsr_delta_omega, s.tau0, s.gamma)),
        )

    def _check_g2(self, r, oracle) -> str | None:
        s = self.comb.scales
        tau, v = r.axis, r.values
        m = int(r.meta.extra["m_max"])
        centres = ck.g2_peak_centres(s.round_trip_T, s.tau0, s.gamma, tau[-1], -0.5 * s.tau0)
        return ck.first_error(
            ck.peak_is_one(v),
            ck.forbidden_zero(tau, v, s.tau0),
            ck.peaks_at(tau, v, centres, 0.25 * abs(s.tau0)),
            ck.normalized_match(
                v, ck.sample_indices(tau.size),
                lambda i: oracle(tau[i], m, s.fsr_delta_omega, s.tau0, s.gamma)),
        )

    def _check_rate(self, r) -> str | None:
        c = self.comb
        cont = raw(biphoton.rate_continuum)(c.crystal, c.pump, c.freqs, c.scales)
        rel = abs(r - cont) / cont
        return None if rel <= 1e-6 else f"mode sum off continuum by {rel:.3e} > 1e-6"

    def _check_wavefunction(self, r) -> str | None:
        s = self.comb.scales
        density = np.abs(r.amplitudes) ** 2
        norm = float(np.sum(np.trapezoid(density, r.detuning, axis=1)))
        if abs(norm - 1.0) > 1e-9:
            return f"norm {norm!r} != 1"
        mi = ck.sample_indices(r.modes.size, 5)
        oj = ck.sample_indices(r.detuning.size, 9)
        m, om = r.modes[mi][:, None].astype(float), r.detuning[oj][None, :]
        z = 0.5 * (m * s.fsr_delta_omega + om) * s.tau0
        psi = np.sinc(z / np.pi) * np.exp(-1j * z) / (0.5 * s.gamma - 1j * om)
        return ck.close(r.amplitudes[np.ix_(mi, oj)], r.normalization * psi,
                        float(np.max(np.abs(r.amplitudes))))


# --------------------------------------------------------------- cli_cold

CLI_COMMANDS = (
    ("scales", ["scales", "--config", "configs/g2_comb.json"]),
    ("check-regime", ["check-regime", "--config", "configs/g2_comb.json"]),
    ("rate", ["rate", "--config", "configs/g2_comb.json", "--method", "both"]),
    ("spectrum", ["spectrum", "--config", "configs/spectrum_comb.json", "--field", "idler",
                  "--plot"]),
    ("g1", ["g1", "--config", "configs/spectrum_comb.json", "--field", "idler"]),
    ("g2-series", ["g2", "--config", "configs/g2_comb.json", "--tier", "series", "--peaks",
                   "6", "--plot"]),
    ("g2-compact", ["g2", "--config", "configs/g2_comb.json", "--tier", "compact", "--peaks",
                    "6"]),
    ("g2-averaged", ["g2", "--config", "configs/detector_averaged.json", "--tier", "averaged",
                     "--resolution", "7.74e-12", "--plot"]),
    ("wavefunction", ["wavefunction", "--config", "configs/g2_comb.json"]),
    ("g1-json", ["g1", "--config", "configs/spectrum_comb.json", "--field", "idler",
                 "--format", "json"]),
    ("scales-phase-matched", ["scales", "--config", "configs/phase_matched.json"]),
)
CLI_TINY = ("scales", "check-regime", "g2-compact", "scales-phase-matched")


def read_output(path: Path):
    """A CLI output file as ('table', comments, names, rows) or ('scalars', dict)."""
    if path.suffix == ".csv":
        comments, names, rows = [], None, []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif names is None:
                names = line.split(",")
            elif line:
                rows.append([float(x) for x in line.split(",")])
        return "table", comments, names, np.array(rows)
    doc = json.loads(path.read_text())
    if "data" in doc and "columns" in doc:
        meta = [f"{k} = {v}" for k, v in doc["meta"].items()]
        return "table", meta, doc["columns"], np.array(doc["data"], dtype=float)
    flat = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{prefix}{k}.", v)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(f"{prefix}{i}.", v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix[:-1]] = float(node)

    walk("", doc)
    return "scalars", flat


def reference_entry(path: Path) -> dict:
    """Sampled rows (or every scalar) of one output file, for reference.json."""
    if path.suffix == ".svg":
        return {"kind": "svg"}
    out = read_output(path)
    if out[0] == "scalars":
        return {"kind": "scalars", "values": out[1]}
    _, _, names, rows = out
    idx = ck.sample_indices(len(rows), 24)
    return {"kind": "table", "names": names, "rows": len(rows),
            "index": idx.tolist(), "values": rows[idx].tolist()}


def _header_value(comments, key: str) -> float:
    for c in comments:
        if c.startswith(key):
            return float(c.split("=", 1)[1])
    raise KeyError(key)


class CliCold:
    """Each shipped CLI command in a fresh interpreter, as users run them.

    Three passes (33 commands, about a minute); four do not fit the time a
    full measurement round may take.  With 33 samples the median (rank 17)
    is among the small commands and the tail (rank 23, p69.7) among the
    rate and spectrum commands, below the six g1 commands.
    """

    min_passes = 3

    def __init__(self, root: Path, rng: random.Random, tiny: bool, work: Path, env: dict):
        self.root, self.work, self.env = root, work, env
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.digests: dict[str, dict] = {}
        self.traced = False
        self.child_results: list[dict] = []
        self.rng = rng
        self._run_id = 0
        commands = [c for c in CLI_COMMANDS if not tiny or c[0] in CLI_TINY]
        self.ops = [
            Op(name, lambda n=name, a=argv: self._run(n, a), lambda r, n=name: self._check(n, r))
            for name, argv in commands
        ]

    def order(self):
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        pass  # every command pays the cold start; nothing is warmed

    def _run(self, name: str, argv: list[str]):
        self._run_id += 1
        out = self.work / f"{self._run_id:04d}-{name}"
        argv = argv + ["--out", str(out)]
        if self.traced:
            result_file = self.work / f"{self._run_id:04d}-{name}.trace.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(result_file)] + argv
        else:
            result_file = None
            cmd = [sys.executable, "-m", "sropo"] + argv
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=150)
        return out, proc, result_file

    def _check(self, name: str, result) -> str | None:
        out, proc, result_file = result
        try:
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stdout[-200:]!r} {proc.stderr[-300:]!r}"
            if result_file is not None:
                self.child_results.append(json.loads(result_file.read_text()))
            return self._check_files(name, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if result_file is not None:
                result_file.unlink(missing_ok=True)

    def _check_files(self, name: str, out: Path) -> str | None:
        expected = self.reference[name]
        present = sorted(p.name for p in out.iterdir())
        if present != sorted(expected):
            return f"files {present}, expected {sorted(expected)}"
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in present}
        first = self.digests.setdefault(name, digests)
        if digests != first:
            return "output not byte-identical to the previous pass"
        for fname, ref in expected.items():
            err = self._check_file(name, out / fname, ref)
            if err:
                return f"{fname}: {err}"
        return None

    def _check_file(self, name: str, path: Path, ref: dict) -> str | None:
        if ref["kind"] == "svg":
            text = path.read_text()
            ok = text.startswith("<svg") and text.endswith("</svg>\n") and "<polyline" in text
            return None if ok else "not a complete SVG document"
        out = read_output(path)
        if ref["kind"] == "scalars":
            got = out[1]
            if sorted(got) != sorted(ref["values"]):
                return f"fields {sorted(got)}"
            if name == "rate":
                rel = abs(got["kappa_mode_sum_per_s"] / got["kappa_continuum_per_s"] - 1)
                if rel > 1e-6:
                    return f"mode sum off continuum by {rel:.3e} > 1e-6"
            for key, want in ref["values"].items():
                err = ck.close(got[key], want, abs(want))
                if err:
                    return f"{key}: {err}"
            return None
        _, comments, names, rows = out
        if names != ref["names"] or len(rows) != ref["rows"]:
            return f"{len(rows)} rows of {names}, expected {ref['rows']} of {ref['names']}"
        want = np.array(ref["values"])
        # The real and imaginary parts of one complex value share its scale.
        parts = [j for j, n in enumerate(names) if n.startswith(("re_", "im_"))]
        for j in range(want.shape[1]):
            cols = parts if j in parts else [j]
            scale = float(np.max(np.abs(rows[:, cols])))
            err = ck.close(rows[ref["index"], j], want[:, j], scale)
            if err:
                return f"column {names[j]}: {err}"
        return self._invariants(name, comments, names, rows)

    def _invariants(self, name, comments, names, rows) -> str | None:
        tau, v = rows[:, 0], rows[:, 1]
        if name.startswith("g1"):
            i0 = int(np.argmin(np.abs(tau)))
            if abs(v[i0] - 1.0) > ck.G1_ZERO_TOL or abs(rows[i0, 2]) > ck.G1_ZERO_TOL:
                return f"g1(0) = {v[i0]!r}{rows[i0, 2]:+.3e}j"
            return None
        if name == "spectrum":
            return ck.peak_is_one(v)
        if name == "wavefunction":
            norm = 0.0
            for m in np.unique(rows[:, 0]):
                sel = rows[:, 0] == m
                norm += np.trapezoid(rows[sel, 2] ** 2 + rows[sel, 3] ** 2, rows[sel, 1])
            return None if abs(norm - 1.0) <= 1e-9 else f"norm {norm!r} != 1"
        if name.startswith("g2"):
            tau0 = _header_value(comments, "tau0_s")
            T = _header_value(comments, "round_trip_T_s")
            gamma = _header_value(comments, "gamma_rad_per_s")
            if name == "g2-averaged":
                centres = ck.g2_peak_centres(T, tau0, gamma, tau[-1], 0.0)
                return ck.first_error(ck.peak_is_one(v), ck.peaks_at(tau, v, centres, 7.74e-12 / 4))
            centres = ck.g2_peak_centres(T, tau0, gamma, tau[-1], -0.5 * tau0)
            return ck.first_error(
                ck.peak_is_one(v),
                ck.forbidden_zero(tau, v, tau0),
                ck.peaks_at(tau, v, centres, 0.25 * abs(tau0)),
            )
        return None


def build(name: str, root: Path, seed: int, tiny: bool, work: Path, env: dict):
    rng = random.Random(f"{name}:{seed}")
    if name == "kernels_large":
        return KernelsLarge(root, rng, tiny)
    if name == "cli_cold":
        return CliCold(root, rng, tiny, work, env)
    raise ValueError(f"unknown workload {name!r}")

