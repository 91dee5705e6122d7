"""Scenario configuration: parsing, validation, derived scales, hashing.

A scenario is one JSON document holding the crystal, cavity, pump, and
frequency blocks plus optional output preferences::

    {
      "crystal": {
        "length_l": 0.01, "chi": 2e-12, "cross_section_A": 1e-8,
        "dispersion_signal": {"kind": "constant", "parameters": [1.8],
                               "validity_range": [1e14, 1e16]},
        "dispersion_idler": {...}, "dispersion_pump": {...}
      },
      "cavity": {"resonator_length_Lr": 0.05, "loss_rate_gamma": 8.12e8},
      "pump": {"field_amplitude_EP": 1e-16},
      "frequencies": {"omega_P": 3.5e15, "omega_S": 2.0e15},
      "output": {"directory": "out", "format": "csv",
                  "normalization": "peak_unity"}
    }

``frequencies`` either fixes the split explicitly (``omega_S`` and/or
``omega_I``) or supplies a ``bracket`` for the phase-matching solver; the two
styles are mutually exclusive.  Every physical field enters the scenario
hash; output preferences do not.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .biphoton import PumpParams, _continuum_kappa
from .cavity import (
    DEFAULT_REGIME_THRESHOLD,
    CavityParams,
    DerivedScales,
    RegimeReport,
    check_regime,
    free_spectral_range,
    round_trip_time,
)
from .dispersion import (
    CrystalParams,
    DispersionModel,
    FrequencyTriple,
    phase_match,
    transit_time_diff,
)
from .errors import ScenarioParseError, ScenarioValidationError
from .names import (
    OUTPUT_NORMALIZATIONS, REGIME_RATIOS, Normalization, Record, as_real, inputs, shown,
)


class ScenarioConfig(Record):
    crystal: CrystalParams
    cavity: CavityParams
    pump: PumpParams
    freqs: FrequencyTriple
    scales: DerivedScales
    regime: RegimeReport
    scenario_hash: str
    output_directory: str
    output_format: str
    normalization: Normalization


# Each physical block's JSON keys in its record's field order: the one
# schema that parses the crystal, cavity and pump blocks and hashes all four.
_BLOCKS = {
    "crystal": (CrystalParams, ("length_l", "chi", "cross_section_A", "dispersion_signal",
                                "dispersion_idler", "dispersion_pump")),
    "cavity": (CavityParams, ("resonator_length_Lr", "loss_rate_gamma")),
    "pump": (PumpParams, ("field_amplitude_EP",)),
    "frequencies": (FrequencyTriple, ("omega_P", "omega_S", "omega_I")),
}


def derive_scales(
    crystal: CrystalParams,
    cavity: CavityParams,
    pump: PumpParams,
    freqs: FrequencyTriple,
) -> DerivedScales:
    """Assemble the scale table: tau0, T, fsr, gamma, kappa.

    tau0 must be finite; T, fsr, gamma*T (the decay per round trip) and (for
    tau0 != 0) kappa finite and positive.  A scale that over- or underflows
    is a configuration error naming the input fields it comes from.
    tau0 == 0 gives kappa = +inf.
    """
    tau0 = as_real(transit_time_diff(crystal, freqs), f"{inputs('tau0')}: derived tau0", -math.inf)
    T = as_real(round_trip_time(crystal, cavity, freqs), f"{inputs('T')}: derived T", 0.0,
                strict=True)
    fsr = as_real(free_spectral_range(T), f"{inputs('T')}: derived fsr", 0.0, strict=True)
    as_real(cavity.loss_rate_gamma * T, f"{inputs('gamma', 'T')}: derived gamma*T", 0.0,
            strict=True)
    kappa = math.inf
    if tau0 != 0.0:
        try:
            kappa = _continuum_kappa(crystal, pump, freqs, tau0)
        except (ZeroDivisionError, OverflowError):  # e.g. 4*eps0*c*A underflows to 0
            kappa = math.nan
        as_real(kappa, f"{inputs('kappa')}: derived kappa", 0.0, strict=True)
    return DerivedScales(tau0, T, fsr, cavity.loss_rate_gamma, kappa)


def _physical_fingerprint(*blocks) -> dict:
    """Each block's fields (``vars`` keeps their order) under its ``_BLOCKS`` keys."""
    return {name: {key: vars(v) if isinstance(v, DispersionModel) else v
                   for key, v in zip(keys, vars(block).values())}
            for (name, (_, keys)), block in zip(_BLOCKS.items(), blocks)}


def scenario_hash(
    crystal: CrystalParams,
    cavity: CavityParams,
    pump: PumpParams,
    freqs: FrequencyTriple,
) -> str:
    """Stable 16-hex-digit digest of every physical field."""
    canonical = json.dumps(
        _physical_fingerprint(crystal, cavity, pump, freqs),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioValidationError(f"{path}: expected an object")
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioValidationError(f"{path}.{key}: missing required field")
    return obj[key]


def _dispersion(obj: dict, path: str) -> DispersionModel:
    """A dispersion block: its keys are checked here, their values by the record."""
    obj = _expect_mapping(obj, path)
    kind, params, rng = (_get(obj, key, path) for key in ("kind", "parameters", "validity_range"))
    try:
        return DispersionModel(kind, params, rng)
    except ScenarioValidationError as exc:  # names the entry: kind, parameters[i], ...
        raise ScenarioValidationError(f"{path}.{exc}") from exc
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _block(data: dict, name: str, source: str):
    """The crystal, cavity or pump block, parsed by its row of ``_BLOCKS``."""
    cls, keys = _BLOCKS[name]
    obj = _expect_mapping(_get(data, name, source), name)
    return cls(*(
        _dispersion(_get(obj, key, name), f"{name}.{key}") if key.startswith("dispersion_")
        else as_real(_get(obj, key, name), f"{name}.{key}", 0.0, strict=True)
        for key in keys
    ))


def _resolve_frequencies(obj: dict, crystal: CrystalParams) -> FrequencyTriple:
    path = "frequencies"
    obj = _expect_mapping(obj, path)
    omega_p = as_real(_get(obj, "omega_P", path), "frequencies.omega_P", 0.0, strict=True)
    explicit = "omega_S" in obj or "omega_I" in obj
    if explicit and "bracket" in obj:
        raise ScenarioValidationError(
            f"{path}: explicit frequencies and a phase-match bracket are "
            "mutually exclusive"
        )
    if explicit:
        omega_s, omega_i = (as_real(obj[key], f"{path}.{key}", 0.0, strict=True)
                            if key in obj else None for key in ("omega_S", "omega_I"))
        omega_i = omega_p - omega_s if omega_i is None else omega_i
        omega_s = omega_p - omega_i if omega_s is None else omega_s
        try:
            return FrequencyTriple(omega_p, omega_s, omega_i)
        except ValueError as exc:
            raise ScenarioValidationError(f"{path}: {exc}") from exc
    if "bracket" not in obj:
        raise ScenarioValidationError(
            f"{path}: provide omega_S/omega_I or a bracket for phase matching"
        )
    try:
        return phase_match(crystal, omega_p, obj["bracket"])
    except ScenarioValidationError as exc:  # names the bracket or its entry bracket[i]
        raise ScenarioValidationError(f"{path}.{exc}") from exc


def scenario_from_dict(data: dict, source: str = "<dict>") -> ScenarioConfig:
    data = _expect_mapping(data, source)

    crystal = _block(data, "crystal", source)
    cavity = _block(data, "cavity", source)
    pump = _block(data, "pump", source)

    freqs = _resolve_frequencies(_get(data, "frequencies", source), crystal)

    out = data.get("output", {})
    out = _expect_mapping(out, "output")
    directory = out.get("directory", ".")
    if not isinstance(directory, str):
        raise ScenarioValidationError(f"output.directory: must be a string, got {shown(directory)}")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ScenarioValidationError("output.format: must be 'csv' or 'json'")
    norm_name = out.get("normalization", Normalization.PEAK_UNITY.value)
    if norm_name not in OUTPUT_NORMALIZATIONS:
        raise ScenarioValidationError(
            f"output.normalization: must be one of {', '.join(OUTPUT_NORMALIZATIONS)}, "
            f"got {shown(norm_name)}"
        )
    normalization = Normalization(norm_name)

    threshold = as_real(data.get("regime_threshold", DEFAULT_REGIME_THRESHOLD),
                        "regime_threshold", 0.0, strict=True)

    scales = derive_scales(crystal, cavity, pump, freqs)
    regime = check_regime(scales, threshold)
    first = 1 if scales.tau0 == 0.0 else 0  # kappa/gamma = inf, as kappa, at tau0 = 0
    for check in regime.checks[first:]:
        as_real(check.value, f"{inputs(*REGIME_RATIOS[check.name])}: derived {check.name}",
                -math.inf)
    digest = scenario_hash(crystal, cavity, pump, freqs)
    return ScenarioConfig(
        crystal=crystal,
        cavity=cavity,
        pump=pump,
        freqs=freqs,
        scales=scales,
        regime=regime,
        scenario_hash=digest,
        output_directory=directory,
        output_format=str(fmt),
        normalization=normalization,
    )


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a key given twice is refused, not read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {twice!r} given twice in one object")
    return obj


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file; one not read or decoded is a ``ScenarioParseError``."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # e.g. not UTF-8, or nested too deep
        why = (f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
               if isinstance(exc, json.JSONDecodeError) else exc)
        raise ScenarioParseError(f"{path}: {why}") from exc
    return scenario_from_dict(data, source=str(path))
