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
The parser owns the file's structure (objects, keys, their paths); the records
and ``phase_match`` own every value rule.  Each refusal carries scenario paths
as its ``sources``.
"""

from __future__ import annotations

import json
import math
import sys
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
    OUTPUT_NORMALIZATIONS, REGIME_RATIOS, Normalization, Record, as_real, shown,
)
try:  # the interpreter's own SHA-256: ``import hashlib`` loads OpenSSL's first
    sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # a build without it
    from hashlib import sha256


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
    tau0 = as_real(transit_time_diff(crystal, freqs), "derived tau0", -math.inf, "tau0")
    T = as_real(round_trip_time(crystal, cavity, freqs), "derived T", 0.0, "T", strict=True)
    fsr = as_real(free_spectral_range(T), "derived fsr", 0.0, "T", strict=True)
    as_real(cavity.loss_rate_gamma * T, "derived gamma*T", 0.0, "gamma", "T", strict=True)
    kappa = math.inf
    if tau0 != 0.0:
        try:
            kappa = _continuum_kappa(crystal, pump, freqs, tau0)
        except (ZeroDivisionError, OverflowError):  # e.g. 4*eps0*c*A underflows to 0
            kappa = math.nan
        as_real(kappa, "derived kappa", 0.0, "kappa", strict=True)
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
    return sha256(canonical.encode("ascii")).hexdigest()[:16]


def _refusal(path: str, rule: str) -> ScenarioValidationError:
    return ScenarioValidationError("{}: " + rule, (path,), own=True)


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise _refusal(path, "expected an object")
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise _refusal(f"{path}.{key}", "missing required field")
    return obj[key]


def _named(path: str, build, *args):
    """``build(*args)``, its refusal's sources named under ``path``: a record field by its
    ``_BLOCKS`` key, an entry (``parameters[0]``) as it is; a refusal naming none by ``path``."""
    try:
        return build(*args)
    except ScenarioValidationError as exc:
        cls, keys = _BLOCKS.get(path, (Record, ()))
        key = dict(zip(cls._fields, keys))
        sources = [f"{path}.{key.get(s, s)}" for s in exc.sources]
        raise (ScenarioValidationError(exc.text, sources, exc.own) if sources
               else _refusal(path, exc.text)) from exc


def _dispersion(obj: dict, path: str) -> DispersionModel:
    """A dispersion block: its keys (the record's fields) read here, their values by the record."""
    obj = _expect_mapping(obj, path)
    return _named(path, DispersionModel, *(_get(obj, key, path) for key in DispersionModel._fields))


def _block(data: dict, name: str, source: str):
    """The crystal, cavity or pump block: keys read by its ``_BLOCKS`` row, values by its record."""
    cls, keys = _BLOCKS[name]
    obj = _expect_mapping(_get(data, name, source), name)
    return _named(name, cls, *(
        _dispersion(_get(obj, key, name), f"{name}.{key}") if key.startswith("dispersion_")
        else _get(obj, key, name) for key in keys
    ))


def _resolve_frequencies(obj: dict, crystal: CrystalParams) -> FrequencyTriple:
    """The triple, given (a partner left out derived here) or phase-matched."""
    path = "frequencies"
    obj = _expect_mapping(obj, path)
    omega_p = _get(obj, "omega_P", path)
    given = [key for key in ("omega_S", "omega_I") if key in obj]
    if given and "bracket" in obj:
        raise _refusal(path, "explicit frequencies and a phase-match bracket are "
                             "mutually exclusive")
    if "bracket" in obj:
        return _named(path, phase_match, crystal, omega_p, obj["bracket"])
    if not given:
        raise _refusal(path, "provide omega_S/omega_I or a bracket for phase matching")
    omega = {k: as_real(obj[k], f"{path}.{k}", 0.0, strict=True) for k in ("omega_P", *given)}
    for key, other in (("omega_I", "omega_S"), ("omega_S", "omega_I")):
        if key not in omega:  # the partner left out, from the two fields given
            omega[key] = as_real(omega["omega_P"] - omega[other], f"derived {key}", 0.0,
                                 f"{path}.omega_P", f"{path}.{other}", strict=True)
    return _named(path, FrequencyTriple, *(omega[key] for key in _BLOCKS[path][1]))


def scenario_from_dict(data: dict, source: str = "<dict>") -> ScenarioConfig:
    data = _expect_mapping(data, source)

    crystal = _block(data, "crystal", source)
    cavity = _block(data, "cavity", source)
    pump = _block(data, "pump", source)

    freqs = _resolve_frequencies(_get(data, "frequencies", source), crystal)

    out = _expect_mapping(data.get("output", {}), "output")
    directory = out.get("directory", ".")
    if not isinstance(directory, str):
        raise _refusal("output.directory", f"must be a string, got {shown(directory)}")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise _refusal("output.format", f"must be 'csv' or 'json', got {shown(fmt)}")
    norm_name = out.get("normalization", Normalization.PEAK_UNITY.value)
    if norm_name not in OUTPUT_NORMALIZATIONS:
        raise _refusal("output.normalization",
                       f"must be one of {', '.join(OUTPUT_NORMALIZATIONS)}, got {shown(norm_name)}")
    normalization = Normalization(norm_name)

    threshold = as_real(data.get("regime_threshold", DEFAULT_REGIME_THRESHOLD),
                        "regime_threshold", 0.0, strict=True)

    scales = derive_scales(crystal, cavity, pump, freqs)
    regime = check_regime(scales, threshold)
    first = 1 if scales.tau0 == 0.0 else 0  # kappa/gamma = inf, as kappa, at tau0 = 0
    for check in regime.checks[first:]:
        as_real(check.value, f"derived {check.name}", -math.inf, *REGIME_RATIOS[check.name])
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
