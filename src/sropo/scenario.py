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
    DispersionKind,
    DispersionModel,
    FrequencyTriple,
    phase_match,
    transit_time_diff,
)
from .errors import ScenarioParseError, ScenarioValidationError
from .names import Normalization, Record

# output.normalization: the two a spectrum supports (no other command reads it)
_OUTPUT_NORMALIZATIONS = (Normalization.PEAK_UNITY.value, Normalization.UNIT_INTEGRAL.value)


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
# The input fields each derived scale is computed from, named when it fails.
_TAU0_INPUTS = "crystal.length_l, crystal.dispersion_signal, crystal.dispersion_idler"
_T_INPUTS = "crystal.length_l, crystal.dispersion_signal, cavity.resonator_length_Lr"
_KAPPA_INPUTS = ("crystal.chi, crystal.cross_section_A, pump.field_amplitude_EP, "
                 + _TAU0_INPUTS)
_GAMMA_T_INPUTS = "cavity.loss_rate_gamma, " + _T_INPUTS
# The inputs of each regime ratio (kappa/gamma, gamma/fsr, fsr*|tau0|).
_RATIO_INPUTS = (_KAPPA_INPUTS + ", cavity.loss_rate_gamma", _GAMMA_T_INPUTS,
                 f"{_T_INPUTS}, {_TAU0_INPUTS}")


def _checked(name: str, value: float, inputs: str, positive: bool = True) -> float:
    """``value`` as a Python float, so that what is built from it is float64."""
    if not math.isfinite(value) or (positive and value <= 0):
        raise ScenarioValidationError(
            f"{inputs}: derived {name} = {value!r} over- or underflows a double"
        )
    return float(value)


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
    tau0 = transit_time_diff(crystal, freqs)
    _checked("tau0", tau0, _TAU0_INPUTS, positive=False)
    T = _checked("T", round_trip_time(crystal, cavity, freqs), _T_INPUTS)
    fsr = _checked("fsr", free_spectral_range(T), _T_INPUTS)
    _checked("gamma*T", cavity.loss_rate_gamma * T, _GAMMA_T_INPUTS)
    kappa = math.inf
    if tau0 != 0.0:
        try:
            kappa = _continuum_kappa(crystal, pump, freqs, tau0)
        except (ZeroDivisionError, OverflowError):  # e.g. 4*eps0*c*A underflows to 0
            kappa = math.nan
        _checked("kappa", kappa, _KAPPA_INPUTS)
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


def _is_number(value) -> bool:
    """A finite JSON number; booleans, NaN and Infinity are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(obj: dict, key: str, path: str) -> float:
    value = _get(obj, key, path)
    if not _is_number(value):
        raise ScenarioValidationError(f"{path}.{key}: expected a finite number")
    value = float(value)
    if value <= 0:
        raise ScenarioValidationError(f"{path}.{key}: must be positive")
    return value


def _dispersion(obj: dict, path: str) -> DispersionModel:
    obj = _expect_mapping(obj, path)
    kind = _get(obj, "kind", path)
    try:
        kind = DispersionKind(kind)
    except ValueError:
        allowed = ", ".join(k.value for k in DispersionKind)
        raise ScenarioValidationError(
            f"{path}.kind: unknown kind {kind!r} (allowed: {allowed})"
        ) from None
    params = _get(obj, "parameters", path)
    rng = _get(obj, "validity_range", path)
    if not isinstance(params, list) or not all(map(_is_number, params)):
        raise ScenarioValidationError(
            f"{path}.parameters: expected a list of finite numbers"
        )
    if not isinstance(rng, list) or len(rng) != 2 or not all(map(_is_number, rng)):
        raise ScenarioValidationError(
            f"{path}.validity_range: expected [omega_min, omega_max]"
        )
    try:
        return DispersionModel(kind, tuple(params), (rng[0], rng[1]))
    except ValueError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _block(data: dict, name: str, source: str):
    """The crystal, cavity or pump block, parsed by its row of ``_BLOCKS``."""
    cls, keys = _BLOCKS[name]
    obj = _expect_mapping(_get(data, name, source), name)
    return cls(*(
        _dispersion(_get(obj, key, name), f"{name}.{key}") if key.startswith("dispersion_")
        else _number(obj, key, name)
        for key in keys
    ))


def _resolve_frequencies(obj: dict, crystal: CrystalParams) -> FrequencyTriple:
    path = "frequencies"
    obj = _expect_mapping(obj, path)
    omega_p = _number(obj, "omega_P", path)
    explicit = "omega_S" in obj or "omega_I" in obj
    if explicit and "bracket" in obj:
        raise ScenarioValidationError(
            f"{path}: explicit frequencies and a phase-match bracket are "
            "mutually exclusive"
        )
    if explicit:
        omega_s = _number(obj, "omega_S", path) if "omega_S" in obj else None
        omega_i = _number(obj, "omega_I", path) if "omega_I" in obj else omega_p - omega_s
        omega_s = omega_p - omega_i if omega_s is None else omega_s
        try:
            return FrequencyTriple(omega_p, omega_s, omega_i)
        except ValueError as exc:
            raise ScenarioValidationError(f"{path}: {exc}") from exc
    if "bracket" not in obj:
        raise ScenarioValidationError(
            f"{path}: provide omega_S/omega_I or a bracket for phase matching"
        )
    bracket = obj["bracket"]
    if not isinstance(bracket, list) or len(bracket) != 2 or not all(
        map(_is_number, bracket)
    ):
        raise ScenarioValidationError(f"{path}.bracket: expected [omega_lo, omega_hi]")
    if not 0 < bracket[0] < bracket[1] < omega_p:
        raise ScenarioValidationError(
            f"{path}.bracket: must satisfy 0 < lo < hi < omega_P = {omega_p!r}, "
            f"got {bracket!r}"
        )
    return phase_match(crystal, omega_p, (bracket[0], bracket[1]))


def scenario_from_dict(data: dict, source: str = "<dict>") -> ScenarioConfig:
    data = _expect_mapping(data, source)

    crystal = _block(data, "crystal", source)
    cavity = _block(data, "cavity", source)
    pump = _block(data, "pump", source)
    if cavity.resonator_length_lr < crystal.length_l:
        raise ScenarioValidationError(
            "cavity.resonator_length_Lr: must be at least crystal.length_l "
            f"({cavity.resonator_length_lr!r} < {crystal.length_l!r})"
        )

    freqs = _resolve_frequencies(_get(data, "frequencies", source), crystal)

    out = data.get("output", {})
    out = _expect_mapping(out, "output")
    directory = out.get("directory", ".")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ScenarioValidationError("output.format: must be 'csv' or 'json'")
    norm_name = out.get("normalization", Normalization.PEAK_UNITY.value)
    if norm_name not in _OUTPUT_NORMALIZATIONS:
        raise ScenarioValidationError(
            f"output.normalization: must be one of {', '.join(_OUTPUT_NORMALIZATIONS)}, "
            f"got {norm_name!r}"
        )
    normalization = Normalization(norm_name)

    threshold = data.get("regime_threshold", DEFAULT_REGIME_THRESHOLD)
    if not _is_number(threshold):
        raise ScenarioValidationError("regime_threshold: expected a finite number")

    scales = derive_scales(crystal, cavity, pump, freqs)
    regime = check_regime(scales, float(threshold))
    first = 1 if scales.tau0 == 0.0 else 0  # kappa/gamma = inf, as kappa, at tau0 = 0
    for check, inputs in list(zip(regime.checks, _RATIO_INPUTS))[first:]:
        _checked(check.name, check.value, inputs, positive=False)
    digest = scenario_hash(crystal, cavity, pump, freqs)
    return ScenarioConfig(
        crystal=crystal,
        cavity=cavity,
        pump=pump,
        freqs=freqs,
        scales=scales,
        regime=regime,
        scenario_hash=digest,
        output_directory=str(directory),
        output_format=str(fmt),
        normalization=normalization,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file; fails with a field-path message."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data, source=str(path))
