"""Biphoton generation in a single-resonant OPO far below threshold.

Forward simulator for a continuously pumped type-II down-conversion crystal
inside a cavity that resonates the signal but not the idler: generation
rates, signal/idler output spectra, and the asymmetric second-order
signal-idler cross-correlation, all from physical crystal/cavity parameters.

Each public name is imported from its submodule on first use, so that
``import sropo`` and the scalar commands never load numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "biphoton": "BiphotonAmplitudeGrid PumpParams phi_analytic rate_continuum "
    "rate_mode_sum wavefunction_grid",
    "cavity": "CavityParams DerivedScales RegimeCheck RegimeReport check_regime "
    "free_spectral_range resonance_mode_number round_trip_time",
    "correlations": "G2Request g2_averaged g2_compact g2_exact g2_series",
    "dispersion": "CrystalParams DispersionKind DispersionModel FrequencyTriple "
    "group_velocity phase_match refractive_index transit_time_diff wavenumber",
    "errors": "DegenerateDispersionError DegenerateGroupVelocityError GridTooCoarseError "
    "NoSignChangeError NonConvergenceError OutOfRangeError ResolutionTooFineError "
    "ScenarioParseError ScenarioValidationError SropoError",
    "names": "G2Tier Normalization",
    "scenario": "ScenarioConfig derive_scales load_scenario scenario_from_dict "
    "scenario_hash",
    "spectra": "FieldName envelope_zero_mode g1 spectrum",
    "trace": "Trace TraceKind TraceMeta",
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(__all__)
