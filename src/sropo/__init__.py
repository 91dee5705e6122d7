"""Biphoton generation in a single-resonant OPO far below threshold.

Forward simulator for a continuously pumped type-II down-conversion crystal
inside a cavity that resonates the signal but not the idler: generation
rates, signal/idler output spectra, and the asymmetric second-order
signal-idler cross-correlation, all from physical crystal/cavity parameters.
"""

__version__ = "0.1.0"

from .biphoton import (
    BiphotonAmplitudeGrid,
    PumpParams,
    phi_analytic,
    rate_continuum,
    rate_mode_sum,
    wavefunction_grid,
)
from .cavity import (
    CavityParams,
    DerivedScales,
    RegimeCheck,
    RegimeReport,
    check_regime,
    free_spectral_range,
    resonance_mode_number,
    round_trip_time,
)
from .correlations import (
    G2Request,
    G2Tier,
    g2_averaged,
    g2_compact,
    g2_exact,
    g2_series,
)
from .dispersion import (
    CrystalParams,
    DispersionKind,
    DispersionModel,
    FrequencyTriple,
    dn_domega,
    group_velocity,
    phase_match,
    refractive_index,
    transit_time_diff,
    wavenumber,
)
from .errors import (
    DegenerateDispersionError,
    DegenerateGroupVelocityError,
    GeometryError,
    GridTooCoarseError,
    NoSignChangeError,
    NonConvergenceError,
    OutOfRangeError,
    ResolutionTooFineError,
    ScenarioParseError,
    ScenarioValidationError,
    SropoError,
)
from .scenario import (
    ScenarioConfig,
    derive_scales,
    load_scenario,
    scenario_from_dict,
    scenario_hash,
)
from .spectra import FieldName, envelope_zero_mode, g1, spectrum
from .trace import ComplexTrace, Normalization, Trace, TraceKind, TraceMeta

__all__ = [
    "__version__",
    "BiphotonAmplitudeGrid",
    "PumpParams",
    "phi_analytic",
    "rate_continuum",
    "rate_mode_sum",
    "wavefunction_grid",
    "CavityParams",
    "DerivedScales",
    "RegimeCheck",
    "RegimeReport",
    "check_regime",
    "free_spectral_range",
    "resonance_mode_number",
    "round_trip_time",
    "G2Request",
    "G2Tier",
    "g2_averaged",
    "g2_compact",
    "g2_exact",
    "g2_series",
    "CrystalParams",
    "DispersionKind",
    "DispersionModel",
    "FrequencyTriple",
    "dn_domega",
    "group_velocity",
    "phase_match",
    "refractive_index",
    "transit_time_diff",
    "wavenumber",
    "DegenerateDispersionError",
    "DegenerateGroupVelocityError",
    "GeometryError",
    "GridTooCoarseError",
    "NoSignChangeError",
    "NonConvergenceError",
    "OutOfRangeError",
    "ResolutionTooFineError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SropoError",
    "ScenarioConfig",
    "derive_scales",
    "load_scenario",
    "scenario_from_dict",
    "scenario_hash",
    "FieldName",
    "envelope_zero_mode",
    "g1",
    "spectrum",
    "ComplexTrace",
    "Normalization",
    "Trace",
    "TraceKind",
    "TraceMeta",
]
