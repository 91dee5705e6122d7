"""The value types: immutable records with value equality, or identity for the
three array holders, and a ``replace`` that validates the copy again."""

import pickle

import numpy as np
import pytest

import sropo.peaks
from conftest import CONFIG_DIR
from sropo import (
    BiphotonAmplitudeGrid, G2Request, G2Tier, Normalization, Trace, TraceKind, TraceMeta,
    load_scenario, wavefunction_grid,
)
from sropo.names import Record

CONFIG = load_scenario(CONFIG_DIR / "g2_comb.json")
META = TraceMeta(TraceKind.G1, Normalization.UNIT_AT_ZERO, {"m_max": 3})
BY_IDENTITY = (Trace, G2Request, BiphotonAmplitudeGrid)

# id: (record, a change its validation refuses, or None where it checks nothing)
RECORDS = {
    "CavityParams": (CONFIG.cavity, {"loss_rate_gamma": -1.0}),
    "DerivedScales": (CONFIG.scales, None),
    "RegimeCheck": (CONFIG.regime.checks[0], None),
    "RegimeReport": (CONFIG.regime, None),
    "DispersionModel": (CONFIG.crystal.dispersion_signal, {"parameters": (1.8, 0.0)}),
    "CrystalParams": (CONFIG.crystal, {"length_l": 0.0}),
    "FrequencyTriple": (CONFIG.freqs, {"omega_i": 1.0}),
    "PumpParams": (CONFIG.pump, {"field_amplitude_ep": 0.0}),
    "ScenarioConfig": (CONFIG, None),
    "PeakMeasurement": (sropo.peaks.PeakMeasurement(0.0, 1.0, 0.5, 0.0), None),
    "TraceMeta": (META, None),
    "Trace": (Trace(np.linspace(0.0, 1.0, 5), np.ones(5), META), {"values": -np.ones(5)}),
    "G2Request": (G2Request(G2Tier.SERIES, np.linspace(0.0, 1e-9, 9), m_max=4), {"m_max": 0}),
    "BiphotonAmplitudeGrid": (wavefunction_grid(CONFIG.scales, m_count=1), None),
}


def _same_fields(a, b) -> bool:
    return list(vars(a)) == list(vars(b)) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(vars(a).values(), vars(b).values()))


def test_every_record_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_and_replaced_with_validation(name):
    record, refused = RECORDS[name]
    cls, field = type(record), record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)
    with pytest.raises(TypeError):
        cls()
    if refused is not None:
        with pytest.raises(ValueError):
            record.replace(**refused)

    twin = record.replace()
    assert twin is not record and _same_fields(twin, record)
    assert _same_fields(cls(*(getattr(record, f) for f in record._fields)), record)
    clone = pickle.loads(pickle.dumps(record))
    assert _same_fields(clone, record)
    assert record == record and record != object()
    if isinstance(record, BY_IDENTITY):
        assert twin != record and clone != record
        assert hash(record) == object.__hash__(record)
    else:
        assert twin == record and clone == record
        if isinstance(record, TraceMeta):  # a dict field: unhashable, as for a tuple of it
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(twin) == hash(record) == hash(clone)


def test_trace_meta_gets_a_fresh_dict():
    a, b = (TraceMeta(TraceKind.G1, Normalization.PEAK_UNITY) for _ in range(2))
    assert a.extra == {} and a.extra is not b.extra
    assert a == b == TraceMeta(TraceKind.G1, Normalization.PEAK_UNITY, {})
