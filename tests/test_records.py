"""The value types: immutable records with value equality, or identity for the
three array holders, and a ``replace`` that validates the copy again."""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sropo.peaks
from conftest import CONFIG_DIR, make_setup
from sropo import (
    BiphotonAmplitudeGrid, G2Request, G2Tier, Normalization, Trace, TraceKind, TraceMeta,
    derive_scales, g1, load_scenario, scenario_hash, spectrum, wavefunction_grid,
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


# The positive fields of the four scenario records, by their place in
# conftest.make_setup's (crystal, cavity, pump, freqs).
POSITIVE_FIELDS = [(0, "length_l"), (0, "chi"), (0, "cross_section_A"),
                   (1, "resonator_length_lr"), (1, "loss_rate_gamma"),
                   (2, "field_amplitude_ep"), (3, "omega_p"), (3, "omega_s"), (3, "omega_i")]


@st.composite
def typed_field(draw):
    """(record index, field, value): the setup's value times a factor in [0.5, 2],
    as a float, a numpy float32 or float64, or, where it is at least 1, an int
    or a numpy int64 (every value below 1 truncates to an integer of 0)."""
    place, name = draw(st.sampled_from(POSITIVE_FIELDS))
    value = getattr(make_setup(1.9)[place], name) * draw(st.floats(0.5, 2.0))
    kinds = [float, np.float32, np.float64] + ([int, np.int64] if value >= 1 else [])
    return place, name, draw(st.sampled_from(kinds))(value)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=typed_field())
def test_scenario_records_store_the_python_float_they_check(case):
    """A record stores ``float(value)``, so a scenario built from numpy or integer
    values hashes and derives as its all-float twin and its kernels warn nothing."""
    place, name, value = case
    setup = list(make_setup(1.9)[:4])
    changes = {name: value}
    freqs = setup[3]
    if name == "omega_p":  # the partner that keeps omega_p = omega_s + omega_i
        changes["omega_s"] = float(value) - freqs.omega_i
    elif place == 3:
        changes["omega_p"] = float(value) + (freqs.omega_i if name == "omega_s" else freqs.omega_s)
    typed, plain = list(setup), list(setup)
    typed[place] = setup[place].replace(**changes)
    plain[place] = setup[place].replace(**{k: float(v) for k, v in changes.items()})
    stored = getattr(typed[place], name)
    assert type(stored) is float and stored == float(value)
    assert typed == plain
    assert scenario_hash(*typed) == scenario_hash(*plain)
    scales = derive_scales(*typed)
    assert all(type(v) is float for v in vars(scales).values()), vars(scales)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectrum("idler", scales, typed[3])
        g1("idler", scales, typed[3])
