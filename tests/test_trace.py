import numpy as np
import pytest

from sropo import Normalization, Trace, TraceKind, TraceMeta

META = TraceMeta(TraceKind.G1, Normalization.UNIT_AT_ZERO)
AXIS = np.linspace(-1.0, 1.0, 5)


def test_real_values_stay_real():
    trace = Trace(AXIS, [0.0, 0.5, 1.0, 0.5, 0.0], META)
    assert trace.values.dtype == np.float64
    assert trace.spacing == 0.5


def test_real_negative_value_refused():
    with pytest.raises(ValueError, match="non-negative"):
        Trace(AXIS, [0.0, 0.5, -1e-300, 0.5, 0.0], META)


@pytest.mark.parametrize("values", [
    [0.0, np.nan, 1.0, 0.5, 0.0],
    [0.0, 0.5, 1.0, 0.5, complex(np.nan, 0.0)],
    [0.0, 0.5, 1.0, 0.5, complex(0.0, np.nan)],
], ids=["real", "complex_real_part", "complex_imaginary_part"])
def test_nan_values_refused(values):
    with pytest.raises(ValueError, match="finite"):
        Trace(AXIS, values, META)


@pytest.mark.parametrize("axis", [
    [0.0, 1.0, 2.0, 3.5, 4.0],
    AXIS[::-1],
    [0.0, 1.0, 1.0, 2.0, 3.0],
], ids=["non_uniform", "decreasing", "repeated_point"])
def test_bad_axis_refused(axis):
    with pytest.raises(ValueError, match="trace axis"):
        Trace(axis, np.ones(5), META)


@pytest.mark.parametrize("values", [np.ones(4), np.ones(6), np.ones((5, 1))],
                         ids=["short", "long", "two_dimensional"])
def test_shape_mismatch_refused(values):
    with pytest.raises(ValueError, match="shape"):
        Trace(AXIS, values, META)


def test_complex_values_of_any_phase_accepted():
    values = np.exp(1j * np.linspace(-np.pi, np.pi, 5)) * [1.0, 0.5, 2.0, 0.0, 1.0]
    trace = Trace(AXIS, values, META)
    assert trace.values.dtype == np.complex128
    assert np.array_equal(trace.values, values)
    assert (trace.values.real < 0).any() and (trace.values.imag < 0).any()
