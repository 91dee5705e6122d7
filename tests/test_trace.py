import numpy as np
import pytest

import sropo.correlations
import sropo.spectra
import sropo.trace
from sropo import G2Request, Normalization, Trace, TraceKind, TraceMeta
from sropo.correlations import g2_exact, g2_grid, g2_series
from sropo.numerics import ensure_uniform_axis
from conftest import make_setup

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


def test_checked_axis_still_checks_the_values():
    with pytest.raises(ValueError, match="finite"):
        Trace(AXIS, [0.0, np.nan, 1.0, 0.5, 0.0], META, axis_checked=True)
    with pytest.raises(ValueError, match="shape"):
        Trace(AXIS, np.ones(4), META, axis_checked=True)
    trace = Trace(AXIS, [0.0, 0.5, 1.0, 0.5, 0.0], META, axis_checked=True)
    assert trace.values.dtype == np.float64 and trace.spacing == 0.5


def _g2(tier, evaluate):
    def run(scales, freqs):
        return evaluate(G2Request(tier, g2_grid(scales, tier, 2)), scales)
    return run


@pytest.mark.parametrize("build, bad", [
    (lambda scales, freqs: sropo.spectra.g1("idler", scales, freqs), None),
    (lambda scales, freqs: sropo.spectra.spectrum("idler", scales, freqs), None),
    (_g2("series", g2_series), None),
    (_g2("exact", g2_exact), None),
    (lambda scales, freqs: sropo.spectra.g1("idler", scales, freqs, tau=[0.0, 1e-12, 3e-12]),
     "tau"),
    (lambda scales, freqs: G2Request("series", [0.0, 1e-12, 3e-12]), "tau_grid"),
], ids=["g1", "spectrum", "series", "exact", "g1_bad_tau", "g2_bad_grid"])
def test_library_traces_check_their_grid_once(monkeypatch, build, bad):
    # The kernel checks the grid it is given and its trace reuses that check;
    # a grid that fails it is refused before any trace is built.
    *_, freqs, scales = make_setup(1.9)
    checked = []

    def counted(axis, what="axis"):
        checked.append(what)
        return ensure_uniform_axis(axis, what)

    for module in (sropo.spectra, sropo.correlations, sropo.trace):
        monkeypatch.setattr(module, "ensure_uniform_axis", counted)
    if bad is None:
        assert build(scales, freqs).axis.size > 2
        assert len(checked) == 1 and checked[0] != "trace axis"
    else:
        with pytest.raises(ValueError, match=f"{bad} must be uniformly spaced"):
            build(scales, freqs)
        assert checked == [bad]
