import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sropo.correlations
import sropo.spectra
import sropo.trace
from sropo import G2Request, Normalization, Trace, TraceKind, TraceMeta
from sropo.correlations import g2_exact, g2_grid, g2_series
from sropo.numerics import ensure_uniform_axis, symmetric_grid
from sropo.svgplot import write_svg_plot
from sropo.trace import ROW_CHUNK, _mirror_rows, write_table_csv, write_table_json
from conftest import make_setup
from oracles import svg_polyline_whole, write_table_csv_whole, write_table_json_whole

META = TraceMeta(TraceKind.G1, Normalization.UNIT_AT_ZERO)
AXIS = np.linspace(-1.0, 1.0, 5)


def test_real_values_stay_real():
    trace = Trace(AXIS, [0.0, 0.5, 1.0, 0.5, 0.0], META)
    assert trace.values.dtype == np.float64
    assert trace.axis[1] - trace.axis[0] == 0.5


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
    assert trace.values.dtype == np.float64 and trace.axis[1] - trace.axis[0] == 0.5


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


def test_json_table_refuses_a_non_finite_meta_value(tmp_path):
    # Derived scales are checked finite when a scenario loads, so a
    # non-finite value here is a fault: refused, never written as Infinity.
    with pytest.raises(ValueError, match="JSON compliant"):
        sropo.trace.write_table_json(tmp_path / "t.json", {"x": float("inf")}, ["a"],
                                     [np.ones(2)])


# Row counts about the chunk edges, and values from the subnormals to 1e308
# with -0.0; the CSV writer also prints nan and +-inf.
CHUNK_EDGES = [0, 1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 3 * ROW_CHUNK + 1]
FINITE = st.floats(-1e308, 1e308)
ANCHORS = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]


@st.composite
def tables(draw, values, rows=st.sampled_from(CHUNK_EDGES), width=st.integers(1, 4)):
    """1-4 columns of ``rows`` values picked from a drawn pool of ``values``."""
    pool = np.array(draw(st.lists(values, min_size=1, max_size=12)) + ANCHORS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return list(pool[rng.integers(pool.size, size=(draw(width), draw(rows)))])


# A header key "data", which the JSON dump puts one indent level below the
# table's own "data" array.
META_WITH_DATA_KEY = {"kind": "g1", "columns": "tau_s,value", "x": -0.0, "data": "[]",
                      "z": 1e308}


def _assert_writes_as_oracle(write, oracle, header, columns):
    """``write`` makes the bytes of the whole-table ``oracle``, and no other file."""
    names = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        written, whole = Path(tmp, "written"), Path(tmp, "whole")
        write(written, header, names, columns)
        oracle(whole, header, names, columns)
        assert written.read_bytes() == whole.read_bytes()
        assert sorted(path.name for path in Path(tmp).iterdir()) == ["whole", "written"]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(columns=tables(st.floats()))
def test_chunked_csv_matches_whole_table_writer(columns):
    _assert_writes_as_oracle(write_table_csv, write_table_csv_whole, META_WITH_DATA_KEY,
                             columns)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(columns=tables(FINITE))
def test_chunked_json_matches_whole_table_writer(columns):
    _assert_writes_as_oracle(write_table_json, write_table_json_whole, META_WITH_DATA_KEY,
                             columns)


# Mirrored row counts: the two halves' h = n//2 rows split into chunks
# unevenly, and an odd table has a centre row.
MIRROR_ROWS = [2, 3, 2 * ROW_CHUNK - 1, 2 * ROW_CHUNK + 1, 2 * ROW_CHUNK + 3]


@st.composite
def mirrored_tables(draw, values):
    """(columns, h): an axis that is an exact mirror about 0
    (``numerics.symmetric_grid``) and 0-3 even columns of ``tables``' values,
    which the writers write from the upper half's h = n//2 rows."""
    n = draw(st.sampled_from(MIRROR_ROWS))
    columns = draw(tables(values, rows=st.just(n), width=st.integers(0, 3)))
    for col in columns:
        col[: n // 2] = col[::-1][: n // 2]
    return [symmetric_grid(draw(st.floats(0.0, 1e300)), n), *columns], n // 2


def _one_ulp_off(row, column):
    """(columns, 0): a 2*ROW_CHUNK + 3 row mirrored table with one field one
    ulp off the mirror, which the writers write on the plain path."""
    axis = symmetric_grid(1.0, 2 * ROW_CHUNK + 3)
    columns = [axis, axis**2]
    columns[column][row] = np.nextafter(columns[column][row], np.inf)
    return columns, 0


# The axis in the mirror check's second chunk; a value in the last row.
OFF_MIRROR = [_one_ulp_off(ROW_CHUNK, 0), _one_ulp_off(-1, 1)]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(table=mirrored_tables(st.floats()))
@example(table=OFF_MIRROR[0])
@example(table=OFF_MIRROR[1])
def test_mirrored_csv_matches_whole_table_writer(table):
    columns, h = table
    assert _mirror_rows(columns) == h
    _assert_writes_as_oracle(write_table_csv, write_table_csv_whole, {"kind": "g1"}, columns)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(table=mirrored_tables(FINITE))
@example(table=OFF_MIRROR[0])
@example(table=OFF_MIRROR[1])
def test_mirrored_json_matches_whole_table_writer(table):
    columns, h = table
    assert _mirror_rows(columns) == h
    _assert_writes_as_oracle(write_table_json, write_table_json_whole, META_WITH_DATA_KEY,
                             columns)


@pytest.mark.parametrize("axis, h", [
    ([0.0, 0.0], 0), ([0.0, -0.0], 0), ([-0.0, 0.0], 1),
    ([-np.inf, np.inf], 1), ([-np.nan, np.nan], 0),
])
@pytest.mark.parametrize("width", [1, 2])
def test_axis_mirrors_only_where_its_text_does(axis, h, width):
    # numerics.mirror_count calls the three zero axes mirrors: np.array_equal
    # has -0.0 == 0.0.  Written from the mirror, [0.0, 0.0] would read "-0",
    # "0"; and NaN prints "nan" whatever its sign bit.
    columns = [np.array(axis), np.ones(2)][:width]
    assert _mirror_rows(columns) == h
    _assert_writes_as_oracle(write_table_csv, write_table_csv_whole, {"kind": "g1"}, columns)
    if np.isfinite(axis).all():
        _assert_writes_as_oracle(write_table_json, write_table_json_whole, {"kind": "g1"},
                                 columns)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(columns=tables(FINITE, rows=st.sampled_from(CHUNK_EDGES[1:]), width=st.just(2)))
def test_chunked_svg_polyline_matches_one_join(columns):
    x, y = columns
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "plot.svg")
        want = svg_polyline_whole(x, y)
        write_svg_plot(path, x, y, "t", "x")
        text = path.read_text(encoding="ascii")
    points = re.findall(r'<polyline points="([^"]*)" fill="none"', text)
    assert points == [want]
    assert text.endswith('stroke-width="1.2"/>\n</svg>\n')


@pytest.mark.parametrize("value, labels", [
    (5.0, ["5", "5.25", "5.5", "5.75", "6"]),  # the span of 1 a small value keeps
    (2.0**53, ["9.0072e+15"] * 5),  # 2**53 + 1 rounds to 2**53: one float wider
    (-1e17, ["-1e+17"] * 5),
    (np.finfo(float).max, ["1.79769e+308"] * 5),  # no float above: one below
    (-np.finfo(float).max, ["-1.79769e+308"] * 5),
])
def test_constant_series_plots_on_a_non_zero_span(tmp_path, value, labels):
    path = tmp_path / "plot.svg"
    write_svg_plot(path, [value, value], [value, value], "t", "x")
    text = path.read_text(encoding="ascii")
    ticks = re.findall(r'font-size="11">([^<]*)</text>', text)
    assert ticks[0::2] == labels and ticks[1::2] == labels  # x, y per tick
    points = re.findall(r'<polyline points="([^"]*)" fill="none"', text)
    assert points == [svg_polyline_whole([value] * 2, [value] * 2)]
    assert not re.search(r"nan|inf", points[0])


MAX = np.finfo(float).max


@pytest.mark.parametrize("x, y, x_labels, y_labels", [
    # x1 - x0 overflows: the axis maps at half scale, and halving is exact
    ([-MAX, MAX], [0.0, 1.0],
     ["-1.79769e+308", "-8.98847e+307", "0", "8.98847e+307", "1.79769e+308"],
     ["0", "0.25", "0.5", "0.75", "1"]),
    # both axes; the top tick's sum rounds past x1 at half scale
    ([-1e308, MAX], [MAX, -MAX],
     ["-1e+308", "-3.00577e+307", "3.98847e+307", "1.09827e+308", "1.79769e+308"],
     ["-1.79769e+308", "-8.98847e+307", "0", "8.98847e+307", "1.79769e+308"]),
])
def test_series_spanning_past_the_largest_double_plots_finite(tmp_path, x, y, x_labels,
                                                             y_labels):
    path = tmp_path / "plot.svg"
    write_svg_plot(path, x, y, "t", "x")
    text = path.read_text(encoding="ascii")
    ticks = re.findall(r'font-size="11">([^<]*)</text>', text)
    assert ticks[0::2] == x_labels and ticks[1::2] == y_labels
    points = re.findall(r'<polyline points="([^"]*)" fill="none"', text)
    assert points == [svg_polyline_whole(x, y)]
    assert not re.search(r"nan|inf", text)
    assert points[0].split()[0].startswith("70.00,") and points[0].split()[-1].startswith("780.00,")


def _write_csv(path, columns):
    write_table_csv(path, {"kind": "g1"}, ["a", "b", "c"], columns)


def _write_json(path, columns):
    write_table_json(path, {"kind": "g1"}, ["a", "b", "c"], columns)


def _write_svg(path, columns):
    write_svg_plot(path, columns[0], columns[1], "t", "x")


WRITER_PEAK_BOUND = 4 << 20  # bytes: a chunk's rows, their text and the encoder's pieces


def _memory_table(rows, mirrored):
    """Three columns; mirrored: a symmetric axis and two even columns, which
    the table writers write from their upper half."""
    if not mirrored:
        return [np.linspace(-1.0, 1.0, rows), np.linspace(0.0, 1.0, rows) ** 2,
                np.geomspace(1e-300, 1e300, rows)]
    axis = symmetric_grid(1.0, rows)
    even = np.geomspace(1e-300, 1e300, rows)
    even[: rows // 2] = even[::-1][: rows // 2]
    columns = [axis, axis**2, even]
    assert _mirror_rows(columns) == rows // 2
    return columns


@pytest.mark.parametrize("write, mirrored", [
    (_write_csv, False), (_write_json, False), (_write_svg, False),
    (_write_csv, True), (_write_json, True),
], ids=["csv", "json", "svg", "csv_mirrored", "json_mirrored"])
def test_writer_memory_does_not_grow_with_the_table(tmp_path, write, mirrored):
    # tracemalloc sees numpy's buffers too.  A whole-table writer peaks at
    # about 19 (CSV), 27 (JSON) and 4 MiB (SVG) on 50,000 rows, 8x that on
    # 400,000; a chunked one holds the same few MiB at both sizes, and so does
    # one that reads a mirrored table's upper half back from its scratch file.
    peaks = []
    for rows in (50_000, 400_000):
        columns = _memory_table(rows, mirrored)
        tracemalloc.start()
        try:
            write(tmp_path / "table", columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks
    assert max(peaks) < WRITER_PEAK_BOUND, peaks


def test_json_table_refuses_a_non_finite_value_before_opening_the_file(tmp_path):
    path = tmp_path / "t.json"
    column = np.ones(3 * ROW_CHUNK + 1)
    column[-1] = np.nan  # in the last chunk
    with pytest.raises(ValueError, match="JSON compliant"):
        write_table_json(path, {"kind": "g1"}, ["a", "b"], [np.ones(column.size), column])
    assert not path.exists()


@pytest.mark.parametrize("write", [_write_csv, _write_json], ids=["csv", "json"])
def test_columns_of_unequal_length_are_refused_before_opening_the_file(tmp_path, write):
    path = tmp_path / "table"
    with pytest.raises(ValueError, match="same length"):
        write(path, [np.ones(ROW_CHUNK + 1), np.ones(ROW_CHUNK + 1), np.ones(ROW_CHUNK)])
    assert not path.exists()


def test_svg_series_of_unequal_length_are_refused_before_opening_the_file(tmp_path):
    # The polyline shares the tables' row formatter, and with it the check
    # that the series have one length, rather than plotting the shorter one.
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="same length"):
        write_svg_plot(path, np.ones(ROW_CHUNK + 1), np.ones(ROW_CHUNK), "t", "x")
    assert not path.exists()


@pytest.mark.parametrize("write", [write_table_csv, write_table_json], ids=["csv", "json"])
@pytest.mark.parametrize("names", [["a", "b", "c"], ["a"]], ids=["three", "one"])
def test_name_count_other_than_column_count_is_refused_before_opening_the_file(
        tmp_path, write, names):
    path = tmp_path / "table"
    with pytest.raises(ValueError, match="^one name per column required$"):
        write(path, {"kind": "g1"}, names, [np.ones(3), np.ones(3)])
    assert not path.exists()
