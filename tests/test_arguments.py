"""Invalid arguments: every numeric CLI flag and every library count or real
argument refuses an out-of-range value by one rule (``sropo.names.as_count``
and ``as_real``), as a ``ScenarioValidationError`` (also a ``ValueError``)
naming the argument and its flag, or the record or solver entry
(``parameters[0]``, ``bracket[1]``).  A list entry (``parameters``,
``validity_range``, ``bracket``) that is no list, tuple or 1-d array is refused
by one rule too, from the library, a scenario and the command line alike.  No
draw is valid, so no draw starts work.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sropo
from sropo import ScenarioValidationError, load_scenario
from sropo.cli import COMMANDS, main
from sropo.correlations import g2_grid
from sropo.dispersion import DispersionModel, phase_match
from sropo.spectra import g1_grid, spectrum_grid
from conftest import CONFIG_DIR
from record_golden import SCENARIOS

CONFIG = CONFIG_DIR / "spectrum_comb.json"
SCENARIO = load_scenario(CONFIG)
TAU = np.linspace(0.0, 2e-11, 41)
WIDE = (1e14, 1e16)
BIG = 10**399  # 400 digits: past the double range
SELLMEIER = SCENARIOS["sellmeier"]["crystal"]["dispersion_signal"]  # fused silica

# Each numeric flag: (type, least valid value, strict: the least is invalid too).
FLAGS = {
    ("spectrum", "--window-modes"): (float, 0.0, True),
    ("spectrum", "--points"): (int, 2, False),
    ("spectrum", "--m-max"): (int, 0, False),
    ("g1", "--window-gammas"): (float, 0.0, True),
    ("g1", "--points"): (int, 2, False),
    ("g1", "--m-max"): (int, 0, False),
    ("g2", "--peaks"): (int, 0, False),
    ("g2", "--points"): (int, 2, False),
    ("g2", "--m-max"): (int, 1, False),
    ("g2", "--resolution"): (float, 0.0, True),
    ("wavefunction", "--modes"): (int, 1, False),
    ("wavefunction", "--halfwidth-gammas"): (float, 10.0, False),
    ("wavefunction", "--points-per-mode"): (int, 2, False),
}
# The flags a command needs besides the one drawn; g2's tier is one that reads it.
G2_TIER = {"--m-max": "series", "--resolution": "averaged"}
BASE = {"spectrum": ["--field", "idler"], "g1": ["--field", "idler"], "wavefunction": []}


def test_every_numeric_flag_is_drawn():
    numeric = {(name, flag) for name, (_, flags, _) in COMMANDS.items()
               for flag, options in flags if options.get("type") in (int, float)}
    assert numeric == set(FLAGS)


def below(kind, least, strict):
    """Values under the bound: integers below ``least``, or reals below it (at it
    when ``strict``), -inf included."""
    if kind is int:
        return st.integers(max_value=least - 1)
    return st.floats(max_value=least, exclude_max=not strict, allow_nan=False)


@st.composite
def bad_flags(draw):
    command, flag = draw(st.sampled_from(sorted(FLAGS)))
    kind, least, strict = FLAGS[command, flag]
    texts = ["-1.5", "nan", "inf", "-inf", "1e400", "-1e400", str(BIG), str(-BIG)]
    if kind is int:
        texts += ["2.5", "1e3", "two"]
    if kind is float or least > 0:
        texts.append("0")
    text = draw(st.one_of(below(kind, least, strict).map(str), st.sampled_from(texts)))
    base = BASE.get(command, ["--tier", G2_TIER.get(flag, "compact")])
    return [command, *base, f"{flag}={text}"], flag


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=bad_flags())
@example(case=(["g2", "--tier", "compact", "--points=1"], "--points"))
@example(case=(["g2", "--tier", "compact", f"--peaks={BIG}"], "--peaks"))
@example(case=(["wavefunction", "--halfwidth-gammas=-inf"], "--halfwidth-gammas"))
@example(case=(["g1", "--field", "idler", "--points=2.5"], "--points"))
def test_bad_flag_exits_1_naming_it_and_makes_nothing(case, tmp_path_factory):
    argv, flag = case
    out = tmp_path_factory.getbasetemp() / "bad-flag-out"
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = main([*argv, "--config", str(CONFIG), "--out", str(out)])
        except SystemExit as exc:  # argparse: text that is no int or float
            code = exc.code
    text = stdout.getvalue()
    assert code == 1, text
    assert re.search(rf"type=(ScenarioValidationError: \w+ \({flag}\) must be "
                     rf"|ArgumentError: argument {flag}:)", text), text
    assert not out.exists()


# Each library argument: (where its refusal starts, type, least, strict, call).
ARGUMENTS = {
    "spectrum_grid points": ("points (--points)", int, 2, False,
                             lambda c, v: spectrum_grid(c.scales, points=v)),
    "spectrum_grid window_modes": ("window_modes (--window-modes)", float, 0.0, True,
                                   lambda c, v: spectrum_grid(c.scales, window_modes=v)),
    "g1_grid points": ("points (--points)", int, 2, False,
                       lambda c, v: g1_grid(c.scales, points=v)),
    "g1_grid window_gammas": ("window_gammas (--window-gammas)", float, 0.0, True,
                              lambda c, v: g1_grid(c.scales, window_gammas=v)),
    "g2_grid peaks": ("peaks (--peaks)", int, 0, False,
                      lambda c, v: g2_grid(c.scales, "compact", v)),
    "g2_grid points": ("points (--points)", int, 2, False,
                       lambda c, v: g2_grid(c.scales, "compact", 5, points=v)),
    "g2_grid resolution": ("resolution_dt (--resolution)", float, 0.0, True,
                           lambda c, v: g2_grid(c.scales, "averaged", 5, resolution=v)),
    "spectrum m_max": ("m_max (--m-max)", int, 0, False, lambda c, v: sropo.spectrum(
        "idler", c.scales, c.freqs, detuning=np.linspace(-1e9, 1e9, 81), m_max=v)),
    "g1 m_max": ("m_max (--m-max)", int, 0, False, lambda c, v: sropo.g1(
        "idler", c.scales, c.freqs, tau=np.linspace(-1e-11, 1e-11, 21), m_max=v)),
    "G2Request m_max": ("m_max (--m-max)", int, 1, False,
                        lambda c, v: sropo.G2Request("series", TAU, m_max=v)),
    "G2Request resolution_dt": ("resolution_dt (--resolution)", float, 0.0, True,
                                lambda c, v: sropo.G2Request("averaged", TAU,
                                                             resolution_dt=v)),
    "wavefunction_grid m_count": ("m_count (--modes)", int, 1, False,
                                  lambda c, v: sropo.wavefunction_grid(c.scales, v)),
    "wavefunction_grid omega_grid_halfwidth": (
        "omega_grid_halfwidth (--halfwidth-gammas)", float, 10.0, False,
        lambda c, v: sropo.wavefunction_grid(c.scales, 2, omega_grid_halfwidth=v)),
    "wavefunction_grid points_per_mode": (
        "points_per_mode (--points-per-mode)", int, 2, False,
        lambda c, v: sropo.wavefunction_grid(c.scales, 2, points_per_mode=v)),
    # The entries of a dispersion model and of the phase-match solver, named
    # without a flag.  No value drawn is a kind; a parameter's one bound is
    # finiteness, so -inf is its one value below.
    "DispersionModel kind": ("kind", float, 0.0, True,
                             lambda c, v: DispersionModel(v, (1.8,), WIDE)),
    "DispersionModel parameters[0]": ("parameters[0]", float, -math.inf, True,
                                      lambda c, v: DispersionModel("constant", (v,), WIDE)),
    "DispersionModel parameters[1]": (
        "parameters[1]", float, -math.inf, True,
        lambda c, v: DispersionModel("linear_in_omega", (1.8, v), WIDE)),
    "DispersionModel validity_range[0]": (
        "validity_range[0]", float, 0.0, False,
        lambda c, v: DispersionModel("constant", (1.8,), (v, 1e16))),
    "DispersionModel validity_range[1]": (
        "validity_range[1]", float, 0.0, False,
        lambda c, v: DispersionModel("constant", (1.8,), (1e14, v))),
    "phase_match omega_p": ("omega_p", float, 0.0, True,
                            lambda c, v: phase_match(c.crystal, v, (1.8e15, 2.2e15))),
    "phase_match bracket[0]": ("bracket[0]", float, 0.0, True,
                               lambda c, v: phase_match(c.crystal, 3.5e15, (v, 2.2e15))),
    "phase_match bracket[1]": ("bracket[1]", float, 0.0, True,
                               lambda c, v: phase_match(c.crystal, 3.5e15, (1.8e15, v))),
    # Whole lists: the type is tuple and ``least`` their valid entries, which a
    # draw (``not_a_list``) gives as a set, a dict or text, if at all.
    "DispersionModel parameters": (
        "parameters", tuple, (1.7, 2e-17), False,
        lambda c, v: DispersionModel("linear_in_omega", v, WIDE)),
    "DispersionModel sellmeier parameters": (
        "parameters", tuple, tuple(SELLMEIER["parameters"]), False,
        lambda c, v: DispersionModel("sellmeier", v, SELLMEIER["validity_range"])),
    "DispersionModel validity_range": ("validity_range", tuple, WIDE, False,
                                       lambda c, v: DispersionModel("constant", (1.8,), v)),
    "phase_match bracket": ("bracket", tuple, (1.8e15, 2.2e15), False,
                            lambda c, v: phase_match(c.crystal, 3.5e15, v)),
}


def not_a_list(entries, json_only=False):
    """Values that are no list, tuple or 1-d array: the valid ``entries`` as a
    set, a frozenset, a dict's keys, a dict's values or text, an array of
    another rank, or any number, text, bytes, bool, None, set or dict.  With
    ``json_only``, only what a scenario file can hold."""
    wraps = [lambda v: {str(i): x for i, x in enumerate(v)}, lambda v: ",".join(map(str, v))]
    if not json_only:
        wraps += [set, frozenset, dict.fromkeys, lambda v: dict(enumerate(v)),
                  lambda v: np.array(v[0]), lambda v: np.array([v])]
    others = [st.floats(), st.integers(-2**70, 2**70), st.text(), st.booleans(), st.none(),
              st.dictionaries(st.text(), st.floats())]
    if not json_only:
        others += [st.binary(), st.sets(st.floats(allow_nan=False)),
                   st.dictionaries(st.floats(allow_nan=False), st.floats())]
    return st.one_of(st.sampled_from(wraps).map(lambda wrap: wrap(entries)), *others)


@st.composite
def bad_arguments(draw):
    name = draw(st.sampled_from(sorted(ARGUMENTS)))
    _, kind, least, strict, _ = ARGUMENTS[name]
    if kind is tuple:
        return name, draw(not_a_list(least))
    lows = below(kind, least, strict)
    values = [math.nan, math.inf, -math.inf, 1e400, BIG, -BIG, True, False, np.True_]
    if kind is int:  # a float, even a whole one, or text is no count
        values += [2.5, 2.0, "2", np.float64(3.0)]
        singles = st.sampled_from([2.0, 2.5, -1.0, math.nan]).map(np.float32)
    else:  # float32 values below the bound, converted exactly
        values += ["2.5", 1 + 2j]
        singles = st.floats(max_value=least, exclude_max=not strict, allow_nan=False,
                            width=32).map(np.float32)
    if least >= 0 if strict else least > 0:
        values.append(0)
    return name, draw(st.one_of(lows, st.sampled_from(values), singles))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=bad_arguments())
@example(case=("spectrum_grid points", 2.5))
@example(case=("spectrum_grid points", True))
@example(case=("spectrum_grid points", 0))
@example(case=("g1_grid points", 1))
@example(case=("g2_grid peaks", 1.5))
@example(case=("g2_grid peaks", True))
@example(case=("g2_grid peaks", -3))
@example(case=("g2_grid peaks", 10**400))
@example(case=("wavefunction_grid points_per_mode", 400.5))
@example(case=("wavefunction_grid omega_grid_halfwidth", math.nan))
@example(case=("spectrum_grid window_modes", -1.0))
@example(case=("G2Request resolution_dt", -1e-11))
@example(case=("DispersionModel parameters[0]", "1.8"))
@example(case=("DispersionModel validity_range[0]", "1e14"))
@example(case=("DispersionModel validity_range[0]", True))
@example(case=("DispersionModel parameters[1]", True))
@example(case=("phase_match bracket[0]", "1.8e15"))
@example(case=("phase_match bracket[0]", True))
@example(case=("DispersionModel parameters", {3.0, 1.5}))  # was a = 1.5, b = 3.0 s
@example(case=("DispersionModel sellmeier parameters", set(SELLMEIER["parameters"])))
@example(case=("DispersionModel validity_range", {1e14: "lo", 1e16: "hi"}))
@example(case=("DispersionModel validity_range", np.array(1e14)))
@example(case=("phase_match bracket", frozenset({1.8e15, 2.2e15})))
@example(case=("phase_match bracket", "ab"))
def test_bad_library_argument_is_refused_naming_it(case):
    name, value = case
    where, *_, call = ARGUMENTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioValidationError, match=rf"^{re.escape(where)} must be ") as exc:
            call(SCENARIO, value)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("where, call", [
    ("parameters", lambda c: DispersionModel("constant", 1.8, WIDE)),
    ("validity_range", lambda c: DispersionModel("constant", (1.8,), 1e14)),
    ("validity_range", lambda c: DispersionModel("constant", (1.8,), (1e14, 1e15, 1e16))),
    ("bracket", lambda c: phase_match(c.crystal, 3.5e15, 2e15)),
    ("bracket", lambda c: phase_match(c.crystal, 3.5e15, (1.8e15, 2e15, 2.2e15))),
    ("bracket", lambda c: phase_match(c.crystal, 3.5e15, (1.8e15,))),
    ("parameters", lambda c: DispersionModel("constant", (1.8, 1e-17), WIDE)),
], ids=["scalar_parameters", "scalar_range", "three_ends", "scalar_bracket",
        "three_bracket_ends", "one_bracket_end", "extra_parameter"])
def test_library_list_of_wrong_shape_is_refused_naming_it(where, call):
    with pytest.raises(ScenarioValidationError, match=rf"^{where} must be a list of length "):
        call(SCENARIO)


# Each list entry of a scenario: (a ``record_golden`` scenario, the entry's
# keys, its valid entries).
SCENARIO_LISTS = [
    ("bracket-off-grid", ("crystal", "dispersion_signal", "parameters"), (1.7, 2e-17)),
    ("bracket-off-grid", ("crystal", "dispersion_pump", "parameters"), (1.7475,)),
    ("sellmeier", ("crystal", "dispersion_signal", "parameters"), SELLMEIER["parameters"]),
    ("bracket-off-grid", ("crystal", "dispersion_idler", "validity_range"), WIDE),
    ("bracket-off-grid", ("frequencies", "bracket"), (1.81e15, 2.2e15)),
]


def scenario_with(name, keys, value):
    """A copy of the scenario ``name`` with the entry at ``keys`` set to ``value``."""
    data = json.loads(json.dumps(SCENARIOS[name]))
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return data


@st.composite
def scenario_lists(draw, json_only=False):
    config, keys, entries = draw(st.sampled_from(SCENARIO_LISTS))
    value = draw(not_a_list(entries, json_only))
    return scenario_with(config, keys, value), ".".join(keys), len(entries)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=scenario_lists())
@example(case=(scenario_with("bracket-off-grid", ("frequencies", "bracket"),
                             {1.81e15, 2.2e15}), "frequencies.bracket", 2))
def test_scenario_list_entry_that_is_no_list_is_refused_naming_it(case):
    data, where, count = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioValidationError,
                           match=rf"^{re.escape(where)} must be a list of length {count}, got "):
            sropo.scenario_from_dict(data)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=scenario_lists(json_only=True))
@example(case=(scenario_with("bracket-off-grid", ("crystal", "dispersion_signal", "parameters"),
                             {"0": 1.7, "1": 2e-17}), "crystal.dispersion_signal.parameters", 2))
def test_scenario_file_list_entry_that_is_no_list_exits_1_and_makes_nothing(
        case, tmp_path_factory):
    data, where, count = case
    base = tmp_path_factory.getbasetemp()
    config, out = base / "not-a-list.json", base / "not-a-list-out"
    config.write_text(json.dumps(data), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["scales", "--config", str(config), "--out", str(out)])
    lines = stdout.getvalue().splitlines()
    assert code == 1, lines
    assert len(lines) == 1 and lines[0].startswith(
        f"error: exit=1 type=ScenarioValidationError: {where} must be a list of length "
        f"{count}, got "), lines
    assert not out.exists()
