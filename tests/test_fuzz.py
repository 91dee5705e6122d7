"""Scenario fuzzer: every mutated shipped config gives a typed outcome.

Each case edits one or two leaves of a shipped config or of the golden
Sellmeier scenario (a number scaled by 10^+-6, 10^+-30 or 10^+-300, negated,
zeroed, set to 5e-324 or 1.7e308, given the wrong JSON type, or removed), or
sets one Sellmeier C_i to the squared wavelength at an end of its model's
validity range (a pole there), and runs one command in process on a small
grid.  Whatever the scenario, the run must exit 0, 1, 2 or 3; a refusal
prints exactly one ``error: exit=<n> type=<Name>:`` line, where <Name> is a
``sropo.errors`` class with that exit code, argparse's ``ArgumentError``,
the ``--strict-regime`` ``RegimeFailure`` or an ``OSError`` subclass, and
makes no output directory; a success writes only finite numbers (``inf``
only for the documented tau0 = 0 kappa); and no run raises a RuntimeWarning.

A second strategy mutates a shipped config's file text: it cuts the file at
a byte, gives a key twice, puts an integer past the double range in place of
a number, nests a number or the whole document in brackets, or re-encodes
the file.  ``sropo scales`` on the result must exit 0 where the scenario is
unchanged, and otherwise exit 1 with one ``ScenarioParseError`` or
``ScenarioValidationError`` line and no output directory.

The profile ``fuzz`` (the default) is derandomised, so tier-1 replays the
same cases.  ``SROPO_FUZZ_PROFILE=fuzz-random`` draws about 2,000 fresh ones:

    SROPO_FUZZ_PROFILE=fuzz-random python -m pytest tests/test_fuzz.py
"""

import builtins
import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sropo.errors
from sropo.cli import main
from conftest import CONFIG_DIR
from oracles import wavelength_um_sq
from record_golden import SCENARIOS

settings.register_profile(
    "fuzz", max_examples=600, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "fuzz-random", max_examples=2000, derandomize=False, deadline=None,
    suppress_health_check=[HealthCheck.too_slow], print_blob=True)
PROFILE = settings.get_profile(os.environ.get("SROPO_FUZZ_PROFILE", "fuzz"))

CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
CONFIGS["sellmeier"] = SCENARIOS["sellmeier"]


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, value in items:
        yield from _numeric_leaves(value, (*path, key))


LEAVES = {name: list(_numeric_leaves(data)) for name, data in CONFIGS.items()}

# (kind, argument): "scale" multiplies, "set" replaces, "delete" removes the
# key.  Half the edits scale a number, which most often leaves a valid scenario.
SCALINGS = [("scale", 10.0**k) for k in (6, -6, 30, -30, 300, -300)]
OTHER_EDITS = (
    [("scale", -1.0), ("set", 0), ("set", 5e-324), ("set", 1.7e308)]
    + [("set", v) for v in ("1", None, True, [1.0], {})]
    + [("delete", None)]
)
# Each Sellmeier C_i (parameters 3-5) set to L, the squared wavelength in um^2, at
# either end of its model's validity range, where the construction samples.
POLES = [
    ((*model, "parameters", i), ("set", wavelength_um_sq(omega)))
    for model in (("crystal", key) for key in ("dispersion_signal", "dispersion_idler"))
    for i in (3, 4, 5)
    for omega in CONFIGS["sellmeier"][model[0]][model[1]]["validity_range"]
]

_AVERAGED = ("g2", "--tier", "averaged", "--peaks", "1", "--resolution")
COMMANDS = [
    ("scales",),
    ("check-regime",),
    ("rate", "--method", "both"),
    ("spectrum", "--field", "idler", "--window-modes", "1", "--points", "2001"),
    ("g1", "--field", "signal", "--window-gammas", "0.1", "--points", "2001"),
    ("g2", "--tier", "exact", "--peaks", "1"),
    ("g2", "--tier", "series", "--peaks", "1"),
    ("g2", "--tier", "compact", "--peaks", "1"),
    _AVERAGED,
    ("wavefunction", "--modes", "1"),
]
RESOLUTIONS = ("1e-10", "7.74e-12", "1e200", "1e300")  # seconds


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    paths = draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=2,
                          unique=True))
    edits = st.one_of(st.sampled_from(SCALINGS), st.sampled_from(OTHER_EDITS))
    edits = tuple((path, draw(edits)) for path in paths)
    if name == "sellmeier" and draw(st.booleans()):
        edits = (draw(st.sampled_from(POLES)),)
    command = draw(st.sampled_from(COMMANDS))
    if command is _AVERAGED:
        command = (*command, draw(st.sampled_from(RESOLUTIONS)))
    options = draw(st.sampled_from([(), ("--format", "json"), ("--strict-regime",)]))
    return name, edits, (*command, *options)


def mutated(name, edits):
    data = json.loads(json.dumps(CONFIGS[name]))
    for path, (kind, arg) in sorted(edits, reverse=True):  # later list items first
        node = data
        for key in path[:-1]:
            node = node[key]
        key = path[-1]
        if kind == "delete":
            del node[key]
        elif kind == "set":
            node[key] = arg
        else:
            node[key] *= arg  # may reach inf, written as Infinity
    return data


_ERROR = re.compile(r"error: exit=(\d) type=(\w+): ")


def _check_refusal(line: str, code: int) -> str:
    """The refusal line's type, checked: a ``sropo.errors`` class with exit
    ``code``, argparse's flag refusal, the regime failure (exit 3), or an
    ``OSError`` subclass (an output path, exit 1)."""
    match = _ERROR.match(line)
    assert match and int(match.group(1)) == code, line
    name = match.group(2)
    library, builtin = getattr(sropo.errors, name, None), getattr(builtins, name, None)
    if isinstance(library, type) and issubclass(library, sropo.errors.SropoError):
        assert library.exit_code == code, line
    elif isinstance(builtin, type) and issubclass(builtin, OSError):
        assert code == 1, line
    else:
        assert (name, code) in (("ArgumentError", 1), ("RegimeFailure", 3)), line
    return name


_NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)


def _check_finite(path: Path, tau0_zero: bool):
    """Every number in the file is finite; "inf" only where tau0 = 0."""
    text = path.read_text(encoding="ascii")
    if path.suffix == ".json":
        def refuse(literal):
            raise AssertionError(f"{path.name} holds {literal}")
        json.loads(text, parse_constant=refuse)
    else:
        lines = text.splitlines()
        header = [line for line in lines if line.startswith("#")]
        for line in lines[len(header) + 1:]:
            assert all(math.isfinite(float(v)) for v in line.split(",")), line
        text = "\n".join(header)
    for word in _NON_FINITE.findall(text):
        assert tau0_zero and word == "inf", f"{path.name} holds {word}"


# Cases found before the fuzzer or by it: derived scales that over- or
# underflow, a refractive index of 2**70, gamma past the Lorentzian range, a
# default spectrum window of 6e303 fsr, a regime ratio kappa/gamma that
# overflows, averaged resolutions whose squares overflow, and averaged
# resolutions whose grid step underflows to 0, whose grid start overflows, or
# whose span to a far end overflows, and Sellmeier poles at the ends of a
# validity range.


@settings(PROFILE)
@given(case=cases())
@example(case=("phase_matched", ((("crystal", "cross_section_A"), ("set", 5e-324)),),
               ("scales",)))
@example(case=("phase_matched", ((("cavity", "resonator_length_Lr"), ("set", 1e308)),),
               ("g2", "--tier", "compact", "--peaks", "1")))
@example(case=("phase_matched", ((("crystal", "chi"), ("set", 1e308)),), ("rate",)))
@example(case=("phase_matched", ((("crystal", "chi"), ("set", 1e-300)),), ("scales",)))
@example(case=("phase_matched", ((("cavity", "loss_rate_gamma"), ("set", 5e-324)),),
               (*_AVERAGED, "7.74e-12")))
@example(case=("g2_comb", ((("crystal", "length_l"), ("scale", 1e300)),
                           (("cavity", "resonator_length_Lr"), ("scale", 1e300))),
               ("scales",)))
@example(case=("spectrum_comb",
               ((("crystal", "dispersion_signal", "parameters", 0), ("set", 2**70)),),
               ("g2", "--tier", "series", "--peaks", "1", "--format", "json")))
@example(case=("spectrum_comb",
               ((("crystal", "dispersion_idler", "parameters", 0), ("set", 2**70)),),
               ("g2", "--tier", "exact", "--peaks", "1")))
@example(case=("phase_matched", ((("crystal", "length_l"), ("set", 5e-324)),),
               ("scales", "--format", "json")))
@example(case=("spectrum_comb", ((("cavity", "loss_rate_gamma"), ("set", 1.7e308)),),
               ("spectrum", "--field", "idler")))
@example(case=("spectrum_comb", ((("cavity", "loss_rate_gamma"), ("set", 1.7e308)),),
               ("g1", "--field", "idler")))
@example(case=("spectrum_comb", ((("cavity", "loss_rate_gamma"), ("set", 1.7e308)),),
               ("wavefunction", "--format", "json")))
@example(case=("detector_averaged",
               ((("cavity", "loss_rate_gamma"), ("set", 8.12e-292)),), ("wavefunction",)))
@example(case=("spectrum_comb", ((("crystal", "length_l"), ("set", 1e-302)),),
               ("spectrum", "--field", "idler", "--points", "2001")))
@example(case=("detector_averaged", ((("crystal", "chi"), ("scale", 1e30)),
                                     (("cavity", "loss_rate_gamma"), ("scale", 1e-300))),
               ("check-regime", "--format", "json")))
@example(case=("detector_averaged", (), (*_AVERAGED, "1e300")))
@example(case=("detector_averaged", (), (*_AVERAGED, "1e200")))
@example(case=("spectrum_comb", (), (*_AVERAGED, "5e-324")))
@example(case=("g2_comb", (), (*_AVERAGED, "1e308", "--points", "3")))
@example(case=("detector_averaged", (), (*_AVERAGED, "5e-324")))
@example(case=("detector_averaged", (), (*_AVERAGED, "1e308", "--points", "3")))
@example(case=("detector_averaged", (),
               ("g2", "--tier", "averaged", "--peaks", str(10**307), "--resolution",
                "5.992310449541052e307", "--points", "3")))
@example(case=("sellmeier", (POLES[0],), ("scales",)))
@example(case=("sellmeier", (POLES[-1],), ("scales",)))
def test_every_scenario_gives_a_typed_outcome(case):
    name, edits, command = case
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "scenario.json"
        config.write_text(json.dumps(mutated(name, edits)), encoding="utf-8")
        out = Path(work) / "out"
        stdout = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main([*command, "--config", str(config), "--out", str(out)])
            except SystemExit as exc:  # argparse refusing a flag
                code = exc.code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 1, 2, 3)
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1, lines
        if code:
            _check_refusal(lines[0], code)
            assert not out.exists()
            return
        written = sorted(out.iterdir())
        assert written
        for path in written:
            _check_finite(path, tau0_zero=" tau0=0 " in f" {lines[0]}")


TEXTS = {p.stem: p.read_bytes() for p in sorted(CONFIG_DIR.glob("*.json"))}
# Where a key or a number starts in each file, as byte offsets.
KEYS = {name: [m.start() for m in re.finditer(rb'"\w+":', text)] for name, text in TEXTS.items()}
NUMBERS = {name: [m.span() for m in re.finditer(rb"(?<=[\s\[:,])-?\d[\d.eE+-]*", text)]
           for name, text in TEXTS.items()}
ENCODINGS = ("utf-8", "latin-1", "utf-8-sig", "utf-16", "utf-16-le", "utf-32")


@st.composite
def text_cases(draw):
    """(config name, mutation kind, its arguments) for ``mutated_text``."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    kind = draw(st.sampled_from(["cut", "repeat", "huge", "nest", "encode"]))
    if kind == "cut":
        args = (draw(st.integers(0, len(TEXTS[name]))),)
    elif kind == "repeat":
        args = (draw(st.sampled_from(KEYS[name])),
                draw(st.sampled_from(["0.02", "-5", '"x"', "null", "{}", "[1.0]"])))
    elif kind == "huge":  # 310 digits are past the double range, 4,301 past int()
        args = (draw(st.sampled_from(NUMBERS[name])),
                draw(st.integers(310, 6000) | st.sampled_from([4300, 4301])))
    elif kind == "nest":  # None nests the whole document
        args = (draw(st.none() | st.sampled_from(NUMBERS[name])),
                draw(st.integers(1, 1100) | st.just(200_000)))
    else:  # with an accent in output.directory, latin-1 is no longer UTF-8
        args = (draw(st.sampled_from(ENCODINGS)), draw(st.booleans()))
    return name, kind, args


def mutated_text(name, kind, args) -> tuple[bytes, bool]:
    """The mutated file, and whether it still holds the shipped scenario."""
    text = TEXTS[name]
    if kind == "cut":
        return text[:args[0]], args[0] >= len(text.rstrip())
    if kind == "repeat":  # the key again, just before itself: the same object
        at, value = args
        key = text[at:text.index(b":", at) + 1]
        return text[:at] + key + b" " + value.encode() + b", " + text[at:], False
    if kind == "huge":
        (start, end), digits = args
        return text[:start] + b"1" + b"0" * (digits - 1) + text[end:], False
    if kind == "nest":
        span, depth = args
        start, end = span if span is not None else (0, len(text))
        return text[:start] + b"[" * depth + text[start:end] + b"]" * depth + text[end:], False
    encoding, accent = args
    if accent:
        text = text.replace(b'"out"', '"out\u00e9"'.encode(), 1)
    return (text.decode("utf-8").encode(encoding),
            encoding == "utf-8" or (encoding == "latin-1" and not accent))


# The four file defects that once escaped a typed exit 1: an integer of 5,001
# digits (exit 2, type=ValueError), a file that is not UTF-8 (exit 2,
# type=UnicodeDecodeError), 200,000 nested brackets (a RecursionError
# traceback), and a key given twice (read silently as its last value, exit 0).
@settings(PROFILE)
@given(case=text_cases())
@example(case=("phase_matched", "huge", (NUMBERS["phase_matched"][14], 5001)))  # 0.05
@example(case=("phase_matched", "encode", ("utf-16", False)))
@example(case=("phase_matched", "nest", (None, 200_000)))
@example(case=("phase_matched", "repeat", (KEYS["phase_matched"][1], "0.02")))  # length_l
@example(case=("spectrum_comb", "cut", (len(TEXTS["spectrum_comb"]) - 1,)))
@example(case=("g2_comb", "encode", ("latin-1", False)))
def test_every_scenario_text_gives_a_typed_outcome(case):
    text, unchanged = mutated_text(*case)
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "scenario.json"
        config.write_bytes(text)
        out = Path(work) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["scales", "--config", str(config), "--out", str(out)])
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1, lines
        if unchanged:
            assert code == 0, lines[0]
            assert out.exists()
        else:
            assert code == 1, lines[0]
            assert _check_refusal(lines[0], 1) in (
                "ScenarioParseError", "ScenarioValidationError"), lines[0]
            assert not out.exists()
