"""The package entry point: lazy names, a scalar path that never loads numpy,
and flags spelled only by the command line."""

import importlib.util
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import sropo
import sropo.cli
from conftest import CONFIG_DIR

# Every public name of the package, by the module that held it before the
# names were imported lazily.
PUBLIC = {
    "biphoton": "BiphotonAmplitudeGrid PumpParams phi_analytic rate_continuum "
    "rate_mode_sum wavefunction_grid",
    "cavity": "CavityParams DerivedScales RegimeCheck RegimeReport check_regime "
    "free_spectral_range resonance_mode_number round_trip_time",
    "correlations": "G2Request G2Tier g2_averaged g2_compact g2_exact g2_series",
    "dispersion": "CrystalParams DispersionKind DispersionModel FrequencyTriple "
    "group_velocity phase_match refractive_index transit_time_diff wavenumber",
    "errors": "DegenerateDispersionError DegenerateGroupVelocityError "
    "GridTooCoarseError NoSignChangeError NonConvergenceError OutOfRangeError "
    "ResolutionTooFineError ScenarioParseError ScenarioValidationError SropoError",
    "scenario": "ScenarioConfig derive_scales load_scenario scenario_from_dict "
    "scenario_hash",
    "spectra": "FieldName envelope_zero_mode g1 spectrum",
    "trace": "Normalization Trace TraceKind TraceMeta",
}
PUBLIC_NAMES = [(m, n) for m, names in PUBLIC.items() for n in names.split()]


@pytest.mark.parametrize("module, name", PUBLIC_NAMES, ids=[n for _, n in PUBLIC_NAMES])
def test_public_name_is_the_module_object(module, name):
    assert getattr(sropo, name) is getattr(importlib.import_module(f"sropo.{module}"), name)


def test_all_dir_and_star_import_agree():
    assert sorted(sropo.__all__) == sorted(["__version__", *(n for _, n in PUBLIC_NAMES)])
    namespace = {}
    exec("from sropo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dir(sropo)) == set(sropo.__all__)


def flag_literals(path: Path) -> list[str]:
    """"file:line" of each string literal in ``path`` that spells a flag: "--"
    then a letter.  A comment spells none; an f-string's literal parts count
    (one STRING token before Python 3.12, FSTRING_MIDDLE tokens from 3.12)."""
    kinds = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
    lines = set()
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type in kinds:
                for flag in re.finditer(r"--[A-Za-z]", token.string):
                    lines.add(token.start[0] + token.string.count("\n", 0, flag.start()))
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_flags_are_spelled_only_in_cli():
    # A library refusal names its arguments and the scenario's fields; the
    # command line alone maps an argument to its flag (cli._refusal).
    library = sorted(set(Path(sropo.__file__).parent.glob("*.py")) - {Path(sropo.cli.__file__)})
    assert len(library) > 10
    hits = [hit for path in library for hit in flag_literals(path)]
    assert hits == [], f"{len(hits)} lines spell a flag outside cli.py: {hits}"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        sropo.nonexistent  # noqa: B018


def test_array_modules_load_no_parser():
    # the field table lives in names: the kernels never load the parser,
    # and with it biphoton and hashlib
    code = ("import sys, sropo.spectra, sropo.correlations; print(sorted(name for name in "
            "('sropo.scenario', 'sropo.biphoton', 'hashlib') if name in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


@pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                    reason="no built-in SHA-256 module: the hash falls back to hashlib")
def test_cli_and_scales_load_no_openssl(tmp_path):
    # scenario_hash takes sha256 from the interpreter's own module; import
    # hashlib would load _hashlib (OpenSSL) first
    code = ("import sys, sropo.cli; imported = '_hashlib' in sys.modules; "
            "code = sropo.cli.main(sys.argv[1:]); print(imported, '_hashlib' in sys.modules, code)")
    result = subprocess.run([sys.executable, "-c", code, "scales", "--config",
                             str(CONFIG_DIR / "g2_comb.json"), "--out", str(tmp_path)],
                            capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "False False 0", result.stdout + result.stderr


SCALAR_COMMANDS = {  # id: (command, config, file written)
    "scales": ("scales", "g2_comb.json", "scales.json"),
    "scales-phase-matched": ("scales", "phase_matched.json", "scales.json"),
    "check-regime": ("check-regime", "g2_comb.json", "regime.json"),
    "rate-both": ("rate --method both", "g2_comb.json", "rate.json"),
}
_RUN = """
import sys
{block}
from sropo.cli import main
code = main(sys.argv[1:])
assert "dataclasses" not in sys.modules, "dataclasses was imported"
assert sys.modules.get("numpy") is None, "numpy was imported"
sys.exit(code)
"""


def test_import_loads_no_numpy():
    code = "import sys, sropo; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


@pytest.mark.parametrize("block", [False, True], ids=["numpy-unloaded", "numpy-blocked"])
@pytest.mark.parametrize("name", SCALAR_COMMANDS)
def test_scalar_command_runs_without_numpy(name, block, tmp_path):
    command, config, written = SCALAR_COMMANDS[name]
    script = _RUN.format(block='sys.modules["numpy"] = None' if block else "")
    result = subprocess.run(
        [sys.executable, "-c", script, *command.split(),
         "--config", str(CONFIG_DIR / config), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert (tmp_path / written).is_file()


_RUN_ARRAY = """
import os, sys
from sropo.cli import main
code = main(sys.argv[1:])
assert "numpy" in sys.modules and "dataclasses" not in sys.modules, "dataclasses was imported"
threads = os.environ["OPENBLAS_NUM_THREADS"]
assert threads == {want!r}, threads
if threads == "1" and sys.platform == "linux":  # no idle OpenBLAS worker
    assert len(os.listdir("/proc/self/task")) == 1, os.listdir("/proc/self/task")
sys.exit(code)
"""


@pytest.mark.parametrize("preset", [None, "2"], ids=["default", "user-set"])
def test_array_command_runs_one_blas_thread_without_dataclasses(preset, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", _RUN_ARRAY.format(want=preset or "1"), "g2", "--tier", "compact",
         "--config", str(CONFIG_DIR / "g2_comb.json"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert (tmp_path / "g2_compact.csv").is_file()
