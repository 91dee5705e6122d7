"""Golden outputs: each invocation of ``record_golden.INVOCATIONS`` reproduces
its entry in ``tests/golden.json`` byte for byte (on the recorded machine:
numpy version, SIMD dispatch and OpenBLAS core) or within
``record_golden.RTOL`` (any other); the header names the mode.
"""

import json
import os
import subprocess
import sys

import pytest

from record_golden import (
    INVOCATIONS,
    MANIFEST,
    ROOT,
    RTOL,
    deviation,
    fingerprint,
    machine,
    recorded_machine,
    run,
)

GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8"))
MACHINE = machine()
BYTES = MACHINE == recorded_machine(GOLDEN)


def test_manifest_records_every_invocation():
    recorded = {name: entry["command"] for name, entry in GOLDEN["entries"].items()}
    assert recorded == INVOCATIONS


@pytest.mark.parametrize("name", sorted(GOLDEN["entries"]))
def test_output_matches_golden(name, tmp_path):
    expected = GOLDEN["entries"][name]
    actual = run(expected["command"], tmp_path)
    if BYTES:
        assert fingerprint(actual) == fingerprint(expected)
    else:
        assert deviation(expected, actual) <= RTOL


@pytest.mark.skipif(MACHINE["numpy"] != GOLDEN["numpy"],
                    reason="another numpy compares samples whatever its dispatch")
def test_golden_entries_hold_with_avx512_switched_off():
    # numpy's AVX2 paths, as on a CPU without AVX-512, round exp and others
    # differently: the entries are then compared as samples.  On a CPU
    # without AVX-512 the switch changes nothing.
    names = ["spectrum", "g1", "g2-series"]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{__file__}::test_output_matches_golden[{name}]" for name in names)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"{len(names)} passed" in result.stdout


def test_deviation_sees_a_changed_value():
    entry = GOLDEN["entries"]["g2-series"]
    changed = json.loads(json.dumps(entry))
    row = changed["files"]["g2_series.csv"]["sample"][4][1]
    row[1] += 1e-9 * abs(row[1])
    assert deviation(entry, entry) == 0.0
    assert RTOL < deviation(entry, changed) < 1e-8
    changed["exit"] = 2
    assert deviation(entry, changed) == float("inf")
