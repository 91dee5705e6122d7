"""Golden outputs: each invocation of ``record_golden.INVOCATIONS`` reproduces
its entry in ``tests/golden.json`` byte for byte (numpy as recorded) or
within ``record_golden.RTOL`` (any other numpy); the header names the mode.
"""

import json

import pytest

from record_golden import (
    INVOCATIONS,
    MANIFEST,
    RTOL,
    deviation,
    fingerprint,
    numpy_version,
    run,
)

GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8"))
BYTES = numpy_version() == GOLDEN["numpy"]


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


def test_deviation_sees_a_changed_value():
    entry = GOLDEN["entries"]["g2-series"]
    changed = json.loads(json.dumps(entry))
    row = changed["files"]["g2_series.csv"]["sample"][4][1]
    row[1] += 1e-9 * abs(row[1])
    assert deviation(entry, entry) == 0.0
    assert RTOL < deviation(entry, changed) < 1e-8
    changed["exit"] = 2
    assert deviation(entry, changed) == float("inf")
