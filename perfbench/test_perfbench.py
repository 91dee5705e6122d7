"""Self-tests of the benchmark: ``python3 -m pytest perfbench/test_perfbench.py``.

They run every workload at tiny size (a minute or so in all), check that each
named metric is reported, that the checks pass on correct output, that a
spoiled result is counted as a failure, and that the benchmark refuses to
run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks as ck  # noqa: E402
from run import WORKLOADS, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3", "--seconds", "0",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_without_failures(trace):
    res = result(bench("--workload", "all", "--tiny", "--trace", str(trace)))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] > 0
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS for m in specs}
    for workload in WORKLOADS:
        for spec in specs:
            metric = res["metrics"][f"{workload}.{spec['name']}"]
            assert metric["unit"] == spec["unit"], (workload, spec)
            assert isinstance(metric["value"], (int, float)), (workload, spec)
            if not trace:
                assert metric["value"] > 0, (workload, spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_is_counted_in_every_pass(workload):
    res = result(bench("--workload", workload, "--tiny", "--inject-fault"))
    assert res["correct"] is False
    # One spoiled result per pass, each counted; at least two passes run.
    assert res["failed"] >= 2
    assert res["failed"] < res["attempted"]


def test_tail_has_ten_samples_beyond_it_and_is_never_below_the_median():
    assert tail([float(i) for i in range(1, 34)]) == (23.0, 100.0 * 23 / 33)
    assert tail([float(i) for i in range(1, 28)]) == (17.0, 100.0 * 17 / 27)
    assert tail([float(i) for i in range(1, 13)]) == (6.0, 50.0)


def test_tolerance_admits_announced_deviation_and_catches_wrong_kernel():
    from sropo import load_scenario
    from sropo.spectra import g1

    config = load_scenario(ROOT / "configs" / "spectrum_comb.json")
    s = config.scales
    tau = np.linspace(-s.round_trip_T, s.round_trip_T, 4001)
    trace = g1("idler", s, config.freqs, tau=tau)
    m = int(trace.meta.extra["m_max"])
    want = ck.g1_oracle(tau, m, s.fsr_delta_omega, s.tau0, s.gamma)
    assert ck.close(trace.values, want, 1.0) is None
    # A chirp-z comb sum deviates by about 1e-9: admitted.
    noise = 1.3e-9 * np.cos(np.arange(tau.size))
    assert ck.close(trace.values + noise, want, 1.0) is None
    # Dropping the five outermost mode pairs (about 2e-5) is a wrong kernel: caught.
    wrong = g1("idler", s, config.freqs, tau=tau, m_max=m - 5).values
    assert ck.close(wrong, want, 1.0) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "kernels_large", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
