"""Benchmark entry point: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs both workloads in turn.  Run from the root of a
checkout; sropo is imported from ``src/`` of that checkout and nothing is
installed.  With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  End-to-end
times are CPU seconds scaled to a reference-speed machine (see ``speed.py``);
the table printed above the result shows the raw wall times beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "kernels_large")
# Set-up is timed this often per run and reported as the median.
SETUP_RUNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s; the worker is killed after this


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it (rank n - 10),
    never below the median, and that percentile."""
    xs = sorted(samples)
    rank = max(len(xs) - 10, math.ceil(len(xs) / 2), 1)
    return xs[rank - 1], 100.0 * rank / len(xs)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining(start: float) -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - start))


def start_worker(base: list[str], env: dict) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ``ready``: the set-up time and the process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(base, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    if line != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line!r})")
    return time.perf_counter() - t0, proc


def setup_sample(args, env: dict, base: list[str], start: float) -> dict:
    """Time one set-up that is not followed by measuring: wall and CPU seconds."""
    c0 = speed.cpu_clock(True)
    if args.workload == "cli_cold":
        # Every command pays a cold interpreter plus ``import sropo``.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sropo"], cwd=ROOT, env=env,
                       check=True, timeout=remaining(start))
        dt = time.perf_counter() - t0
    else:
        dt, proc = start_worker(base + ["--setup-only"], env)
        try:
            proc.wait(timeout=remaining(start))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return {"time": dt, "cpu": speed.cpu_clock(True) - c0}


def run_workload(args) -> dict:
    """Measure one workload.  Set-up is timed SETUP_RUNS times, about half
    before and half after the measuring worker, so that its median spans the
    run rather than one stretch of the machine's speed; a probe runs before
    the first set-up and after each."""
    start = time.perf_counter()
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work)]
    base += ["--tiny"] * args.tiny + ["--inject-fault"] * args.inject_fault
    setup, probes = [], [speed.probe(ROOT, env)]

    def sample() -> None:
        setup.append(setup_sample(args, env, base, start))
        probes.append(speed.probe(ROOT, env))

    try:
        for _ in range(SETUP_RUNS // 2):
            sample()
        _, proc = start_worker(base, env)
        try:
            out, _ = proc.communicate(timeout=remaining(start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        while len(setup) < SETUP_RUNS:
            sample()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["setup"], report["setup_probes"] = setup, probes
    return report


def end_to_end(report: dict) -> tuple[dict, list[str]]:
    passes = [[t * speed.factor(p["probes"]) for t in p["cpu"]] for p in report["passes"]]
    lat = [t for p in passes for t in p]
    tail_s, p = tail(lat)
    walls = [sum(p) for p in passes]
    raw_wall = median(sum(p["times"]) for p in report["passes"])
    raw_setup = median(s["time"] for s in report["setup"])
    setup_s = median(s["cpu"] for s in report["setup"]) * speed.factor(report["setup_probes"])
    metrics = {
        "setup_s": (setup_s, "s", f"median of {len(report['setup'])} set-ups, "
                    f"raw wall {raw_setup:.4g} s"),
        "wall_s": (median(walls), "s", f"median of {len(walls)} passes, raw wall {raw_wall:.4g} s"),
        "op_p50_s": (percentile(sorted(lat), 50.0), "s", f"n={len(lat)}"),
        "op_tail_s": (tail_s, "s", f"p{p:.3g}, n={len(lat)}"),
        "peak_rss_mb": (report["maxrss_kb"] / 1024.0, "MiB", ""),
    }
    fail_ratio = report["failed"] / report["attempted"]
    lines = [f"  {k:<12} {v:>14.6g} {u:<4} {note}" for k, (v, u, note) in metrics.items()]
    lines.append(f"  {'fail_ratio':<12} {fail_ratio:>14.6g} 1    "
                 f"{report['failed']} of {report['attempted']} operations")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    units = {"_s": "s", "calls": "count", "terms": "count", "evals": "count",
             "bytes_written": "bytes"}
    metrics = {}
    for name, value in report["layers"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"  {k:<32} {m['value']:>16.6g} {m['unit']}" for k, m in sorted(metrics.items())]
    if report["absent"]:
        lines.append(f"  absent (not traced): {', '.join(report['absent'])}")
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    ap.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    speed.pin_to_one_cpu()
    if not (ROOT / "src" / "sropo" / "__init__.py").is_file():
        print(f"error: no sropo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "sropo")],
                   check=True, stdout=subprocess.DEVNULL)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        report = run_workload(args)
        metrics, lines = per_layer(report) if args.trace else end_to_end(report)
        print(f"{name} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
        print("\n".join(lines))
        for failure in report["failures"]:
            print(f"  FAILED {failure}")
        results[name] = (report, metrics)

    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
