"""Record a baseline: ``python3 perfbench/baseline.py --seeds 1-10``.

Runs every workload of ``BENCHMARK.json`` once per seed, untraced, plus
``--traced-seeds`` traced runs.  For each metric it writes the median,
quartiles, sample count and spread (interquartile range over median) to
``perfbench/baseline.json``.  The machine is recorded alongside.  The
spread of each end-to-end metric is printed next to its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT

# Which end-to-end metric each group of layer metrics should move.
LAYER_MAP = [
    {"layer_metrics": "import.*",
     "moves": "setup_s, wall_s, op_p50_s on cli_cold; only setup_s on kernels_large"},
    {"layer_metrics": "cli.self_s", "moves": "wall_s, op_p50_s on cli_cold"},
    {"layer_metrics": "scenario.*, dispersion.*, cavity.*",
     "moves": "under 1% of wall_s on cli_cold; setup_s on kernels_large"},
    {"layer_metrics": "spectra.*, correlations.*, numerics.*, biphoton.*",
     "moves": "wall_s, op_p50_s, op_tail_s, peak_rss_mb on kernels_large; "
              "wall_s, op_tail_s on cli_cold"},
    {"layer_metrics": "trace.*, svgplot.*",
     "moves": "wall_s, op_p50_s, op_tail_s on cli_cold; nothing on kernels_large"},
]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result["metrics"]


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "n": len(values), "spread": (q3 - q1) / med if med else 0.0}
    return out


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--traced-seeds", type=seeds, default=seeds("1-2"))
    args = ap.parse_args()
    out = HERE / "baseline.json"

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "traced_seeds": args.traced_seeds,
              "layer_map": LAYER_MAP, "end_to_end": {}, "per_layer": {}}
    for w in (w["name"] for w in spec["workloads"]):
        e2e = summary([run(w, s, spec["run_seconds"], 0) for s in args.seeds])
        report["end_to_end"][w] = e2e
        for name, st in e2e.items():
            over = st["spread"] > bounds[name]
            flag = "  OVER BOUND" if over else ""
            print(f"{w:<14} {name:<12} median {st['median']:<12.6g} spread {st['spread']:.3f}"
                  f" (bound {bounds[name]}){flag}", flush=True)
        if args.traced_seeds:
            report["per_layer"][w] = summary(
                [run(w, s, spec["run_seconds"], 1) for s in args.traced_seeds])
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
