"""One workload in one process: set up, say ``ready``, measure, report.

Run by ``run.py``; prints ``ready`` once set-up is done and, unless
``--setup-only`` is given, one JSON line with the raw samples at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def import_breakdown(root: Path, env: dict) -> dict:
    """Interpreter start plus ``import sropo``, split by ``-X importtime``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sropo"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    total = time.perf_counter() - start
    self_us = {"numpy": 0, "scipy": 0, "sropo": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue
        top = name.strip().split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
    return {
        "import.total_s": total,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.sropo_self_s": self_us["sropo"] / 1e6,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    root = HERE.parent

    import sropo

    if Path(sropo.__file__).resolve().parent != root / "src" / "sropo":
        print(f"imported sropo from {sropo.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import speed
    import workloads
    from tracer import Tracer

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    wl = workloads.build(args.workload, root, args.seed, args.tiny, work, env)
    wl.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    passes, traced_walls = [], []
    attempted = failed = 0
    failures: list[str] = []
    cli = args.workload == "cli_cold"

    start = time.perf_counter()
    n_pass = 0

    def enough() -> bool:
        if args.trace:  # passes alternate: untraced, traced, untraced, ...
            return bool(passes and traced_walls)
        return len(passes) >= wl.min_passes

    while not (enough() and time.perf_counter() - start >= args.seconds):
        traced = bool(args.trace) and n_pass % 2 == 1
        if traced and not cli:
            tracer.install()
        if cli:
            wl.traced = traced
        ops = wl.order()
        # Wall and CPU times of each operation, and a speed probe (untimed)
        # before the first, after every second and after the last operation;
        # run.py scales the CPU times by the probes.
        times, cpu, probes = [], [], [speed.probe(root, env)]
        for i, op in enumerate(ops):
            attempted += 1
            err = None
            c0, t0 = speed.cpu_clock(cli), time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                err = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            cpu.append(speed.cpu_clock(cli) - c0)
            if i % 2 == 1 or i == len(ops) - 1:
                probes.append(speed.probe(root, env))
            if err is None:
                if args.inject_fault and op is ops[0]:
                    result = workloads.perturb(result)
                try:
                    err = op.check(result)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{op.name}: {err}")
        if traced and not cli:
            tracer.uninstall()
        if traced:
            traced_walls.append(sum(times))
        else:
            passes.append({"times": times, "cpu": cpu, "probes": probes})
        n_pass += 1

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    report = {
        "passes": passes,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "maxrss_kb": usage.ru_maxrss,
    }
    if args.trace:
        report["layers"], report["absent"], spans = trace_report(
            args.workload, wl, tracer, len(traced_walls), root, env,
            [sum(p["times"]) for p in passes], traced_walls)
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{args.workload}.json").write_text(json.dumps(spans))
    print(json.dumps(report), flush=True)
    return 0


def trace_report(name, wl, tracer, n_traced, root, env, walls, traced_walls):
    from statistics import median

    from tracer import LAYERS, layer_metrics

    if name == "cli_cold":
        # Sum the children's layer metrics; cli.self_s is what the command's
        # wall time leaves after import and the traced library spans.
        layers: dict[str, float] = {}
        spans, absent = [], set()
        for res in wl.child_results:
            for k, v in res["metrics"].items():
                layers[k] = layers.get(k, 0) + v
            spans.append(res["spans"])
            absent.update(res["absent"])
        layers["cli.self_s"] = sum(traced_walls) - sum(
            r["import_s"] + r["top_level_s"] for r in wl.child_results)
        absent = sorted(absent)
    else:
        layers = layer_metrics(tracer)
        layers["cli.self_s"] = 0.0
        spans, absent = tracer.spans, tracer.absent
    layers = {k: v / n_traced for k, v in layers.items()}
    for layer in LAYERS:
        layers.setdefault(f"{layer}.self_s", 0.0)
    layers.update(import_breakdown(root, env))
    layers["tracing.overhead_s"] = median(traced_walls) - median(walls)
    return layers, absent, spans


if __name__ == "__main__":
    sys.exit(main())
