"""Span tracing of sropo's public functions, installed from outside the package.

``Tracer.install`` replaces each wrapped function object in every loaded
``sropo`` module namespace that holds it, so calls through a ``from .x import
y`` binding are caught as well as calls inside the defining module.
``uninstall`` puts the original objects back.  Spans are kept in memory as
``(span_id, parent_id, name, layer, start, end)`` tuples and written out by
the caller at the end of the run.  A function that no longer exists is
recorded in ``absent`` and skipped.
"""

from __future__ import annotations

import os
import sys
import time

# (module, function): the span name is the function name and the layer is
# the module it is defined in.
TIMED = (
    ("scenario", "load_scenario"),
    ("scenario", "scenario_from_dict"),
    ("scenario", "scenario_hash"),
    ("scenario", "derive_scales"),
    ("dispersion", "phase_match"),
    ("dispersion", "transit_time_diff"),
    ("cavity", "round_trip_time"),
    ("cavity", "check_regime"),
    ("biphoton", "rate_continuum"),
    ("biphoton", "rate_mode_sum"),
    ("biphoton", "wavefunction_grid"),
    ("spectra", "g1"),
    ("spectra", "spectrum"),
    ("correlations", "g2_series"),
    ("correlations", "g2_exact"),
    ("correlations", "g2_compact"),
    ("correlations", "g2_averaged"),
    ("numerics", "dirichlet_kernel"),
    ("trace", "write_table_csv"),
    ("trace", "write_table_json"),
    ("svgplot", "write_svg_plot"),
)
# Called hundreds of times per solve: counted, not timed.
COUNTED = (("dispersion", "wavenumber"),)

LAYERS = (
    "scenario",
    "dispersion",
    "cavity",
    "biphoton",
    "spectra",
    "correlations",
    "numerics",
    "trace",
    "svgplot",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        # Work counts computed from result sizes, keyed by metric name.
        self.computed: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _timed(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, layer, start, end))
            self._count_work(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_work(self, name: str, args, kwargs, result) -> None:
        """Computed operation counts: grid size times modes or quadrature nodes."""
        extra = getattr(getattr(result, "meta", None), "extra", None) or {}
        n = getattr(getattr(result, "axis", None), "size", 0)
        if name == "g1" and "m_max" in extra:
            self._add("spectra.g1_terms", n * (2 * int(extra["m_max"]) + 1))
        elif name == "g2_series" and "m_max" in extra:
            self._add("correlations.series_terms", n * int(extra["m_max"]))
        elif name == "g2_exact" and "quad_points" in extra:
            self._add("correlations.exact_evals", n * int(extra["quad_points"]))
        elif name in ("write_table_csv", "write_table_json"):
            path = args[0] if args else kwargs.get("path")
            try:
                self._add("trace.bytes_written", os.path.getsize(path))
            except (OSError, TypeError):
                pass

    def _add(self, key: str, value: int) -> None:
        self.computed[key] = self.computed.get(key, 0) + value

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "sropo" or name.startswith("sropo."))
        ]
        self.absent = []
        plan = [(mod, fn, True) for mod, fn in TIMED] + [
            (mod, fn, False) for mod, fn in COUNTED
        ]
        for mod_name, fn_name, timed in plan:
            home = sys.modules.get(f"sropo.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = (
                self._timed(original, fn_name, mod_name)
                if timed
                else self._counted(original, fn_name)
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: span duration minus the time of its direct children."""
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {layer: 0.0 for layer in LAYERS}
    for span_id, _, _, layer, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics named as in the benchmark's ``per_layer`` list."""
    spans = tracer.spans
    names = {span_id: name for span_id, _, name, *_ in spans}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for _, _, name, _, start, end in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    # Outermost scenario loads only: load_scenario calls scenario_from_dict.
    load_s = sum(
        end - start
        for _, parent, name, _, start, end in spans
        if name == "load_scenario"
        or (name == "scenario_from_dict" and names.get(parent) != "load_scenario")
    )
    m = {
        "scenario.load_s": load_s,
        "scenario.calls": calls.get("scenario_from_dict", 0),
        "scenario.hash_s": total.get("scenario_hash", 0.0),
        "dispersion.phase_match_s": total.get("phase_match", 0.0),
        "dispersion.phase_match_calls": calls.get("phase_match", 0),
        "dispersion.wavenumber_calls": tracer.counts.get("wavenumber", 0),
        "cavity.derive_scales_s": total.get("derive_scales", 0.0),
        "cavity.check_regime_s": total.get("check_regime", 0.0),
        "spectra.g1_s": total.get("g1", 0.0),
        "spectra.spectrum_s": total.get("spectrum", 0.0),
        "spectra.g1_terms": tracer.computed.get("spectra.g1_terms", 0),
        "correlations.series_s": total.get("g2_series", 0.0),
        "correlations.exact_s": total.get("g2_exact", 0.0),
        "correlations.compact_s": total.get("g2_compact", 0.0),
        "correlations.averaged_s": total.get("g2_averaged", 0.0),
        "correlations.series_terms": tracer.computed.get("correlations.series_terms", 0),
        "correlations.exact_evals": tracer.computed.get("correlations.exact_evals", 0),
        "numerics.dirichlet_s": total.get("dirichlet_kernel", 0.0),
        "numerics.dirichlet_calls": calls.get("dirichlet_kernel", 0),
        "biphoton.rate_mode_sum_s": total.get("rate_mode_sum", 0.0),
        "biphoton.wavefunction_s": total.get("wavefunction_grid", 0.0),
        "trace.write_csv_s": total.get("write_table_csv", 0.0),
        "trace.write_json_s": total.get("write_table_json", 0.0),
        "trace.bytes_written": tracer.computed.get("trace.bytes_written", 0),
        "svgplot.write_s": total.get("write_svg_plot", 0.0),
    }
    for layer, value in self_times(spans).items():
        m[f"{layer}.self_s"] = value
    return m


def top_level_time(spans) -> float:
    """Time covered by spans that have no traced parent."""
    return sum(end - start for _, parent, *_, start, end in spans if parent is None)
