"""Layer spans recorded from outside the compiler.

The traced run wraps the public entry points of each layer (module
attributes the callers look up at call time) with a span recorder, and
restores them afterwards; nothing inside ``src/`` is edited.  A span
is ``(id, name, start_ns, end_ns, parent_id, unit_id)``: the parent is
the innermost span open on the same thread, and the unit id ties all
spans of one compile unit (one pipeline, one program, one worker task)
together.  Spans live in memory until the run ends.

A layer's *self* time is its spans' durations minus the durations of
their direct children, so self times partition every root span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

#: ``(module, attribute, layer)`` wrapped in every traced process.
#: Callers resolve these names through the module at call time
#: (``repro.pipeline`` calls its own globals), so replacing the module
#: attribute reaches every call.
PIPELINE_TARGETS = (
    ("repro.pipeline", "run_experiment", "pipeline"),
    ("repro.pipeline", "run_phases", "pipeline"),
    ("repro.pipeline", "ensure_ssa", "ssa"),
    ("repro.pipeline", "optimize_ssa", "ssa"),
    ("repro.pipeline", "pinning_sp", "constraints"),
    ("repro.pipeline", "pinning_abi", "constraints"),
    ("repro.pipeline", "coalesce_phis", "pinning_coalescer"),
    ("repro.pipeline", "out_of_pinned_ssa", "leung_george"),
    ("repro.pipeline", "aggressive_coalesce", "chaitin"),
    ("repro.pipeline", "sreedhar_to_cssa", "sreedhar"),
    ("repro.pipeline", "naive_abi", "naive_abi"),
    ("repro.pipeline", "validate_function", "validate"),
    ("repro.pipeline", "count_moves", "metrics"),
    ("repro.pipeline", "weighted_moves", "metrics"),
    ("repro.pipeline", "run_module", "interp"),
    ("repro.interp.compiled", "compile_function", "interp.compile"),
)

#: The text layers as the benchmark itself calls them (in process).
TEXT_TARGETS = (
    ("repro.lai", "parse_module", "lai"),
    ("repro.ir.printer", "format_module", "printer"),
)

#: The text layers and batch path inside a ``repro serve`` process.
SERVE_TARGETS = (
    ("repro.serve.protocol", "parse_module", "lai"),
    ("repro.serve.batcher", "format_module", "printer"),
    ("repro.serve.server", "run_batch", "serve.batch"),
    ("repro.parallel", "WorkerPool.run", "serve.pool_wait"),
    ("repro.serve.batcher", "_serve_shard_task", "serve.task"),
)

#: Layers whose busy time is reported whole (they have no children).
BUSY_LAYERS = ("lai", "printer")
#: Layers whose self time is reported.
SELF_LAYERS = ("ssa", "constraints", "pinning_coalescer", "leung_george",
               "chaitin", "sreedhar", "naive_abi", "validate", "metrics",
               "pipeline")


class SpanRecorder:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.unit = 0
        return local

    def set_unit(self, unit) -> None:
        """Tag the spans this thread records next with *unit*."""
        self._state().unit = unit

    def wrap(self, layer: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            # An untagged root span makes its own subtree one unit.
            own_unit = not stack and not state.unit
            if own_unit:
                state.unit = span_id
            unit = state.unit
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if own_unit:
                    state.unit = 0
                recorder.spans.append((span_id, layer, start, end, parent,
                                       unit))
        return traced

    # -- installation ---------------------------------------------------
    def install(self, targets) -> None:
        for module_name, path, layer in targets:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = getattr(owner, attribute)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original))

    def install_analysis(self) -> None:
        """Time each analysis *build* (cache misses of the
        :class:`~repro.analysis.manager.AnalysisManager` getters)."""
        from repro.analysis.manager import AnalysisManager

        original = AnalysisManager._get
        timed_build = self.wrap("analysis", lambda build: build())

        def _get(manager, function, kind, build):
            return original(manager, function, kind,
                            functools.partial(timed_build, build))

        self._patched.append((AnalysisManager, "_get", original))
        AnalysisManager._get = _get

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- export ---------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def self_times(spans) -> tuple[dict[str, dict], int]:
    """Per layer: ``busy_ns`` (summed durations), ``self_ns`` (minus
    direct children) and ``calls``; plus the summed duration of the
    parentless spans."""
    child_ns: dict = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    layers: dict[str, dict] = {}
    roots = 0
    for span_id, layer, start, end, parent, _ in spans:
        entry = layers.setdefault(layer,
                                  {"busy_ns": 0, "self_ns": 0, "calls": 0})
        duration = end - start
        entry["busy_ns"] += duration
        entry["self_ns"] += duration - child_ns.get(span_id, 0)
        entry["calls"] += 1
        if not parent:
            roots += duration
    return layers, roots


def layer_metrics(spans, analysis_totals: dict) -> dict[str, float]:
    """The per-layer metrics every workload reports (0 where a layer
    did no work)."""
    layers, _ = self_times(spans)

    def get(layer: str, key: str) -> int:
        return layers.get(layer, {}).get(key, 0)

    out: dict[str, float] = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_ms"] = get(layer, "busy_ns") / 1e6
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = get(layer, "self_ns") / 1e6
    out["validate.calls"] = get("validate", "calls")
    out["analysis.build_ms"] = get("analysis", "self_ns") / 1e6
    out["interp.compile_ms"] = get("interp.compile", "self_ns") / 1e6
    out["interp.exec_ms"] = get("interp", "self_ns") / 1e6
    out["interp.runs"] = get("interp", "calls")
    hits = analysis_totals.get("hits", 0)
    misses = analysis_totals.get("misses", 0)
    oracle_hits = analysis_totals.get("oracle_hits", 0)
    oracle_misses = analysis_totals.get("oracle_misses", 0)
    out["analysis.misses"] = misses
    out["analysis.hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    out["oracle.queries"] = oracle_hits + oracle_misses
    out["oracle.hit_ratio"] = oracle_hits / (oracle_hits + oracle_misses) \
        if oracle_hits + oracle_misses else 0.0
    return out


def add_analysis(totals: dict, block: dict) -> None:
    for key, value in (block or {}).items():
        totals[key] = totals.get(key, 0) + value
