"""Experiment pipelines -- the pass compositions of the paper's Table 1.

Every experiment is a named sequence of phases applied to a *non-SSA*
input module:

========================  =====================================================
phase                      meaning
========================  =====================================================
``ssa``                    pruned SSA construction (always first)
``sreedhar``               Sreedhar et al. Method III conversion + pinningCSSA
``pinningSP``              re-pin stack-pointer webs (always on, section 5)
``pinningABI``             ABI/2-operand renaming constraints as pins
``pinningPhi``             the paper's coalescer (variants via options)
``out-of-pinned-ssa``      Leung & George-style reconstruction
``naiveABI``               late local ABI lowering (when pinningABI is off)
``coalescing``             Chaitin-style aggressive repeated coalescing (C)
========================  =====================================================

:data:`EXPERIMENTS` reproduces the exact bullet matrix of Table 1, keyed
by the labels used in Tables 2-4 (``Lφ+C``, ``Sφ+C``, ``LABI+C``, ...);
:func:`run_experiment` executes one of them on a module and returns the
transformed module plus the collected statistics.  The pipeline verifies
the IR between phases and can check semantic equivalence against the
reference interpreter (``verify=...``).  Every function compiles to a
:class:`FunctionRecord`, and :func:`assemble` alone turns records into
an :class:`ExperimentResult`, whichever process or cache produced them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .analysis.manager import AnalysisManager
from .interp import run_module
from .ir.function import Function, Module
from .ir.validate import validate_function
from .machine.constraints import pinning_abi, pinning_sp
from .machine.st120 import ST120
from .machine.target import Target
from .metrics import (count_instructions, count_moves, ir_measures,
                      weighted_moves)
from .observability import NULL_TRACER, STATS_SCHEMA, jsonable
from .observability import resolve as resolve_tracer
from .observability.metrics import metrics_view
from .outofssa.chaitin import aggressive_coalesce
from .outofssa.leung_george import out_of_pinned_ssa
from .outofssa.naive_abi import naive_abi
from .outofssa.pinning_coalescer import coalesce_phis
from .outofssa.sreedhar import sreedhar_to_cssa
from .ssa.construction import construct_ssa
from .ssa.copyprop import optimize_ssa

#: ``(function, args)`` interpreter runs that must observe the same
#: trace before and after a pipeline.
Verify = Optional[Sequence[tuple[str, Sequence[int]]]]


def ensure_ssa(function: Function) -> None:
    """Bring *function* into SSA form.

    Sources already containing phi instructions (the paper's figure
    examples are written directly in SSA) are validated and get their
    critical edges split; everything else goes through pruned SSA
    construction.
    """
    from .ir.cfg import split_critical_edges

    if any(block.phis for block in function.iter_blocks()):
        split_critical_edges(function)
        validate_function(function, ssa=True)
    else:
        construct_ssa(function)


@dataclass
class PhaseOptions:
    """Knobs of the ``pinningPhi`` phase (paper Table 5 variants and the
    ablation benchmarks)."""

    mode: str = "base"  # "base" | "optimistic" | "pessimistic"
    depth_ordered: bool = False
    literal_weight_update: bool = False
    traversal: str = "inner-to-outer"
    weight_ordered: bool = True
    phys_affinity: bool = True


@dataclass
class FunctionRecord:
    """What compiling one function produces: the unit every execution
    path hands to :func:`assemble`, and the value the persistent cache
    stores.  ``phase_stats`` maps each phase but ``ssa`` to the pass
    statistics; ``breakdown`` holds one ``{"phase", "before", "after"}``
    IR-measure entry per phase (recorded when tracing or caching) and
    ``counters`` the decision-counter deltas (when both, so a cache hit
    replays them)."""

    function: Function
    phase_stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    breakdown: list = field(default_factory=list)
    moves: int = 0
    weighted: int = 0
    instructions: int = 0


@dataclass
class ExperimentResult:
    name: str
    module: Module
    moves: int = 0
    weighted: int = 0
    instructions: int = 0
    phase_stats: dict = field(default_factory=dict)
    #: Per-phase timing + IR-delta entries (``repro.stats/v1`` shape);
    #: populated only when a recording tracer is installed.
    phase_breakdown: list = field(default_factory=list)
    #: The tracer the experiment ran under (NULL_TRACER by default).
    tracer: object = NULL_TRACER
    #: Shared-analysis cache traffic of the run
    #: (:meth:`repro.analysis.manager.AnalysisManager.stats` shape).
    analysis_cache: dict = field(default_factory=dict)
    #: Pool shape and wall times when the run used
    #: :mod:`repro.parallel`; empty for serial runs.
    parallel: dict = field(default_factory=dict)
    #: Persistent-cache traffic of the run
    #: (:meth:`repro.cache.CompilationCache.stats` shape); empty when
    #: no cache was configured.
    cache: dict = field(default_factory=dict)
    #: The :class:`FunctionRecord` of every function, in module order.
    records: dict = field(default_factory=dict)

    def row(self) -> tuple:
        return (self.name, self.moves, self.weighted)

    def to_stats(self) -> dict:
        """This result as a ``repro.stats/v1`` document (see
        :mod:`repro.observability.schema` and docs/observability.md).
        A traced run's ``metrics`` block is
        :func:`~repro.observability.metrics.metrics_view` of it."""
        tracer = self.tracer
        document = {
            "schema": STATS_SCHEMA,
            "experiment": self.name,
            "totals": {"moves": self.moves, "weighted": self.weighted,
                       "instructions": self.instructions},
            "phases": [dict(entry) for entry in self.phase_breakdown],
            "phase_stats": jsonable(self.phase_stats),
            "counters": dict(tracer.counters) if tracer.enabled else {},
            "events": len(tracer.events) if tracer.enabled else 0,
            "analysis_cache": dict(self.analysis_cache),
        }
        if self.parallel:
            document["parallel"] = jsonable(self.parallel)
        if self.cache:
            document["cache"] = dict(self.cache)
        if tracer.enabled:
            from .interp import resolve_tier

            document["metrics"] = metrics_view(self)
            environment = tracer.environment
            document["interp"] = {
                "tier": resolve_tier(),
                "code_cache": {
                    "hits": environment.get("interp.code_cache.hits", 0),
                    "misses": environment.get("interp.code_cache.misses",
                                              0),
                    "compile_ns": environment.get("interp.compile_ns", 0),
                },
            }
        return document

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The stats document serialized to a JSON string."""
        return json.dumps(self.to_stats(), indent=indent, sort_keys=False)


#: The bullet matrix of paper Table 1: experiment -> active phases.
EXPERIMENTS: dict[str, tuple[str, ...]] = {
    # Table 2 (no ABI constraints)
    "Lphi+C": ("ssa", "copyprop", "pinningSP", "pinningPhi", "out-of-pinned-ssa",
               "coalescing"),
    "C": ("ssa", "copyprop", "pinningSP", "out-of-pinned-ssa", "coalescing"),
    "Sphi+C": ("ssa", "copyprop", "pinningSP", "sreedhar", "out-of-pinned-ssa",
               "coalescing"),
    # Table 3 (with renaming constraints)
    "Lphi,ABI+C": ("ssa", "copyprop", "pinningSP", "pinningABI", "pinningPhi",
                   "out-of-pinned-ssa", "coalescing"),
    "Sphi+LABI+C": ("ssa", "copyprop", "pinningSP", "pinningABI", "sreedhar",
                    "out-of-pinned-ssa", "coalescing"),
    "LABI+C": ("ssa", "copyprop", "pinningSP", "pinningABI", "out-of-pinned-ssa",
               "coalescing"),
    "naiveABI+C": ("ssa", "copyprop", "pinningSP", "out-of-pinned-ssa", "naiveABI",
                   "coalescing"),
    # Table 4 (no late coalescing: order-of-magnitude counts)
    "Lphi,ABI": ("ssa", "copyprop", "pinningSP", "pinningABI", "pinningPhi",
                 "out-of-pinned-ssa"),
    "Sphi": ("ssa", "copyprop", "pinningSP", "sreedhar", "out-of-pinned-ssa",
             "naiveABI"),
    "LABI": ("ssa", "copyprop", "pinningSP", "pinningABI", "out-of-pinned-ssa"),
}

#: What each phase declares it *preserves* of the shared analysis cache
#: even though it mutated the IR (consumed by
#: :meth:`repro.analysis.manager.AnalysisManager.invalidate` after the
#: phase ran).  Pin-only phases (``pinningSP``/``pinningABI``/
#: ``pinningPhi``) never bump the mutation epoch -- pins are resources,
#: not IR -- so their caches survive by epoch equality alone; declaring
#: ``"all"`` documents the contract and keeps them preserved even if a
#: future edit makes them touch the body.  Rewriting phases preserve
#: nothing: their own epoch bumps discard stale entries.  Dominator
#: trees and loop forests are keyed to the *CFG* epoch and therefore
#: survive every straight-line rewrite with no declaration needed.
PHASE_PRESERVES: dict[str, frozenset] = {
    "ssa": frozenset(),
    "copyprop": frozenset(),
    "pinningSP": frozenset({"all"}),
    "pinningABI": frozenset({"all"}),
    "sreedhar": frozenset(),
    "pinningPhi": frozenset({"all"}),
    "out-of-pinned-ssa": frozenset(),
    "naiveABI": frozenset(),
    "coalescing": frozenset(),
}

#: Paper table -> experiments, first column is the baseline the deltas
#: are computed against (the tables print "+N" relative to it).
TABLE_EXPERIMENTS: dict[str, tuple[str, ...]] = {
    "table2": ("Lphi+C", "C", "Sphi+C"),
    "table3": ("Lphi,ABI+C", "Sphi+LABI+C", "LABI+C", "naiveABI+C"),
    "table4": ("Lphi,ABI", "Sphi", "LABI"),
}


def run_experiment(module: Module, name: str,
                   options: Optional[PhaseOptions] = None,
                   target: Target = ST120, verify: Verify = None,
                   validate: bool = True, tracer=None,
                   jobs: Optional[int] = None,
                   cache=None) -> ExperimentResult:
    """Run experiment *name* on a fresh copy of *module*.

    ``verify`` runs are compared before and after the pipeline, making
    every experiment self-checking.  ``tracer`` (a
    :class:`repro.observability.Tracer`) records per-phase spans, IR
    deltas and decision counters; ``None`` installs the zero-overhead
    null tracer, and tracing never changes an output byte.  ``jobs``
    shards the functions across a worker pool (see
    :mod:`repro.parallel`); ``cache`` is a :class:`~repro.cache.CompilationCache`, a directory,
    or ``None`` to consult ``$REPRO_CACHE``.  Every path ends in
    :func:`assemble`, so output is identical at any job count and cache
    temperature.
    """
    from .cache import resolve_cache
    from .parallel import resolve_jobs, run_phases_parallel

    phases = EXPERIMENTS[name]
    cache = resolve_cache(cache)
    if resolve_jobs(jobs) > 1:
        return run_phases_parallel(module, name, phases, options, target,
                                   verify, validate, tracer, jobs=jobs,
                                   cache=cache)
    return run_phases(module, name, phases, options, target, verify,
                      validate, tracer, cache=cache)


def _snapshot(module: Module) -> dict[str, dict[str, int]]:
    """Per-function IR measures (never taken on the null path)."""
    return {f.name: ir_measures(f) for f in module.iter_functions()}


_EMPTY_MEASURES = {"instructions": 0, "moves": 0, "phis": 0}


def phase_entry(phase: str, timing: tuple[int, int, int],
                measures: dict) -> dict:
    """One ``phases[]`` entry of the ``repro.stats/v1`` document.

    *measures* maps each function to its IR measures ``{"before",
    "after"}`` around *phase*; a missing side counts as zeros, so a
    function the phase removed still reports its (negative) delta and
    one it added its positive delta.  *timing* is the phase's ``(seq,
    start_ns, duration_ns)``."""
    functions = {}
    totals = dict.fromkeys(_EMPTY_MEASURES, 0)
    for fname, sides in measures.items():
        b = sides.get("before", _EMPTY_MEASURES)
        a = sides.get("after", _EMPTY_MEASURES)
        delta = {key: a[key] - b[key] for key in totals}
        functions[fname] = {"before": dict(b), "after": dict(a),
                            "delta": delta}
        for key in totals:
            totals[key] += delta[key]
    moves_delta = totals["moves"]
    seq, start_ns, duration_ns = timing
    return {
        "phase": phase,
        "seq": seq,
        "start_ns": start_ns,
        "duration_ns": duration_ns,
        "delta": {**totals,
                  # Net split of the move delta: a phase both inserting
                  # and removing copies reports the net direction only.
                  "copies_inserted": max(moves_delta, 0),
                  "copies_removed": max(-moves_delta, 0)},
        "functions": functions,
    }


def _phase_timings(tracer, root) -> dict[str, tuple[int, int, int]]:
    """``(seq, start_ns, duration_ns)`` of every phase from the
    ``phase:*`` spans after *root* (all when ``None``); the spans of
    several shards fold to the first seq, earliest start, slowest run."""
    timings: dict[str, tuple[int, int, int]] = {}
    for span in reversed(tracer.spans):
        if span is root:
            break
        if span.name.startswith("phase:"):
            phase = span.name[len("phase:"):]
            seq, start, duration = timings.get(
                phase, (span.seq, span.start_ns, span.duration_ns))
            timings[phase] = (min(seq, span.seq), min(start, span.start_ns),
                              max(duration, span.duration_ns))
    return timings


def _sum_blocks(blocks: Iterable[dict]) -> dict:
    """Integer blocks added key by key (first-seen key order)."""
    total: dict = {}
    for block in blocks:
        for key, value in block.items():
            total[key] = total.get(key, 0) + value
    return total


def assemble(module: Module, records: dict, name: str,
             phases: Sequence[str], *, tracer=NULL_TRACER, root=None,
             replay: Iterable[str] = (),
             parts: Sequence[dict] = ()) -> ExperimentResult:
    """Turn per-function *records* into the result of running *phases*
    on *module*: the one merge behind serial runs, cache hits, ``--jobs``
    shards and serve batches, so output never depends on which process
    produced a record, or when.  Functions and ``phase_stats`` entries
    follow *module*'s order; paper metrics are the records' sums; the
    ``analysis_cache``/``cache`` blocks of *parts* (one per pipeline run
    that produced records) are summed per key.  With a recording
    *tracer*, the counters of the *replay* records (cache hits) are
    added to it and ``phases[]`` is rebuilt from the records' IR
    measures, timed by the ``phase:*`` spans recorded after *root*.
    """
    ordered = {fn_name: records[fn_name] for fn_name in module.functions
               if fn_name in records}
    merged = Module(module.name)
    for record in ordered.values():
        merged.add_function(record.function)
    merged.externals = dict(module.externals)
    result = ExperimentResult(
        name=name, module=merged, tracer=tracer, records=ordered,
        moves=sum(record.moves for record in ordered.values()),
        weighted=sum(record.weighted for record in ordered.values()),
        instructions=sum(record.instructions
                         for record in ordered.values()),
        analysis_cache=_sum_blocks(part["analysis_cache"]
                                   for part in parts),
        cache=_sum_blocks(part["cache"] for part in parts))
    for phase in phases:
        if phase != "ssa":
            result.phase_stats[phase] = {
                fn_name: record.phase_stats[phase]
                for fn_name, record in ordered.items()
                if phase in record.phase_stats}
    if tracer.enabled:
        for fn_name in replay:
            for counter, value in records[fn_name].counters.items():
                tracer.counters[counter] = \
                    tracer.counters.get(counter, 0) + value
        timings = _phase_timings(tracer, root)
        for i, phase in enumerate(phases):
            result.phase_breakdown.append(phase_entry(
                phase, timings.get(phase, (0, 0, 0)),
                {fn_name: record.breakdown[i]
                 for fn_name, record in ordered.items()}))
    return result


def _phase_runner(phase: str, options: PhaseOptions, target: Target,
                  tracer, manager: AnalysisManager):
    """The per-function callable implementing *phase* (returns that
    function's pass statistics; ``ssa`` returns ``None``)."""
    if phase == "ssa":
        return lambda f: ensure_ssa(f)
    if phase == "copyprop":
        return lambda f: optimize_ssa(f)
    if phase == "pinningSP":
        return lambda f: pinning_sp(f, target)
    if phase == "pinningABI":
        return lambda f: pinning_abi(f, target, analyses=manager)
    if phase == "sreedhar":
        return lambda f: sreedhar_to_cssa(f, tracer=tracer,
                                          analyses=manager)
    if phase == "pinningPhi":
        return lambda f: coalesce_phis(
            f, mode=options.mode,
            depth_ordered=options.depth_ordered,
            literal_weight_update=options.literal_weight_update,
            traversal=options.traversal,
            weight_ordered=options.weight_ordered,
            phys_affinity=options.phys_affinity,
            tracer=tracer, analyses=manager)
    if phase == "out-of-pinned-ssa":
        return lambda f: out_of_pinned_ssa(f, analyses=manager)
    if phase == "naiveABI":
        return lambda f: naive_abi(f, target)
    if phase == "coalescing":
        return lambda f: aggressive_coalesce(f, tracer=tracer,
                                             analyses=manager)
    raise ValueError(f"unknown phase {phase!r}")


def observe(module: Module, verify: Verify, tracer) -> dict:
    """The interpreter trace of every ``verify`` run on *module*."""
    references = {}
    if verify:
        with tracer.span("verify:before"):
            for fn_name, args in verify:
                references[(fn_name, tuple(args))] = \
                    run_module(module, fn_name, args,
                               tracer=tracer).observable()
    return references


def check_behaviour(name: str, module: Module, references: dict,
                    tracer) -> None:
    """Raise ``AssertionError`` if *module* changed an observed trace."""
    if not references:
        return
    with tracer.span("verify:after"):
        for (fn_name, args), reference in references.items():
            after = run_module(module, fn_name, args,
                               tracer=tracer).observable()
            if after != reference:
                raise AssertionError(
                    f"{name}: {fn_name}{tuple(args)} changed "
                    f"behaviour: {reference} -> {after}")


def run_phases(module: Module, name: str, phases: Iterable[str],
               options: Optional[PhaseOptions] = None,
               target: Target = ST120, verify: Verify = None,
               validate: bool = True, tracer=None,
               cache=None) -> ExperimentResult:
    """Run *phases* on a copy of *module* in this process: cache hits
    become records straight from the store, every other function is
    compiled into a fresh :class:`FunctionRecord`, and :func:`assemble`
    merges the two."""
    tracer = resolve_tracer(tracer)
    options = options or PhaseOptions()
    phases = tuple(phases)
    work = module.copy()
    manager = AnalysisManager()
    cache_mark = cache.stats() if cache is not None else None
    with tracer.span(f"experiment:{name}", experiment=name) as root:
        references = observe(module, verify, tracer)

        # Cache probe: hit functions leave the working module entirely
        # (their stored records are merged back by ``assemble``); only
        # misses flow through the phases below.
        hits: dict[str, FunctionRecord] = {}
        miss_keys: dict[str, str] = {}
        if cache is not None:
            with tracer.span("cache:probe",
                             functions=len(work.functions)):
                for function in list(work.iter_functions()):
                    key = cache.key(function, phases, options, target)
                    record = cache.probe(key)
                    if record is None:
                        miss_keys[function.name] = key
                    else:
                        hits[function.name] = record
                        del work.functions[function.name]
        records = {function.name: FunctionRecord(function)
                   for function in work.iter_functions()}
        # Per-phase IR measures are recorded when tracing (for
        # ``phases[]``) or caching (so a later hit can rebuild them);
        # decision-counter deltas only when both, for replay on a hit.
        recording = tracer.enabled or cache is not None
        capture = tracer.enabled and cache is not None

        in_ssa = False
        #: function -> (epoch, cfg_epoch, in_ssa) at its last clean
        #: validation.  A phase that left both epochs alone (pin-only
        #: phases by contract, or a fixpoint pass that found nothing to
        #: do) cannot have changed what the validator looks at -- pins
        #: are resources, not IR -- so the check is skipped.
        validated: dict[Function, tuple[int, int, bool]] = {}
        before = _snapshot(work) if recording else None
        for phase in phases:
            runner = _phase_runner(phase, options, target, tracer, manager)
            keep_stats = phase != "ssa"
            with tracer.span(f"phase:{phase}", phase=phase) as span:
                # A traced phase span carries each function's compile
                # ns, the source of the ``metrics`` view's histograms.
                function_ns = None
                if tracer.enabled:
                    function_ns = span.attrs["function_ns"] = {}
                for function in work.iter_functions():
                    base = dict(tracer.counters) if capture else None
                    if function_ns is not None:
                        fn_start = time.perf_counter_ns()
                    value = runner(function)
                    if function_ns is not None:
                        function_ns[function.name] = \
                            time.perf_counter_ns() - fn_start
                    record = records[function.name]
                    if keep_stats:
                        record.phase_stats[phase] = value
                    if base is not None:
                        deltas = record.counters
                        for counter, total in tracer.counters.items():
                            delta = total - base.get(counter, 0)
                            if delta:
                                deltas[counter] = \
                                    deltas.get(counter, 0) + delta
            if phase == "ssa":
                in_ssa = True
            elif phase == "out-of-pinned-ssa":
                in_ssa = False
            if recording:
                after = _snapshot(work)
                for fn_name, record in records.items():
                    record.breakdown.append(
                        {"phase": phase,
                         "before": before.get(fn_name, _EMPTY_MEASURES),
                         "after": after.get(fn_name, _EMPTY_MEASURES)})
                before = after
            for function in work.iter_functions():
                manager.invalidate(function,
                                   preserves=PHASE_PRESERVES[phase])
            if validate:
                with tracer.span(f"validate:{phase}"):
                    for function in work.iter_functions():
                        stamp = (function.epoch, function.cfg_epoch, in_ssa)
                        if validated.get(function) == stamp:
                            continue
                        validate_function(function, ssa=in_ssa,
                                          allow_phis=in_ssa)
                        validated[function] = stamp

        for record in records.values():  # phases rewrite functions in place
            function = record.function
            record.moves = count_moves(function)
            record.weighted = weighted_moves(function, analyses=manager)
            record.instructions = count_instructions(function)
        if cache is not None and miss_keys:
            with tracer.span("cache:store", functions=len(miss_keys)):
                for fn_name, key in miss_keys.items():
                    cache.store(key, records[fn_name])

        result = assemble(
            module, {**records, **hits}, name, phases, tracer=tracer,
            root=root, replay=hits,
            parts=[{"analysis_cache": manager.stats(),
                    "cache": cache.stats_since(cache_mark)
                    if cache is not None else {}}])
        check_behaviour(name, result.module, references, tracer)
    return result


def _run_labelled(module: Module, specs, verify: Verify, validate: bool,
                  tracer, jobs: Optional[int],
                  cache=None) -> list[ExperimentResult]:
    """Run ``(label, experiment, options)`` *specs*, serially or -- when
    ``jobs`` allows -- one whole experiment per pool worker.  ``tracer``
    may be an instance shared by all runs or a factory such as the
    :class:`Tracer` class (one fresh tracer per run, as per-run stats
    documents want); the parallel path always gives each run its own."""
    from .cache import resolve_cache
    from .parallel import run_experiments_parallel

    cache = resolve_cache(cache)
    results = run_experiments_parallel(module, specs, verify=verify,
                                       validate=validate,
                                       traced=tracer is not None,
                                       jobs=jobs, cache=cache)
    if results is not None:
        return results
    results = []
    for label, name, options in specs:
        result = run_experiment(
            module, name, options=options, verify=verify,
            validate=validate, jobs=1, cache=cache,
            tracer=tracer() if callable(tracer) else tracer)
        result.name = label
        results.append(result)
    return results


def run_table(module: Module, table: str, verify: Verify = None,
              options: Optional[PhaseOptions] = None, validate: bool = True,
              tracer=None, jobs: Optional[int] = None,
              cache=None) -> list[ExperimentResult]:
    """Run all experiments of one paper table on *module*.

    ``options``/``validate``/``tracer``/``cache`` are forwarded to
    every :func:`run_experiment`; ``tracer`` may be a factory (e.g. the
    ``Tracer`` class) to give each run its own tracer.  ``jobs > 1``
    shards whole experiments across a worker pool.
    """
    specs = [(name, name, options) for name in TABLE_EXPERIMENTS[table]]
    return _run_labelled(module, specs, verify, validate, tracer, jobs,
                         cache=cache)


def run_experiments(module: Module, names: Optional[Sequence[str]] = None,
                    verify: Verify = None,
                    options: Optional[PhaseOptions] = None,
                    validate: bool = True, tracer=None,
                    jobs: Optional[int] = None,
                    cache=None) -> list[ExperimentResult]:
    """Run several experiments (default: the whole Table 1 matrix) on
    *module*, optionally sharding them across a worker pool."""
    specs = [(name, name, options) for name in (names or EXPERIMENTS)]
    return _run_labelled(module, specs, verify, validate, tracer, jobs,
                         cache=cache)


def table5_variants() -> dict[str, PhaseOptions]:
    """The four Table 5 configurations of the coalescer."""
    return {
        "base": PhaseOptions(),
        "depth": PhaseOptions(depth_ordered=True),
        "opt": PhaseOptions(mode="optimistic"),
        "pess": PhaseOptions(mode="pessimistic"),
    }


def run_table5(module: Module, verify: Verify = None, validate: bool = True,
               tracer=None, jobs: Optional[int] = None,
               cache=None) -> list[ExperimentResult]:
    """Table 5: weighted move counts of the coalescer variants, using
    the full constrained pipeline (``Lφ,ABI+C``)."""
    specs = [(label, "Lphi,ABI+C", options)
             for label, options in table5_variants().items()]
    return _run_labelled(module, specs, verify, validate, tracer, jobs,
                         cache=cache)
