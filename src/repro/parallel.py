"""Parallel compilation: one worker pool, one task body.

Every phase of every experiment processes functions independently (the
same per-function independence the paper's Tables 2-5 rely on), so a
module can be *sharded*: split its functions across worker processes,
run the full pipeline on each shard, and hand the per-function
:class:`~repro.pipeline.FunctionRecord`\\ s the shards send back to
:func:`repro.pipeline.assemble` -- the same merge the serial path, cache
hits and ``repro serve`` batches use, which is why output is
**byte-identical at any job count**.  Whole experiments of a table are
equally independent and shard the same way.  What this module adds is
a parallel run's environment: worker traces grafted into the parent
tracer (one coherent Chrome trace), worker metric snapshots merged, and
the ``parallel`` block.

All pool work runs on :class:`WorkerPool` (a one-shot ``--jobs`` run is
a ``with WorkerPool(n)`` block; ``repro serve`` keeps one for its
lifetime) as pickled :class:`ShardJob`\\ s through one task body,
:func:`run_shard`, placed by a deterministic greedy LPT
(:func:`partition`).  Runs are serial when ``jobs`` resolves to 1, when
there is at most one unit of work, without the ``fork`` start method,
when a module will not pickle (lambda externals), or when the pool
broke even after one respawn.  Worker *exceptions* propagate exactly as
they would serially.

``jobs`` everywhere (``run_experiment``, ``run_table``, the CLI
``--jobs``, the benchmark harness): ``None`` reads ``$REPRO_JOBS``
(default 1), ``0`` means all cores, ``N`` uses at most N workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple, Optional, Sequence

from .ir.function import Module
from .machine.st120 import ST120
from .machine.target import Target
from .metrics import count_instructions
from .observability import NULL_TRACER, Tracer
from .observability import resolve as resolve_tracer
from .observability.metrics import MetricsRegistry, resolve_metrics


# ----------------------------------------------------------------------
# Job resolution, platform capability and placement
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``jobs=`` argument to a concrete worker count.

    ``None`` consults the ``REPRO_JOBS`` environment variable (default
    1, which is the serial path); ``0`` means one worker per CPU core;
    anything else is clamped to at least 1.
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def fork_available() -> bool:
    """Whether pool workers can fork (else everything runs serially)."""
    return "fork" in multiprocessing.get_all_start_methods()


def partition(units: Sequence[tuple[int, object]],
              workers: int) -> list[list[object]]:
    """Deterministic greedy-LPT placement of ``(weight, key)`` *units*
    into at most *workers* shards.

    Units go heaviest first (list order as tie-break) to the least
    loaded shard (lowest index on ties) -- load balance without any
    dependence on hashing or arrival order.  Empty shards are dropped.
    """
    ordered = sorted(range(len(units)), key=lambda i: (-units[i][0], i))
    shards: list[list[object]] = [[] for _ in range(max(1, workers))]
    loads = [0] * len(shards)
    for i in ordered:
        weight, key = units[i]
        target = min(range(len(shards)), key=lambda j: (loads[j], j))
        shards[target].append(key)
        loads[target] += weight
    return [shard for shard in shards if shard]


def pack_shard(module: Module, names: Sequence[str]) -> bytes:
    """The pickled ``(module, verify)`` pair of a :class:`ShardJob`
    holding *names*' functions (no externals: verify runs in the parent)."""
    shard = Module(module.name)
    for fn_name in names:
        shard.add_function(module.functions[fn_name])
    return pickle.dumps((shard, None), protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class ShardJob(NamedTuple):
    """One unit of pool work: run *phases* as experiment *name* on the
    pickled ``(module, verify)`` pair in *blob* (a function shard, or a
    whole module for experiment-level runs).  ``traced``/``metriced``
    give the worker its own recorder."""

    blob: bytes
    name: str
    phases: tuple
    options: object = None
    target: Target = ST120
    validate: bool = True
    cache: object = None
    traced: bool = False
    metriced: bool = False


def run_shard(job: ShardJob) -> dict:
    """The task body of every pool: run the pipeline on one job and
    return its picklable outcome -- the function records plus the
    environment blocks the parent sums or grafts."""
    from . import pipeline as _pipeline

    module, verify = pickle.loads(job.blob)
    start = time.perf_counter_ns()
    result = _pipeline.run_phases(
        module, job.name, job.phases, job.options, job.target, verify,
        job.validate, Tracer() if job.traced else None, cache=job.cache,
        metrics=MetricsRegistry() if job.metriced else None)
    return {"records": result.records,
            "analysis_cache": result.analysis_cache,
            "cache": result.cache,
            "metrics": result.metrics,
            "tracer": result.tracer if job.traced else None,
            "wall_ns": time.perf_counter_ns() - start}


def _pool_ping(delay: float = 0.0) -> int:
    """Health-check task: returns the worker's pid."""
    if delay:
        time.sleep(delay)
    return os.getpid()


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A fork pool that lives as long as its owner (a ``with`` block or
    a ``repro serve`` process).  Tasks carry their own state pickled in
    the spec.  A dead worker (``BrokenProcessPool``) is handled by
    respawning the executor and retrying the submission once; compile
    tasks are pure, so the retry is safe."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.workers = resolve_jobs(jobs)
        self.respawns = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=context)
        return self._pool

    @property
    def alive(self) -> bool:
        """Whether an executor is currently up (it may still be broken
        -- :meth:`ping` actually exercises a worker)."""
        return self._pool is not None

    def warm(self) -> list[int]:
        """Spawn every worker now (a brief sleep per task spreads them
        across processes) and return their pids; the server calls this
        before its threads exist."""
        delay = 0.05 if self.workers > 1 else 0.0
        pids = self.run(_pool_ping, [delay] * self.workers)
        return sorted(set(pids)) if pids else []

    def ping(self) -> bool:
        """Round-trip one trivial task (respawning if needed)."""
        return bool(self.run(_pool_ping, [0.0]))

    def run(self, task, specs) -> Optional[list]:
        """Map *task* over *specs*; results in submission order, or
        ``None`` when the pool broke again after one respawn.  Worker
        *Python* exceptions propagate unchanged."""
        specs = list(specs)
        for _ in range(2):
            pool = self._ensure()
            try:
                futures = [pool.submit(task, spec) for spec in specs]
                return [future.result() for future in futures]
            except (BrokenProcessPool, OSError):
                self.respawn()
        return None

    def respawn(self) -> None:
        """Discard the (broken) executor; the next submission forks a
        fresh one."""
        pool, self._pool = self._pool, None
        self.respawns += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the executor down, waiting for in-flight tasks."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _graft_tracer(parent: Tracer, worker: Tracer, root_seq: Optional[int],
                  depth_offset: int) -> None:
    """Splice a worker tracer's records into *parent*: seqs renumbered
    into a fresh block of the parent's counter (worker blocks sit in
    shard-index order), timestamps rebased to the parent's epoch
    (``CLOCK_MONOTONIC`` is system-wide under fork), top-level spans
    re-parented under *root_seq*."""
    base = parent._seq
    shift = worker.epoch_ns - parent.epoch_ns
    for span in worker.spans:
        span.seq += base
        span.parent = span.parent + base if span.parent is not None \
            else root_seq
        span.depth += depth_offset
        span.start_ns += shift
        span.wall_start = parent.epoch_wall + span.start_ns / 1e9
        parent.spans.append(span)
    for event in worker.events:
        event.seq += base
        event.ts_ns += shift
        event.span = event.span + base if event.span is not None \
            else root_seq
        parent.events.append(event)
    for key, value in worker.counters.items():
        parent.counters[key] = parent.counters.get(key, 0) + value
    parent._seq = base + worker._seq


def _run_one_shot(workers: int, cache, jobs: list) -> Optional[list]:
    """Run *jobs* on a one-shot pool, adding the workers' cache traffic
    to the caller's *cache* instance; ``None`` if the pool broke."""
    with WorkerPool(workers) as pool:
        payloads = pool.run(run_shard, jobs)
    if payloads is not None and cache is not None:
        for payload in payloads:
            cache.absorb(payload["cache"])
    return payloads


def run_phases_parallel(module: Module, name: str, phases,
                        options=None, target: Target = ST120,
                        verify=None, validate: bool = True,
                        tracer=None, jobs: Optional[int] = None,
                        cache=None, metrics=None):
    """Function-level sharding of :func:`repro.pipeline.run_phases`:
    each shard runs the whole pipeline in a worker (with its own tracer
    and metrics registry when the caller has one); the parent grafts
    and merges those, assembles the records, and runs semantic
    verification against the input and the assembled module exactly as
    the serial path does."""
    from . import pipeline as _pipeline

    tracer = resolve_tracer(tracer)
    metrics = resolve_metrics(metrics)
    phases = tuple(phases)
    workers = min(resolve_jobs(jobs), len(module.functions))
    payloads = None
    if workers > 1 and fork_available():
        shards = partition([(count_instructions(f), f.name)
                            for f in module.iter_functions()], workers)
        pool_start = time.perf_counter_ns()
        payloads = _run_one_shot(len(shards), cache, [
            ShardJob(pack_shard(module, names), name, phases, options,
                     target, validate, cache, tracer.enabled,
                     metrics.enabled) for names in shards])
        pool_ns = time.perf_counter_ns() - pool_start
    if payloads is None:
        return _pipeline.run_phases(module, name, phases, options, target,
                                    verify, validate, tracer, cache=cache,
                                    metrics=metrics)

    with tracer.span(f"experiment:{name}", experiment=name) as root:
        references = _pipeline.observe(module, verify, tracer)
        merge_start = time.perf_counter_ns()
        if tracer.enabled:
            for payload in payloads:
                _graft_tracer(tracer, payload["tracer"], root.seq,
                              root.depth + 1)
        result = _pipeline.assemble(
            module, {fn_name: record for payload in payloads
                     for fn_name, record in payload["records"].items()},
            name, phases, tracer=tracer, root=root, parts=payloads)
        if metrics.enabled:
            for payload in payloads:  # shard-index order (commutative)
                metrics.merge(payload["metrics"])
            # Each worker counted its shard as one pipeline invocation;
            # collapse to the single logical run the caller asked for so
            # counters stay identical at any job count.
            metrics.counter("pipeline.runs").inc(1 - len(payloads))
            result.metrics = metrics.snapshot()
        merge_ns = time.perf_counter_ns() - merge_start
        _pipeline.check_behaviour(name, result.module, references, tracer)
        result.parallel = {
            "mode": "functions",
            "jobs": workers,
            "workers": len(shards),
            "pool_ns": pool_ns,
            "merge_ns": merge_ns,
            "shards": [{"worker": i, "functions": len(shard),
                        "wall_ns": payloads[i]["wall_ns"]}
                       for i, shard in enumerate(shards)],
        }
    return result


def run_experiments_parallel(module: Module, specs, verify=None,
                             validate: bool = True, traced: bool = False,
                             target: Target = ST120,
                             jobs: Optional[int] = None,
                             cache=None, metriced: bool = False):
    """Run ``(label, experiment, options)`` *specs* on a pool, one whole
    experiment per task, with the module pickled once per call.
    Returns the results in spec order, or ``None`` (the caller then
    runs serially) when there is nothing to parallelize, the module
    will not pickle or the pool broke."""
    from . import pipeline as _pipeline

    workers = min(resolve_jobs(jobs), len(specs))
    if workers <= 1 or not fork_available():
        return None
    try:
        blob = pickle.dumps((module, verify),
                            protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None  # lambda externals and the like
    payloads = _run_one_shot(workers, cache, [
        ShardJob(blob, name, _pipeline.EXPERIMENTS[name], options, target,
                 validate, cache, traced, metriced)
        for _, name, options in specs])
    if payloads is None:
        return None

    results = []
    for index, ((label, name, _), payload) in enumerate(zip(specs,
                                                            payloads)):
        merge_start = time.perf_counter_ns()
        tracer = Tracer() if traced else NULL_TRACER
        if traced:
            _graft_tracer(tracer, payload["tracer"], None, 0)
        result = _pipeline.assemble(module, payload["records"], label,
                                    _pipeline.EXPERIMENTS[name],
                                    tracer=tracer, parts=[payload])
        result.metrics = payload["metrics"]
        result.parallel = {
            "mode": "experiments",
            "jobs": workers,
            "workers": workers,
            "merge_ns": time.perf_counter_ns() - merge_start,
            "shards": [{"worker": index,
                        "functions": len(payload["records"]),
                        "wall_ns": payload["wall_ns"]}],
        }
        results.append(result)
    return results
