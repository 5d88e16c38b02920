"""Request batching: many in-flight compiles, one shard set.

The server drains its queue into a *batch* and hands it here.  Every
``(request, function)`` pair in the batch becomes one work unit, placed
by the same deterministic greedy LPT (:func:`repro.parallel.partition`)
that ``--jobs`` uses inside a single module -- so one large request and
five small ones fill the pool evenly instead of queueing behind each
other.  Each worker task runs :func:`repro.parallel.run_shard` once per
request it holds; every request's function records are then merged by
:func:`repro.pipeline.assemble`, the same merge as the serial CLI path,
which is what makes a batched response **byte-identical** to it.
Workers run untraced: the server records its own
latency metrics.

Failures stay per-request: a sub-job that raises (validation error,
malformed IR that parsed but does not compile) turns into that
request's ``{"ok": false}`` response; the other requests in the batch
are unaffected.

The serial path (no pool, or the pool broke twice) runs in the server
process against the same process-lifetime cache, so cache heat is
identical either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir.printer import format_module
from ..machine.st120 import ST120
from ..machine.target import Target
from ..metrics import count_instructions
from ..observability.statdiff import stats_digest
from ..parallel import (ShardJob, fork_available, pack_shard, partition,
                        run_shard)
from .protocol import ProtocolError


@dataclass
class ServeJob:
    """One compile request travelling through the batcher."""

    rid: int
    request: object  # protocol.CompileRequest
    #: Set by the server: the asyncio future the response resolves.
    future: object = None
    #: Filled by :func:`run_batch`.
    response: Optional[dict] = None
    wall_s: float = 0.0
    shards: int = 0


def plan_shards(jobs: Sequence[ServeJob],
                workers: int) -> list[list[tuple[int, list[str]]]]:
    """LPT-place every ``(request, function)`` unit of the batch, then
    group each shard's units per request: the result is one entry per
    shard, each a list of ``(batch index, [function names])`` sub-jobs
    (batch order within a shard, so demux order is deterministic)."""
    units = [(count_instructions(fn), (j, fn.name))
             for j, job in enumerate(jobs)
             for fn in job.request.module.iter_functions()]
    planned = []
    for shard in partition(units, workers):
        grouped: dict[int, list[str]] = {}
        for j, fn_name in shard:
            grouped.setdefault(j, []).append(fn_name)
        planned.append(sorted(grouped.items()))
    return planned


def _serve_shard_task(subjobs):
    """Worker body for one batch shard: each ``(batch index,
    ShardJob)`` sub-job through :func:`run_shard`.  Failures are
    captured per sub-job, never raised: one bad request must not break
    the batch (or trip the pool's respawn logic)."""
    out = []
    for j, job in subjobs:
        try:
            out.append((j, run_shard(job), None))
        except Exception as error:  # noqa: BLE001 -- per-request isolation
            out.append((j, None, f"{type(error).__name__}: {error}"))
    return out


def _respond(result, batch: dict) -> dict:
    """The success response for an untraced *result*; its digest strips
    the environment blocks, so it matches the one-shot CLI's."""
    return {
        "ok": True,
        "experiment": result.name,
        "module": format_module(result.module),
        "moves": result.moves,
        "weighted": result.weighted,
        "instructions": result.instructions,
        "stats_digest": stats_digest(result.to_stats()),
        "analysis_cache": dict(result.analysis_cache),
        "cache": dict(result.cache),
        "batch": batch,
    }


def _run_serial(jobs: Sequence[ServeJob], cache, target: Target,
                validate: bool) -> None:
    """In-process fallback: each request through ``run_phases`` against
    the server's own cache handle."""
    from .. import pipeline as _pipeline

    for job in jobs:
        request = job.request
        start = time.perf_counter()
        try:
            result = _pipeline.run_phases(
                request.module, request.experiment, request.phases,
                request.options, target, None, validate, None, cache=cache)
        except Exception as error:  # noqa: BLE001 -- per-request isolation
            job.response = {"ok": False,
                            "error": f"{type(error).__name__}: {error}"}
        else:
            job.response = _respond(
                result, {"size": len(jobs), "mode": "serial", "shards": 1})
        job.wall_s = time.perf_counter() - start
        job.shards = 1


def run_batch(jobs: Sequence[ServeJob], pool, cache=None,
              target: Target = ST120, validate: bool = True) -> None:
    """Compile every job of the batch, filling ``job.response``.

    With a :class:`~repro.parallel.WorkerPool`, the whole batch becomes
    one cross-request shard set (see :func:`plan_shards`); with ``None``
    -- or if the pool (and its respawned successor) broke -- requests
    run serially in-process.  Either way every job ends with a response
    dict (``ok`` true or false); this function does not raise for
    per-request failures.
    """
    from ..pipeline import assemble

    jobs = [job for job in jobs if job.response is None]
    # Parse here, in the batch worker thread: the event loop only ever
    # touched the fingerprint.  A parse failure is that request's error
    # response, nothing more.
    parsed = []
    for job in jobs:
        try:
            job.request.ensure_module()
        except ProtocolError as error:
            job.response = {"ok": False, "error": str(error)}
        else:
            parsed.append(job)
    jobs = parsed
    if not jobs:
        return
    if pool is None or not fork_available():
        _run_serial(jobs, cache, target, validate)
        return

    start = time.perf_counter()
    specs = [[(j, ShardJob(pack_shard(jobs[j].request.module, names),
                           jobs[j].request.experiment,
                           jobs[j].request.phases, jobs[j].request.options,
                           target, validate, cache))
              for j, names in subjobs]
             for subjobs in plan_shards(jobs, pool.workers)]
    outcomes = pool.run(_serve_shard_task, specs)
    if outcomes is None:  # even the respawned pool broke: degrade
        _run_serial(jobs, cache, target, validate)
        return
    elapsed = time.perf_counter() - start

    parts: dict[int, list] = {j: [] for j in range(len(jobs))}
    errors: dict[int, str] = {}
    for results in outcomes:
        for j, payload, error in results:
            parts[j].append(payload)
            if error is not None:
                errors.setdefault(j, error)
    for j, job in enumerate(jobs):
        job.wall_s, job.shards = elapsed, len(parts[j])
        if j in errors:
            job.response = {"ok": False, "error": errors[j]}
            continue
        request = job.request
        result = assemble(request.module,
                          {fn_name: record for part in parts[j]
                           for fn_name, record in part["records"].items()},
                          request.experiment, request.phases, parts=parts[j])
        job.response = _respond(result, {"size": len(jobs), "mode": "pool",
                                         "workers": len(specs),
                                         "shards": job.shards})
