"""One record, one merge: every execution path assembles the same result.

Serial runs, ``--jobs`` shards and ``repro serve`` pool batches all
produce per-function :class:`~repro.pipeline.FunctionRecord`\\ s and
hand them to :func:`~repro.pipeline.assemble`.  Under test: at every
cache temperature -- cold, partially warm (half the functions already
stored, the "grown program" case) and fully warm -- each path yields
the module text, ``phase_stats``, traced stats document (timing and
cache heat stripped) and ``stats_digest`` of a cold serial run.
"""

import os

import pytest

from repro.benchgen import load_suite
from repro.cache import CompilationCache
from repro.ir.function import Module
from repro.ir.printer import format_module
from repro.lai import parse_module
from repro.observability import Tracer, validate_stats
from repro.observability.statdiff import stats_digest
from repro.parallel import WorkerPool, fork_available
from repro.pipeline import run_experiment
from repro.serve.batcher import ServeJob, run_batch
from repro.serve.protocol import parse_compile

from test_cache import strip_volatile

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")

EXPERIMENT = "Lphi,ABI+C"
TEMPERATURES = ("cold", "partial", "warm")


@pytest.fixture(scope="module")
def source():
    return format_module(load_suite("example1-8").module)


def parsed(source):
    return parse_module(source, name="example1-8")


def warmed_cache(directory, source, temperature):
    """A cache holding none, the first half, or all of the functions
    (stored by traced runs, so hits can replay decision counters)."""
    cache = CompilationCache(directory)
    module = parsed(source)
    names = list(module.functions)
    keep = {"cold": [], "partial": names[:len(names) // 2],
            "warm": names}[temperature]
    if keep:
        subset = Module(module.name)
        for name in keep:
            subset.add_function(module.functions[name])
        run_experiment(subset, EXPERIMENT, tracer=Tracer(), jobs=1,
                       cache=cache)
    return cache, len(keep)


@pytest.fixture(scope="module")
def reference(source):
    traced = run_experiment(parsed(source), EXPERIMENT, tracer=Tracer(),
                            jobs=1, cache=None)
    plain = run_experiment(parsed(source), EXPERIMENT, jobs=1, cache=None)
    return {"text": format_module(plain.module),
            "phase_stats": plain.phase_stats,
            "digest": stats_digest(plain.to_stats()),
            "traced": strip_volatile(traced.to_stats())}


@pytest.mark.parametrize("temperature", TEMPERATURES)
@pytest.mark.parametrize("jobs", [1, 2])
def test_one_shot_paths_match_cold_serial(source, reference, tmp_path,
                                          jobs, temperature):
    for traced in (False, True):
        cache, stored = warmed_cache(tmp_path / f"c{traced}", source,
                                     temperature)
        result = run_experiment(parsed(source), EXPERIMENT, jobs=jobs,
                                cache=cache,
                                tracer=Tracer() if traced else None)
        assert bool(result.parallel) == (jobs > 1)
        assert result.cache["hits"] == stored
        assert format_module(result.module) == reference["text"]
        assert result.phase_stats == reference["phase_stats"]
        if traced:
            validate_stats(result.to_stats())
            assert strip_volatile(result.to_stats()) == \
                reference["traced"]
        else:
            assert stats_digest(result.to_stats()) == reference["digest"]


@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_serve_pool_batch_matches_cold_serial(source, reference, tmp_path,
                                              temperature):
    cache, stored = warmed_cache(tmp_path / "c", source, temperature)
    jobs = [ServeJob(rid, parse_compile({"source": source,
                                         "experiment": EXPERIMENT,
                                         "name": "example1-8"}))
            for rid in range(2)]
    with WorkerPool(2) as pool:
        run_batch(jobs, pool, cache=cache)
    for job in jobs:
        response = job.response
        assert response["ok"], response
        assert response["batch"]["mode"] == "pool"
        assert response["module"] == reference["text"]
        assert response["stats_digest"] == reference["digest"]
    # The first request of the batch found what was pre-stored; both
    # requests together probed every function twice.
    total = len(parsed(source).functions)
    hits = sum(job.response["cache"]["hits"] for job in jobs)
    assert stored <= hits <= 2 * total
    assert all(job.response["cache"]["hits"]
               + job.response["cache"]["misses"] == total for job in jobs)
    assert os.listdir(cache.objects)
