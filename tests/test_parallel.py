"""The parallel compilation driver: determinism, merging, fallbacks.

The contract under test is the acceptance bar of the parallel engine:
paper-metric output (and every non-timing field of the stats document)
must be **identical at any job count**.  Timing fields
(``seq``/``start_ns``/``duration_ns``, wall clocks) and the
``parallel`` block itself are explicitly non-deterministic and are
stripped before comparison.
"""

import copy
import os

import pytest

from repro.benchgen import load_suite
from repro.ir.printer import format_module
from repro.observability import Tracer, validate_stats
from repro.metrics import count_instructions
from repro.parallel import fork_available, partition, resolve_jobs
from repro.pipeline import (TABLE_EXPERIMENTS, PhaseOptions,
                            run_experiment, run_experiments, run_table,
                            run_table5)

from helpers import module_of

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")

TIMING_KEYS = ("seq", "start_ns", "duration_ns")


def strip_timing(doc: dict) -> dict:
    """A stats document minus its documented non-deterministic fields."""
    doc = copy.deepcopy(doc)
    doc.pop("parallel", None)
    for entry in doc.get("phases", ()):
        for key in TIMING_KEYS:
            entry.pop(key, None)
    return doc


@pytest.fixture(scope="module")
def kernels():
    return load_suite("VALcc1")


TWO_FUNCTIONS = """
func f
entry:
    input a
    add b, a, 1
    ret b
endfunc
func g
entry:
    input a
    cbr a, l, r
l:
    add x, a, 2
    br j
r:
    sub x, a, 3
    br j
j:
    ret x
endfunc
"""


class TestJobResolution:
    def test_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-2) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert resolve_jobs(None) == 1


def function_units(module):
    return [(count_instructions(f), f.name) for f in module.iter_functions()]


def partition_inputs(kernels):
    """The two callers' units: one module's functions (``--jobs``) and
    every ``(request, function)`` pair of a serve batch."""
    modules = [kernels.module, module_of(TWO_FUNCTIONS), kernels.module]
    cross_request = [(weight, (j, name))
                     for j, module in enumerate(modules)
                     for weight, name in function_units(module)]
    return {"module": function_units(kernels.module),
            "cross-request": cross_request}


class TestPartition:
    def test_covers_every_function_once(self, kernels):
        for units in partition_inputs(kernels).values():
            for workers in (1, 2, 4, 7):
                shards = partition(units, workers)
                keys = [key for shard in shards for key in shard]
                assert sorted(keys) == sorted(key for _, key in units)
                assert len(shards) <= workers

    def test_deterministic(self, kernels):
        for units in partition_inputs(kernels).values():
            assert partition(units, 4) == partition(list(units), 4)

    def test_more_workers_than_functions(self):
        module = module_of(TWO_FUNCTIONS)
        shards = partition(function_units(module), 16)
        assert len(shards) == 2

    def test_ties_keep_list_order(self):
        # Equal weights: list order decides, and the least-loaded
        # shard with the lowest index wins -- shard plans are stable.
        units = [(5, "a"), (5, "b"), (9, "c"), (5, "d")]
        assert partition(units, 2) == [["c", "d"], ["a", "b"]]


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("experiment", ["Lphi,ABI+C", "naiveABI+C"])
    def test_stats_identical_modulo_timing(self, kernels, experiment):
        reference = None
        for jobs in (1, 2, 4):
            result = run_experiment(kernels.module, experiment,
                                    tracer=Tracer(), jobs=jobs)
            if jobs > 1:
                assert result.parallel, "parallel block missing"
            validate_stats(result.to_stats())
            doc = strip_timing(result.to_stats())
            text = format_module(result.module)
            if reference is None:
                reference = (doc, text)
            else:
                assert doc == reference[0], f"jobs={jobs} stats diverged"
                assert text == reference[1], f"jobs={jobs} module diverged"

    def test_untraced_run_matches_too(self, kernels):
        serial = run_experiment(kernels.module, "Lphi,ABI+C", jobs=1)
        parallel = run_experiment(kernels.module, "Lphi,ABI+C", jobs=2)
        assert (serial.moves, serial.weighted, serial.instructions) == \
            (parallel.moves, parallel.weighted, parallel.instructions)
        assert serial.phase_stats == parallel.phase_stats
        assert serial.analysis_cache == parallel.analysis_cache
        assert format_module(serial.module) == \
            format_module(parallel.module)

    def test_verify_runs_in_parallel_mode(self, kernels):
        result = run_experiment(kernels.module, "Lphi,ABI+C",
                                verify=kernels.verify[:3], jobs=2)
        assert result.moves >= 0

    def test_parallel_verification_catches_breakage(self):
        module = module_of(TWO_FUNCTIONS)
        with pytest.raises(Exception):
            run_experiment(module, "C", verify=[("f", [1, 2, 3])],
                           jobs=2)

    def test_tables_identical(self, kernels):
        for table in TABLE_EXPERIMENTS:
            serial = run_table(kernels.module, table, jobs=1)
            parallel = run_table(kernels.module, table, jobs=2)
            assert [r.name for r in serial] == [r.name for r in parallel]
            assert [(r.moves, r.weighted) for r in serial] == \
                [(r.moves, r.weighted) for r in parallel]
            assert [format_module(r.module) for r in serial] == \
                [format_module(r.module) for r in parallel]

    def test_table5_identical(self, kernels):
        serial = run_table5(kernels.module, jobs=1)
        parallel = run_table5(kernels.module, jobs=4)
        assert [r.name for r in serial] == \
            [r.name for r in parallel] == ["base", "depth", "opt", "pess"]
        assert [(r.moves, r.weighted) for r in serial] == \
            [(r.moves, r.weighted) for r in parallel]


class TestTableParameterThreading:
    """Regression: run_table/run_table5 used to drop ``tracer``,
    ``validate`` and ``options``, so table stats documents had empty
    ``phases[]``."""

    def test_run_table_forwards_tracer(self):
        module = module_of(TWO_FUNCTIONS)
        results = run_table(module, "table2", tracer=Tracer)
        for result in results:
            assert result.phase_breakdown, result.name
            assert result.tracer.enabled
            doc = result.to_stats()
            assert doc["phases"], result.name
            validate_stats(doc)

    def test_run_table_tracers_are_per_run(self):
        module = module_of(TWO_FUNCTIONS)
        results = run_table(module, "table2", tracer=Tracer)
        tracers = {id(r.tracer) for r in results}
        assert len(tracers) == len(results)

    def test_run_table_forwards_options(self):
        module = module_of(TWO_FUNCTIONS)
        base, = [r for r in run_table(module, "table3",
                                      tracer=Tracer)
                 if r.name == "Lphi,ABI+C"]
        opt, = [r for r in run_table(module, "table3",
                                     options=PhaseOptions(mode="optimistic"),
                                     tracer=Tracer)
                if r.name == "Lphi,ABI+C"]
        assert "pinningPhi" in base.phase_stats
        assert "pinningPhi" in opt.phase_stats

    def test_run_table5_forwards_tracer(self):
        module = module_of(TWO_FUNCTIONS)
        results = run_table5(module, tracer=Tracer)
        assert all(r.phase_breakdown for r in results)

    def test_run_experiments_parallel_traced(self, kernels):
        serial = run_experiments(kernels.module, ["Lphi+C", "C"],
                                 tracer=Tracer, jobs=1)
        parallel = run_experiments(kernels.module, ["Lphi+C", "C"],
                                   tracer=Tracer, jobs=2)
        for left, right in zip(serial, parallel):
            assert strip_timing(left.to_stats()) == \
                strip_timing(right.to_stats())


class TestFallbacks:
    def test_single_function_module_stays_serial(self):
        module = module_of("""
func only
entry:
    input a
    ret a
endfunc
""")
        result = run_experiment(module, "C", jobs=4)
        assert not result.parallel

    def test_jobs_one_stays_serial(self, kernels):
        result = run_experiment(kernels.module, "C", jobs=1)
        assert not result.parallel

    def test_broken_pool_falls_back_to_serial(self, kernels,
                                              monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par.WorkerPool, "run",
                            lambda *args, **kwargs: None)
        result = run_experiment(kernels.module, "C", jobs=2)
        assert not result.parallel  # served by the serial path
        serial = run_experiment(kernels.module, "C", jobs=1)
        assert (result.moves, result.weighted) == \
            (serial.moves, serial.weighted)

    def test_fork_unavailable_falls_back(self, kernels, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "fork_available", lambda: False)
        result = run_experiment(kernels.module, "C", jobs=4)
        assert not result.parallel

    def test_unpicklable_module_runs_experiments_serially(self):
        module = module_of(TWO_FUNCTIONS)
        module.add_external("ext", lambda *args: 0)
        results = run_table(module, "table2", jobs=2)
        assert not any(result.parallel for result in results)
        assert "ext" in results[0].module.externals
        # Function shards leave externals behind, so they still pool.
        sharded = run_experiment(module, "C", jobs=2)
        assert sharded.parallel and "ext" in sharded.module.externals

    def test_worker_exceptions_propagate(self, monkeypatch):
        # A Python-level failure inside a worker (here: an unknown
        # phase) must raise exactly as it would serially, not silently
        # degrade.
        from repro.parallel import run_phases_parallel

        module = module_of(TWO_FUNCTIONS)
        with pytest.raises(ValueError, match="unknown phase"):
            run_phases_parallel(module, "broken",
                                ("ssa", "warp-drive"), jobs=2)


def batch_of(module, experiments):
    """Serve jobs compiling *module* under each of *experiments*."""
    from repro.serve.batcher import ServeJob
    from repro.serve.protocol import parse_compile

    source = format_module(module)
    return [ServeJob(rid, parse_compile({"source": source,
                                         "experiment": experiment,
                                         "name": module.name}))
            for rid, experiment in enumerate(experiments)]


def assert_batch_matches_serial(module, jobs):
    for job in jobs:
        assert job.response["ok"], job.response
        serial = run_experiment(module, job.request.experiment, jobs=1)
        assert job.response["module"] == format_module(serial.module)
        assert job.response["moves"] == serial.moves


def kill_worker(pool, pid):
    """SIGKILL one pool worker and wait until the executor has noticed
    (otherwise the next submission may race past the death)."""
    import signal
    import time

    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while not pool._pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)


class TestWorkerPool:
    """The one pool behind ``--jobs`` and ``repro serve``: workers fork
    once, survive across submissions, and a killed worker is respawned
    transparently (one retry, then serial fallback)."""

    def test_warm_spawns_distinct_workers(self):
        from repro.parallel import WorkerPool

        with WorkerPool(2) as pool:
            pids = pool.warm()
            assert len(pids) == 2
            assert os.getpid() not in pids
            assert pool.alive
            assert pool.ping()

    def test_workers_survive_across_runs(self, kernels):
        from repro.parallel import WorkerPool, _pool_ping
        from repro.serve.batcher import run_batch

        with WorkerPool(2) as pool:
            before = set(pool.warm())
            executor = pool._pool
            for _ in range(2):
                jobs = batch_of(kernels.module, ["Lphi,ABI+C", "C"])
                run_batch(jobs, pool)
                assert [job.response["experiment"] for job in jobs] == \
                    ["Lphi,ABI+C", "C"]
                assert all(job.response["batch"]["mode"] == "pool"
                           for job in jobs)
            # Same executor, same worker processes, no respawn: the
            # whole point of a pool that outlives one submission.
            assert pool._pool is executor
            assert pool.respawns == 0
            after = set(pool.run(_pool_ping, [0.05, 0.05]))
            assert after <= before

    def test_pool_results_match_serial(self, kernels):
        from repro.parallel import WorkerPool
        from repro.serve.batcher import run_batch

        jobs = batch_of(kernels.module, ["Lphi,ABI+C", "C"])
        with WorkerPool(2) as pool:
            run_batch(jobs, pool)
        assert_batch_matches_serial(kernels.module, jobs)

    def test_respawn_after_worker_killed(self):
        from repro.parallel import WorkerPool, _pool_ping

        with WorkerPool(2) as pool:
            pids = pool.warm()
            assert pids
            kill_worker(pool, pids[0])
            # The next submission trips BrokenProcessPool; the pool
            # must respawn and retry, not fail or fall serial.
            result = pool.run(_pool_ping, [0.0])
            assert result is not None and len(result) == 1
            assert pool.respawns >= 1
            assert pool.ping()

    def test_killed_worker_does_not_break_experiments(self, kernels):
        from repro.parallel import WorkerPool
        from repro.serve.batcher import run_batch

        jobs = batch_of(kernels.module, ["Lphi,ABI+C", "C"])
        with WorkerPool(2) as pool:
            pids = pool.warm()
            kill_worker(pool, pids[-1])
            run_batch(jobs, pool)
            assert pool.respawns >= 1
        assert_batch_matches_serial(kernels.module, jobs)


class TestPhaseEntryUnion:
    """Regression: the ``phases[]`` entry builder once iterated only the
    *after* side, silently dropping functions removed by a phase from
    the deltas.  A missing side of a function's measures counts as
    zeros."""

    def test_removed_function_reported_with_zero_after(self):
        from repro.pipeline import phase_entry

        measures = {
            "keep": {"before": {"instructions": 4, "moves": 1, "phis": 0},
                     "after": {"instructions": 3, "moves": 1, "phis": 0}},
            "gone": {"before": {"instructions": 10, "moves": 3,
                                "phis": 2}}}
        entry = phase_entry("dce", (7, 0, 1), measures)
        assert entry["seq"] == 7
        assert set(entry["functions"]) == {"keep", "gone"}
        gone = entry["functions"]["gone"]
        assert gone["after"] == {"instructions": 0, "moves": 0, "phis": 0}
        assert gone["delta"] == {"instructions": -10, "moves": -3,
                                 "phis": -2}
        assert entry["delta"]["instructions"] == -11
        assert entry["delta"]["moves"] == -3
        assert entry["delta"]["copies_removed"] == 3
        assert entry["delta"]["copies_inserted"] == 0

    def test_added_function_still_counted(self):
        from repro.pipeline import phase_entry

        measures = {"new": {"after": {"instructions": 5, "moves": 2,
                                      "phis": 1}}}
        entry = phase_entry("outline", (0, 0, 1), measures)
        new = entry["functions"]["new"]
        assert new["before"] == {"instructions": 0, "moves": 0, "phis": 0}
        assert entry["delta"]["instructions"] == 5
