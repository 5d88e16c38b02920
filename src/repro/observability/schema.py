"""The structured-stats JSON schema and its validator.

Two document shapes are emitted by the CLI and the benchmark harness
(see ``docs/observability.md`` for the field-by-field reference):

``repro.stats/v1.6``
    One experiment run: totals, the per-phase breakdown (timing plus
    move/instruction/phi deltas per function), raw per-phase pass
    statistics, counters, the event count, the ``analysis_cache``
    block (v1.1) summarizing shared-analysis reuse
    (hits/misses/invalidations/preserved, from
    :class:`repro.analysis.manager.AnalysisManager`; since v1.3 also
    ``oracle_hits``/``oracle_misses`` -- memo traffic of the
    query-based interference oracle,
    :mod:`repro.analysis.dominterf`), the optional ``parallel``
    block (v1.2) describing the fork-pool execution (worker count,
    shard sizes, per-worker wall time, merge time; see
    :mod:`repro.parallel`), the optional ``cache`` block (v1.4)
    reporting persistent compilation-cache traffic
    (hits/misses/stores/evictions/bytes, from
    :class:`repro.cache.CompilationCache`; summed across workers in
    parallel runs), and the optional ``metrics`` block (v1.5): a
    :meth:`repro.observability.metrics.MetricsRegistry.snapshot` --
    counters, gauges and fixed-log-bucket latency histograms (bucket
    bounds + counts + sum/count + percentiles) computed from a traced
    run's trace by :func:`repro.observability.metrics.metrics_view`,
    and the optional ``interp`` block
    (v1.6) describing the interpreter tier behind the run's verify
    passes: the resolved ``tier`` (``compiled`` / ``reference`` /
    ``both``; see :mod:`repro.interp`) and the compiled tier's
    ``code_cache`` traffic (hits/misses/compile_ns, from the tracer's
    ``interp.code_cache.*`` / ``interp.compile_ns`` environment totals).
    Produced by :meth:`repro.pipeline.ExperimentResult.to_stats`.
    ``repro.stats/v1`` through ``v1.5`` documents (no ``parallel`` /
    ``analysis_cache`` / oracle counters / ``cache`` / ``metrics`` /
    ``interp`` block) remain valid input.

``repro.stats-collection/v1``
    ``{"schema": ..., "runs": [<stats doc>, ...]}`` -- many runs in one
    file, each optionally annotated with extra context keys such as
    ``suite`` and ``table``.  Produced by ``repro tables --stats-json``,
    ``repro experiments --stats-json`` and the benchmark harness.

Validation is hand-rolled (no third-party jsonschema dependency) and
*permissive about extra keys*: producers may annotate documents freely,
consumers must get the documented core.  Run as a module to validate a
file::

    python -m repro.observability.schema stats.json
"""

from __future__ import annotations

import json
from typing import Any

STATS_SCHEMA = "repro.stats/v1.6"
COLLECTION_SCHEMA = "repro.stats-collection/v1"

#: Schemas consumers must accept: the current one plus every prior
#: minor revision (v1 documents lack the ``analysis_cache`` block
#: introduced in v1.1; v1.1 documents lack the ``parallel`` block
#: introduced in v1.2; v1.2 documents lack the oracle counters
#: introduced in v1.3; v1.3 documents lack the ``cache`` block
#: introduced in v1.4; v1.4 documents lack the ``metrics`` block
#: introduced in v1.5; v1.5 documents lack the ``interp`` block
#: introduced in v1.6).
ACCEPTED_STATS_SCHEMAS = ("repro.stats/v1", "repro.stats/v1.1",
                          "repro.stats/v1.2", "repro.stats/v1.3",
                          "repro.stats/v1.4", "repro.stats/v1.5",
                          "repro.stats/v1.6")

#: The integer fields of the optional ``analysis_cache`` block.
ANALYSIS_CACHE_KEYS = ("hits", "misses", "invalidations", "preserved")

#: Additional ``analysis_cache`` fields required since v1.3: memo
#: traffic of the dominance interference oracle.
ORACLE_CACHE_KEYS = ("oracle_hits", "oracle_misses")

#: Schemas whose ``analysis_cache`` block must carry the oracle
#: counters (they became part of the block in v1.3).
_ORACLE_SCHEMAS = frozenset({"repro.stats/v1.3", "repro.stats/v1.4",
                             "repro.stats/v1.5", "repro.stats/v1.6"})

#: The required integer fields of the optional ``cache`` block (v1.4):
#: persistent compilation-cache traffic (see :mod:`repro.cache`).
CACHE_BLOCK_KEYS = ("hits", "misses", "stores", "evictions", "bytes")

#: The required integer fields of ``interp.code_cache`` in the optional
#: ``interp`` block (v1.6): compiled-tier code-cache traffic (see
#: :mod:`repro.interp.compiled`).
INTERP_CODE_CACHE_KEYS = ("hits", "misses", "compile_ns")

#: The required integer fields of the optional ``parallel`` block and
#: of each of its ``shards[]`` entries.
PARALLEL_KEYS = ("jobs", "workers", "merge_ns")
SHARD_KEYS = ("worker", "functions", "wall_ns")

#: The integer fields of every ``delta`` object.
DELTA_KEYS = ("instructions", "moves", "phis",
              "copies_inserted", "copies_removed")

#: The integer fields of every snapshot (``before``/``after``) object.
SNAPSHOT_KEYS = ("instructions", "moves", "phis")


class SchemaError(ValueError):
    """A stats document does not match the documented schema."""


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{where}: {message}")


def _expect_int(doc: dict, key: str, where: str) -> None:
    _expect(isinstance(doc.get(key), int) and
            not isinstance(doc.get(key), bool),
            where, f"{key!r} must be an integer, got {doc.get(key)!r}")


def _validate_measures(doc: Any, keys, where: str) -> None:
    _expect(isinstance(doc, dict), where, "must be an object")
    for key in keys:
        _expect_int(doc, key, where)


def _validate_phase(entry: Any, where: str) -> None:
    _expect(isinstance(entry, dict), where, "must be an object")
    _expect(isinstance(entry.get("phase"), str), where,
            "'phase' must be a string")
    _expect_int(entry, "seq", where)
    _expect_int(entry, "start_ns", where)
    _expect_int(entry, "duration_ns", where)
    _expect(entry["duration_ns"] >= 0, where,
            "'duration_ns' must be non-negative")
    _validate_measures(entry.get("delta"), DELTA_KEYS, f"{where}.delta")
    functions = entry.get("functions")
    _expect(isinstance(functions, dict), where,
            "'functions' must be an object")
    for fname, per_fn in functions.items():
        fn_where = f"{where}.functions[{fname!r}]"
        _expect(isinstance(per_fn, dict), fn_where, "must be an object")
        _validate_measures(per_fn.get("before"), SNAPSHOT_KEYS,
                           f"{fn_where}.before")
        _validate_measures(per_fn.get("after"), SNAPSHOT_KEYS,
                           f"{fn_where}.after")
        _validate_measures(per_fn.get("delta"), SNAPSHOT_KEYS,
                           f"{fn_where}.delta")


def validate_stats(doc: Any, where: str = "$") -> None:
    """Validate one document of either schema; raises :class:`SchemaError`
    on the first problem, returns ``None`` when the document is valid."""
    _expect(isinstance(doc, dict), where, "document must be an object")
    schema = doc.get("schema")
    if schema == COLLECTION_SCHEMA:
        runs = doc.get("runs")
        _expect(isinstance(runs, list), where, "'runs' must be a list")
        for i, run in enumerate(runs):
            validate_stats(run, f"{where}.runs[{i}]")
        return
    _expect(schema in ACCEPTED_STATS_SCHEMAS, where,
            f"unknown schema {schema!r} (expected one of "
            f"{ACCEPTED_STATS_SCHEMAS} or {COLLECTION_SCHEMA!r})")
    _expect(isinstance(doc.get("experiment"), str), where,
            "'experiment' must be a string")
    _validate_measures(doc.get("totals"),
                       ("moves", "weighted", "instructions"),
                       f"{where}.totals")
    phases = doc.get("phases")
    _expect(isinstance(phases, list), where, "'phases' must be a list")
    for i, entry in enumerate(phases):
        _validate_phase(entry, f"{where}.phases[{i}]")
    counters = doc.get("counters")
    _expect(isinstance(counters, dict), where, "'counters' must be an object")
    for name, value in counters.items():
        _expect(isinstance(value, int) and not isinstance(value, bool),
                f"{where}.counters", f"{name!r} must map to an integer")
    _expect_int(doc, "events", where)
    analysis_cache = doc.get("analysis_cache")
    if analysis_cache:  # optional; absent in v1 docs, may be empty in v1.1
        keys = ANALYSIS_CACHE_KEYS
        if schema in _ORACLE_SCHEMAS:
            keys = ANALYSIS_CACHE_KEYS + ORACLE_CACHE_KEYS
        _validate_measures(analysis_cache, keys, f"{where}.analysis_cache")
    parallel = doc.get("parallel")
    if parallel:  # optional; absent in serial runs and pre-v1.2 docs
        _validate_parallel(parallel, f"{where}.parallel")
    cache = doc.get("cache")
    if cache:  # optional; absent without a persistent cache (pre-v1.4)
        _validate_measures(cache, CACHE_BLOCK_KEYS, f"{where}.cache")
    metrics = doc.get("metrics")
    if metrics:  # optional; absent without a metrics registry (pre-v1.5)
        _validate_metrics(metrics, f"{where}.metrics")
    interp = doc.get("interp")
    if interp:  # optional; absent in untraced runs and pre-v1.6 docs
        i_where = f"{where}.interp"
        _expect(isinstance(interp, dict), i_where, "must be an object")
        _expect(isinstance(interp.get("tier"), str), i_where,
                "'tier' must be a string")
        _validate_measures(interp.get("code_cache"),
                           INTERP_CODE_CACHE_KEYS,
                           f"{i_where}.code_cache")


def _expect_number(value: Any, where: str, what: str) -> None:
    _expect(isinstance(value, (int, float))
            and not isinstance(value, bool),
            where, f"{what} must be a number, got {value!r}")


def _validate_metrics(block: Any, where: str) -> None:
    """The v1.5 ``metrics`` block: a
    :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`."""
    _expect(isinstance(block, dict), where, "must be an object")
    counters = block.get("counters", {})
    _expect(isinstance(counters, dict), where,
            "'counters' must be an object")
    for name, value in counters.items():
        _expect(isinstance(value, int) and not isinstance(value, bool),
                f"{where}.counters", f"{name!r} must map to an integer")
    gauges = block.get("gauges", {})
    _expect(isinstance(gauges, dict), where, "'gauges' must be an object")
    for name, value in gauges.items():
        _expect_number(value, f"{where}.gauges", repr(name))
    histograms = block.get("histograms", {})
    _expect(isinstance(histograms, dict), where,
            "'histograms' must be an object")
    for name, doc in histograms.items():
        h_where = f"{where}.histograms[{name!r}]"
        _expect(isinstance(doc, dict), h_where, "must be an object")
        buckets = doc.get("buckets")
        counts = doc.get("counts")
        _expect(isinstance(buckets, list), h_where,
                "'buckets' must be a list of bounds")
        _expect(isinstance(counts, list), h_where,
                "'counts' must be a list")
        _expect(len(counts) == len(buckets) + 1, h_where,
                f"'counts' must have len(buckets)+1 slots (the +Inf "
                f"overflow), got {len(counts)} for {len(buckets)} buckets")
        for bound in buckets:
            _expect_number(bound, h_where, "every bucket bound")
        for count in counts:
            _expect(isinstance(count, int) and not isinstance(count, bool)
                    and count >= 0,
                    h_where, "every bucket count must be a non-negative "
                             "integer")
        _expect_number(doc.get("sum"), h_where, "'sum'")
        _expect_int(doc, "count", h_where)
        _expect(doc["count"] == sum(counts), h_where,
                "'count' must equal the bucket-count total")
        percentiles = doc.get("percentiles", {})
        _expect(isinstance(percentiles, dict), h_where,
                "'percentiles' must be an object")
        for pct, value in percentiles.items():
            _expect_number(value, f"{h_where}.percentiles", repr(pct))


def _validate_parallel(block: Any, where: str) -> None:
    _validate_measures(block, PARALLEL_KEYS, where)
    _expect(isinstance(block.get("mode"), str), where,
            "'mode' must be a string")
    shards = block.get("shards")
    _expect(isinstance(shards, list), where, "'shards' must be a list")
    for i, shard in enumerate(shards):
        _validate_measures(shard, SHARD_KEYS, f"{where}.shards[{i}]")


def validate_stats_file(path: str) -> dict:
    """Load *path* as JSON, validate it and return the document;
    raises on any problem."""
    with open(path) as handle:
        doc = json.load(handle)
    validate_stats(doc)
    return doc


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.schema",
        description="validate a stats JSON file against the documented "
                    "schema")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    for path in args.files:
        try:
            validate_stats_file(path)
        except (OSError, json.JSONDecodeError, SchemaError) as error:
            print(f"{path}: INVALID: {error}")
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
