"""Observability for the out-of-SSA pipeline: tracing, counters, stats.

Public surface:

* :class:`Tracer` / :data:`NULL_TRACER` -- the recording tracer and the
  zero-overhead default (see :mod:`.tracer`), the one instrument the
  compiler threads: spans, events, decision ``counters`` and a separate
  ``environment`` store;
* :func:`resolve` -- normalize an optional ``tracer=`` argument;
* exporters -- :func:`chrome_trace_events` / :func:`write_chrome_trace`
  (Chrome ``trace_event`` format), :func:`summary`,
  :func:`phase_table` and :func:`pass_profile` /
  :func:`pass_self_times` (human-readable), :func:`jsonable`;
* schema -- :func:`validate_stats` and the ``repro.stats/v1`` document
  contract (see :mod:`.schema` and ``docs/observability.md``);
* metrics -- :func:`metrics_view`, a traced run's ``metrics`` block
  computed from its trace, and :class:`MetricsRegistry`, the
  counter/gauge/latency-histogram aggregate with deterministic
  snapshots, merge and Prometheus text exposition (see
  :mod:`.metrics`);
* ledger -- :class:`RunLedger` / :func:`resolve_ledger`, the
  append-only JSONL run ledger behind ``repro perf`` (see
  :mod:`.ledger`);
* statdiff -- :func:`strip_timing` / :func:`stats_digest`, the shared
  timing-stripping rules (see :mod:`.statdiff`).

Every instrumented entry point (``run_phases``, ``coalesce_phis``,
``sreedhar_to_cssa``, ``aggressive_coalesce``, the interpreter) takes an
optional ``tracer`` keyword defaulting to ``None`` == :data:`NULL_TRACER`.
"""

from .exporters import (chrome_trace_events, chrome_trace_json, jsonable,
                        pass_profile, pass_self_times, phase_table,
                        summary, write_chrome_trace)
from .ledger import (LEDGER_ENV, LEDGER_SCHEMA, RunLedger, make_record,
                     resolve_ledger)
from .metrics import (BUCKET_BOUNDS, MetricsRegistry, metrics_view,
                      parse_prometheus_text, prometheus_text)
from .schema import (COLLECTION_SCHEMA, DELTA_KEYS, SNAPSHOT_KEYS,
                     STATS_SCHEMA, SchemaError, validate_stats,
                     validate_stats_file)
from .statdiff import first_difference, stats_digest, strip_timing
from .tracer import (NULL_TRACER, EventRecord, NullTracer, SpanRecord,
                     Tracer, resolve)

__all__ = [
    "NULL_TRACER", "NullTracer", "Tracer", "SpanRecord", "EventRecord",
    "resolve",
    "MetricsRegistry", "BUCKET_BOUNDS", "metrics_view", "prometheus_text",
    "parse_prometheus_text",
    "RunLedger", "resolve_ledger", "make_record", "LEDGER_SCHEMA",
    "LEDGER_ENV",
    "strip_timing", "first_difference", "stats_digest",
    "chrome_trace_events", "chrome_trace_json", "write_chrome_trace",
    "summary", "phase_table", "pass_profile", "pass_self_times",
    "jsonable",
    "STATS_SCHEMA", "COLLECTION_SCHEMA", "DELTA_KEYS", "SNAPSHOT_KEYS",
    "SchemaError", "validate_stats", "validate_stats_file",
]
