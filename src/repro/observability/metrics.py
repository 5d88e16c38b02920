"""The metrics registry: counters, gauges and latency histograms.

The tracer (:mod:`.tracer`) is the one instrument the compiler
threads; it answers "what happened inside *this* run".  The registry
is an aggregate and exposition type for the service-shaped question
"how is the compiler behaving *over* runs" -- the per-function
compile-time distribution, per-phase self time, cache probe/store
latency and interference-oracle query traffic that a live metrics
endpoint (``repro serve``) or the run ledger (:mod:`.ledger`) exposes.
A traced run's ``metrics`` block is :func:`metrics_view`: a registry
filled from the run's trace and environment blocks after the fact, so
the pipeline never records a second time.  Three instrument kinds:

* **counters** -- named monotone totals (``registry.counter(
  "cache.hits").inc()``);
* **gauges** -- last-written values (``registry.gauge(
  "cache.bytes").set(n)``); merged by taking the max;
* **histograms** -- distributions over *fixed* log-spaced bucket
  ladders (:data:`BUCKET_BOUNDS`, powers of two from 1µs, for
  latencies; :data:`COUNT_BOUNDS`, powers of four, for sizes such as
  oracle query batches).  The ladder is a property of the metric, not
  of the process, so the same histogram from different ledger records
  merges by plain element-wise addition of its bucket counts.

Determinism contract: :meth:`MetricsRegistry.snapshot` emits sorted
keys and plain JSON types, :meth:`MetricsRegistry.merge` is commutative
and associative (sums and maxes only), so merged snapshots are
independent of merge order.  The *values* of latency histograms are
wall-clock measurements and therefore non-deterministic across runs;
the observation **counts** are not (one per function, one per phase
and function) -- ``tests/test_metrics_registry.py`` pins both halves
of that contract.

Prometheus text exposition (:func:`prometheus_text`) renders a
snapshot in the classic ``# TYPE`` / sample-line format --
``repro_phase_seconds_bucket{phase="ssa",le="0.000512"} 3`` -- and
:func:`parse_prometheus_text` parses it back; rendering a parsed
exposition reproduces the text byte-for-byte (the round-trip CI
test), which is what makes the format safe to serve from the
``repro serve`` endpoint.
"""

from __future__ import annotations

#: The default (latency) histogram bucket ladder: powers of two from
#: 1µs.  The last finite bound is ~134s; observations beyond it land
#: in the implicit +Inf overflow bucket (``counts[-1]``).
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * (1 << i) for i in range(28))

#: The size/count ladder (oracle query batches, functions per shard):
#: powers of four from 1 up to ~10^9.
COUNT_BOUNDS: tuple[float, ...] = tuple(
    float(4 ** i) for i in range(16))

#: Percentiles reported by :meth:`Histogram.percentiles` and embedded
#: in stats-document ``metrics`` blocks.
PERCENTILES = (50, 90, 99)


def _bucket_index(bounds: tuple[float, ...], value: float) -> int:
    """The index of the first bucket whose upper bound admits *value*
    (``len(bounds)`` = the +Inf overflow bucket).  A hand-rolled
    binary search beats ``bisect`` here only by avoiding an import;
    the ladders are small and fixed."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _key(name: str, labels: dict) -> str:
    """The registry key of one labelled instrument: the metric name
    plus a canonical ``{k=v,...}`` suffix (sorted, so label order at
    the call site never matters)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> tuple[str, dict]:
    """Invert :func:`_key`: ``name{k=v,...}`` back to name + labels.
    A segment without ``=`` belongs to the previous value (label
    *values* may contain commas -- e.g. the experiment ``Lphi,ABI+C``
    -- but label names never do)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    pairs: list[str] = []
    for segment in inner.split(","):
        if "=" in segment or not pairs:
            pairs.append(segment)
        else:
            pairs[-1] += "," + segment
    labels = {}
    for pair in pairs:
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


# ----------------------------------------------------------------------
# Recording instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotone total; a pre-bound handle like the tracer's."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """A distribution over a fixed log-bucket ladder (the latency
    ladder :data:`BUCKET_BOUNDS` by default, :data:`COUNT_BOUNDS` for
    size-shaped metrics).

    ``counts`` has ``len(bounds) + 1`` slots, the last being the +Inf
    overflow bucket; ``sum``/``count`` accumulate alongside so
    averages need no bucket arithmetic.  One registry key must always
    use one ladder -- the merge contract.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = BUCKET_BOUNDS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[_bucket_index(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentiles(self) -> dict[str, float]:
        """Upper-bound estimates for :data:`PERCENTILES` read off the
        cumulative bucket counts (the +Inf bucket reports the last
        finite bound)."""
        out: dict[str, float] = {}
        if not self.count:
            return out
        for pct in PERCENTILES:
            need = self.count * pct / 100.0
            running = 0
            for i, n in enumerate(self.counts):
                running += n
                if running >= need:
                    out[f"p{pct}"] = self.bounds[min(
                        i, len(self.bounds) - 1)]
                    break
        return out


class MetricsRegistry:
    """The registry.  See the module docstring for the model."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        instrument = self.counters.get(key)
        if instrument is None:
            instrument = self.counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        instrument = self.gauges.get(key)
        if instrument is None:
            instrument = self.gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = BUCKET_BOUNDS,
                  **labels) -> Histogram:
        key = _key(name, labels)
        instrument = self.histograms.get(key)
        if instrument is None:
            instrument = self.histograms[key] = Histogram(bounds)
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as a deterministic plain-JSON document (sorted
        keys, lists and numbers only) -- the ``metrics`` block of a
        ``repro.stats/v1.5`` document and of a ledger record."""
        histograms = {}
        for key in sorted(self.histograms):
            h = self.histograms[key]
            histograms[key] = {
                "buckets": list(h.bounds),
                "counts": list(h.counts),
                "sum": h.sum,
                "count": h.count,
                "percentiles": h.percentiles(),
            }
        return {
            "counters": {key: self.counters[key].value
                         for key in sorted(self.counters)},
            "gauges": {key: self.gauges[key].value
                       for key in sorted(self.gauges)},
            "histograms": histograms,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` document into this registry:
        counters and histogram buckets add, gauges take the max.
        Integer addition and max are commutative/associative, so every
        integer field of merged snapshots is independent of merge order
        (float ``sum`` fields only up to addition reassociation)."""
        if not snapshot:
            return
        for key, value in snapshot.get("counters", {}).items():
            self.counter(key).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(key)
            gauge.value = max(gauge.value, value)
        for key, doc in snapshot.get("histograms", {}).items():
            h = self.histogram(key, bounds=tuple(doc["buckets"]))
            for i, n in enumerate(doc["counts"]):
                h.counts[i] += n
            h.sum += doc["sum"]
            h.count += doc["count"]

    def to_prometheus(self) -> str:
        """This registry in Prometheus text-exposition format."""
        return prometheus_text(self.snapshot())


def metrics_view(result) -> dict:
    """The ``metrics`` block of a traced
    :class:`~repro.pipeline.ExperimentResult`: a registry filled from
    the result's trace and environment blocks, as a snapshot.

    Counters come from the ``analysis_cache`` and ``cache`` blocks;
    ``phase.seconds{phase}`` gets one observation per (phase, function)
    and ``compile.function_seconds`` one per function, from the
    per-function nanoseconds each ``phase:*`` span carries; the cache
    latency histograms get one observation per ``cache:probe`` /
    ``cache:store`` span.  ``--jobs`` runs graft their workers' spans
    into the result's tracer, so the view needs no merge; a tracer
    shared by several runs yields the view of all of them.
    """
    registry = MetricsRegistry()
    registry.counter("pipeline.runs").inc()
    registry.counter("pipeline.functions").inc(len(result.records))
    analysis = result.analysis_cache
    for counter, key in (("analysis.hits", "hits"),
                         ("analysis.misses", "misses"),
                         ("oracle.hits", "oracle_hits"),
                         ("oracle.misses", "oracle_misses")):
        registry.counter(counter).inc(analysis.get(key, 0))
    # The run's interference-verdict volume: a size, not a latency --
    # hence the count ladder.
    registry.histogram("oracle.query_batch", bounds=COUNT_BOUNDS).observe(
        float(analysis.get("oracle_hits", 0)
              + analysis.get("oracle_misses", 0)))
    if result.cache:
        registry.counter("cache.hits").inc(result.cache.get("hits", 0))
        registry.counter("cache.misses").inc(result.cache.get("misses", 0))
        registry.gauge("cache.store_bytes").set(result.cache.get("bytes", 0))
    function_ns: dict[str, int] = {}
    for span in result.tracer.spans:
        kind, _, name = span.name.partition(":")
        if kind == "phase":
            timer = registry.histogram("phase.seconds", phase=name)
            for fn_name, ns in span.attrs.get("function_ns", {}).items():
                timer.observe(ns / 1e9)
                function_ns[fn_name] = function_ns.get(fn_name, 0) + ns
        elif span.name in ("cache:probe", "cache:store"):
            registry.histogram(f"cache.{name}_seconds").observe(
                span.duration_ns / 1e9)
    timer = registry.histogram("compile.function_seconds")
    for fn_name in sorted(function_ns):
        timer.observe(function_ns[fn_name] / 1e9)
    return registry.snapshot()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(key: str) -> tuple[str, dict]:
    """Registry key -> (prometheus metric name, labels)."""
    name, labels = split_key(key)
    return "repro_" + name.replace(".", "_").replace("-", "_"), labels


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


def _prom_value(value) -> str:
    """Float formatting with an exact round trip (repr of a float
    parses back to the same float; integers stay integers)."""
    if isinstance(value, float) and value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document in Prometheus
    text-exposition format (``# TYPE`` comments, cumulative ``le``
    histogram buckets ending at ``+Inf``, ``_sum``/``_count`` series).
    """
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, labels = _prom_name(key)
        if not name.endswith("_total"):
            name += "_total"
        emit_type(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = _prom_name(key)
        emit_type(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(value)}")
    for key, doc in snapshot.get("histograms", {}).items():
        name, labels = _prom_name(key)
        emit_type(name, "histogram")
        cumulative = 0
        for bound, count in zip(doc["buckets"] + [float("inf")],
                                doc["counts"]):
            cumulative += count
            bucket_labels = dict(labels, le=_prom_value(float(bound)))
            lines.append(f"{name}_bucket{_prom_labels(bucket_labels)} "
                         f"{cumulative}")
        lines.append(f"{name}_sum{_prom_labels(labels)} "
                     f"{_prom_value(float(doc['sum']))}")
        lines.append(f"{name}_count{_prom_labels(labels)} {doc['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> dict:
    """Parse a :func:`prometheus_text` exposition back into
    ``{metric name: {"type": kind, "samples": [(labels, value), ...]}}``
    (labels as a sorted tuple of pairs).  Raises :class:`ValueError` on
    malformed lines -- the round-trip test feeds the output of
    :func:`render_prometheus` back through here."""
    families: dict[str, dict] = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
            families.setdefault(name, {"type": kind, "samples": []})
            continue
        if line.startswith("#"):
            continue
        head, _, value_text = line.rpartition(" ")
        if not head:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        if head.endswith("}"):
            name, _, inner = head[:-1].partition("{")
            if not inner and "{" not in head:
                raise ValueError(f"line {lineno}: bad labels in {line!r}")
            # Split on closing-quote-comma boundaries so quoted values
            # may themselves contain commas (``experiment="Lphi,ABI+C"``).
            segments = inner.split('",') if inner else []
            pairs = [s + '"' for s in segments[:-1]] + segments[-1:]
            for pair in pairs:
                if not pair:
                    continue
                label, _, raw = pair.partition("=")
                if not (raw.startswith('"') and raw.endswith('"')):
                    raise ValueError(
                        f"line {lineno}: unquoted label value {pair!r}")
                labels[label] = raw[1:-1]
        else:
            name = head
        if value_text == "+Inf":
            value: float = float("inf")
        else:
            value = float(value_text) if ("." in value_text
                                          or "e" in value_text
                                          or "inf" in value_text.lower()) \
                else int(value_text)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base is not None and types.get(base) == "histogram":
                family = base
                break
        entry = families.setdefault(
            family, {"type": types.get(family, "untyped"), "samples": []})
        entry["samples"].append(
            (name, tuple(sorted(labels.items())), value))
    return families


def render_prometheus(families: dict) -> str:
    """Re-render :func:`parse_prometheus_text` output; rendering a
    parse of :func:`prometheus_text` reproduces the text exactly."""
    lines: list[str] = []
    for family, entry in families.items():
        lines.append(f"# TYPE {family} {entry['type']}")
        for name, labels, value in entry["samples"]:
            lines.append(
                f"{name}{_prom_labels(dict(labels))} {_prom_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""
