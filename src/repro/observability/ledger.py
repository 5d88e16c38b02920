"""The append-only run ledger: one JSONL record per pipeline run.

``BENCH_compile_time.json`` is a hand-curated two-point summary; the
ledger is the machine-written trajectory behind it.  Every record is
one line of JSON (schema :data:`LEDGER_SCHEMA`) describing one
``(suite, experiment)`` pipeline run:

* **identity** -- git revision, the :func:`repro.cache.code_version`
  source digest, the resolved phase tuple and the
  :func:`~repro.cache.key.options_fingerprint` /
  :func:`~repro.cache.key.target_fingerprint` of the run (the same
  canonical fingerprints the compilation cache keys on, so two records
  are comparable exactly when the cache would consider them the same
  pipeline);
* **content** -- the paper totals (moves / weighted / instructions)
  and a ``stats_digest``: SHA-256 over the timing-stripped stats
  document (:func:`repro.observability.statdiff.stats_digest`), so two
  runs of the same revision must carry the same digest and ``repro
  perf diff`` can flag any divergence as a correctness problem rather
  than noise;
* **timing** -- min/all wall-clock samples, and when a tracer ran,
  per-phase self times and the run's ``metrics`` block
  (:func:`repro.observability.metrics.metrics_view`).

Concurrency contract: **appends are a single ``write(2)`` on an
``O_APPEND`` descriptor, performed only by the parent process** -- the
``--jobs`` workers report back through the parallel driver's payload
merge and never touch the ledger, so concurrent runs sharing one
ledger file cannot interleave a record (guarded by
``tests/test_perf_ledger.py``).  Malformed lines (a crashed writer, a
truncated copy) are skipped and counted on read, never fatal.

Enable via ``--ledger FILE`` on ``repro compile`` / ``experiments`` /
``tables``, the ``$REPRO_LEDGER`` environment variable, or the
dedicated ``repro perf record`` benchmark driver (see
``docs/observability.md``).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Iterable, Optional

from .statdiff import stats_digest

LEDGER_SCHEMA = "repro.ledger/v1"
LEDGER_ENV = "REPRO_LEDGER"

#: Keys every intact ledger record carries.
RECORD_KEYS = frozenset({
    "schema", "ts", "rev", "suite", "experiment", "phases",
    "options_fp", "target_fp", "code_version", "stats_digest",
    "totals", "timing", "jobs"})


def git_rev(cwd: Optional[str] = None) -> str:
    """The short git revision of *cwd* (default: the working
    directory), or ``"unknown"`` outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def make_record(result, *, suite: Optional[str] = None,
                phases: Optional[Iterable[str]] = None,
                options=None, target=None,
                jobs: Optional[int] = None,
                wall_s: Optional[float] = None,
                samples: Optional[Iterable[float]] = None,
                rev: Optional[str] = None) -> dict:
    """Build one ledger record from an
    :class:`~repro.pipeline.ExperimentResult`.

    ``wall_s`` is the run's wall time (for ``repro perf record``: the
    **min** over its rounds, the noise-robust statistic every consumer
    compares); ``samples`` optionally keeps all rounds.  ``phases``
    defaults to the experiment's Table 1 phase tuple when the result
    name is a known experiment label.
    """
    from ..cache.key import (code_version, options_fingerprint,
                             target_fingerprint)
    from ..machine.st120 import ST120
    from ..pipeline import EXPERIMENTS

    target = ST120 if target is None else target
    if phases is None:
        phases = EXPERIMENTS.get(result.name) \
            or tuple(result.phase_stats)
    document = result.to_stats()
    timing: dict = {"wall_s": wall_s}
    if samples is not None:
        timing["samples"] = [round(s, 6) for s in samples]
    if result.phase_breakdown:
        timing["phases_ns"] = {entry["phase"]: entry["duration_ns"]
                               for entry in result.phase_breakdown}
    record = {
        "schema": LEDGER_SCHEMA,
        "ts": round(time.time(), 3),
        "rev": rev if rev is not None else git_rev(),
        "suite": suite,
        "experiment": result.name,
        "phases": list(phases),
        "options_fp": options_fingerprint(options),
        "target_fp": target_fingerprint(target),
        "code_version": code_version(),
        "stats_digest": stats_digest(document),
        "totals": dict(document["totals"]),
        "timing": timing,
        "jobs": jobs,
    }
    if result.cache:
        record["cache"] = dict(result.cache)
    if "metrics" in document:
        record["metrics"] = document["metrics"]
    return record


class RunLedger:
    """An append-only JSONL ledger file (see the module docstring for
    the atomicity and single-writer contract)."""

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = os.fspath(path)
        #: Malformed lines skipped by the last :meth:`entries` call.
        self.skipped = 0

    def append(self, record: dict) -> None:
        """Append *record* as one line via a single ``O_APPEND`` write
        (atomic on local filesystems: concurrent appenders cannot
        interleave within one ``write``)."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def entries(self) -> list[dict]:
        """Every intact record, in append (= chronological) order.
        Lines that fail to parse or lack the schema are skipped and
        counted in :attr:`skipped`."""
        self.skipped = 0
        records: list[dict] = []
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except OSError:
            return records
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.skipped += 1
                continue
            if not (isinstance(record, dict)
                    and record.get("schema") == LEDGER_SCHEMA
                    and RECORD_KEYS <= record.keys()):
                self.skipped += 1
                continue
            records.append(record)
        return records

    def __repr__(self) -> str:
        return f"<RunLedger {self.path!r}>"


def resolve_ledger(ledger) -> Optional[RunLedger]:
    """Normalize an optional ``ledger=`` argument: ``None`` consults
    ``$REPRO_LEDGER`` (unset/empty means no ledger), a path constructs
    a :class:`RunLedger`, an instance passes through."""
    if ledger is None:
        path = os.environ.get(LEDGER_ENV, "")
        return RunLedger(path) if path else None
    if isinstance(ledger, (str, os.PathLike)):
        return RunLedger(ledger)
    return ledger


# ----------------------------------------------------------------------
# Entry selection and comparison (the `repro perf` verbs)
# ----------------------------------------------------------------------
def entry_key(record: dict) -> tuple[str, str, str]:
    """The comparison identity of a record: runs compare when suite,
    experiment and pipeline options match."""
    return (record.get("suite") or "", record["experiment"],
            record["options_fp"])


def select_entries(ledger: RunLedger, selector: str) -> list[dict]:
    """Resolve a ``repro perf diff`` operand to a list of records.

    A selector naming an existing file loads that file as a ledger (all
    records); an integer (``-1`` = most recent) picks a single record
    of *ledger*; ``rev:<prefix>`` (or a bare hex prefix of length >= 6)
    picks every record of *ledger* whose revision matches.
    """
    if os.path.exists(selector):
        return RunLedger(selector).entries()
    entries = ledger.entries() if ledger is not None else []
    try:
        index = int(selector)
    except ValueError:
        pass
    else:
        if not entries:
            raise ValueError(f"no ledger entries to index with {selector}")
        try:
            return [entries[index]]
        except IndexError:
            raise ValueError(
                f"index {selector} out of range for {len(entries)} "
                f"ledger entries") from None
    prefix = selector[len("rev:"):] if selector.startswith("rev:") \
        else selector
    matched = [r for r in entries if r["rev"].startswith(prefix)]
    if not matched:
        raise ValueError(f"selector {selector!r} matches no ledger entry "
                         f"(not a file, index or revision prefix)")
    return matched


def best_times(entries: Iterable[dict]) -> dict[tuple, dict]:
    """Per comparison key, the record with the smallest ``wall_s``
    (min-time comparison: the least-noise sample wins; records without
    a wall time are ignored)."""
    best: dict[tuple, dict] = {}
    for record in entries:
        wall = record["timing"].get("wall_s")
        if wall is None:
            continue
        key = entry_key(record)
        if key not in best or wall < best[key]["timing"]["wall_s"]:
            best[key] = record
    return best


def diff_entries(old: Iterable[dict], new: Iterable[dict],
                 threshold: float = 0.25) -> list[dict]:
    """Compare two record sets; one finding per shared comparison key.

    A **timing regression** is a min-time ratio beyond ``1 +
    threshold`` (noise-aware: both sides already took the min over
    their samples).  A **content divergence** -- same revision, same
    pipeline, different ``stats_digest`` -- is always a finding: the
    non-timing content of a run is deterministic, so a mismatch means
    the compiler's *output* changed, which no threshold excuses.
    """
    old_best = best_times(old)
    new_best = best_times(new)
    findings = []
    for key in sorted(old_best.keys() & new_best.keys()):
        a, b = old_best[key], new_best[key]
        old_s, new_s = a["timing"]["wall_s"], b["timing"]["wall_s"]
        ratio = new_s / old_s if old_s else float("inf")
        finding = {
            "suite": a.get("suite") or "",
            "experiment": a["experiment"],
            "old_s": old_s, "new_s": new_s,
            "old_rev": a["rev"], "new_rev": b["rev"],
            "ratio": round(ratio, 4),
            "regression": ratio > 1.0 + threshold,
            "kind": "timing",
        }
        if (a["rev"] == b["rev"] and a["rev"] != "unknown"
                and a["stats_digest"] != b["stats_digest"]):
            finding["regression"] = True
            finding["kind"] = "content"
        findings.append(finding)
    return findings


def trend_rows(entries: Iterable[dict],
               suite: Optional[str] = None) -> list[dict]:
    """Chronological per-suite trajectory rows: each record with a
    wall time, annotated with the speedup against the *previous*
    record of the same comparison key.  ``repro serve`` throughput
    records (``suite="serve:<name>"``, a ``serve`` block with
    requests/second; ``wall_s`` is the warm p50) surface their ``rps``
    so the service trajectory reads alongside the compile-time minima.
    """
    rows = []
    last: dict[tuple, float] = {}
    for record in entries:
        if suite and (record.get("suite") or "") != suite:
            continue
        wall = record["timing"].get("wall_s")
        if wall is None:
            continue
        key = entry_key(record)
        previous = last.get(key)
        last[key] = wall
        rows.append({
            "suite": record.get("suite") or "",
            "experiment": record["experiment"],
            "rev": record["rev"],
            "ts": record["ts"],
            "wall_s": wall,
            "moves": record["totals"]["moves"],
            "rps": (record.get("serve") or {}).get("rps"),
            "speedup": round(previous / wall, 3) if previous else None,
        })
    return rows


def export_prometheus(entries: Iterable[dict]) -> str:
    """The latest record per comparison key as Prometheus gauges, plus
    every embedded ``metrics`` snapshot merged into one exposition --
    what a scrape of the (future) ``repro serve`` endpoint would
    report about the most recent runs."""
    from .metrics import MetricsRegistry

    latest: dict[tuple, dict] = {}
    for record in entries:
        latest[entry_key(record)] = record
    registry = MetricsRegistry()
    for key in sorted(latest):
        record = latest[key]
        labels = {"suite": record.get("suite") or "",
                  "experiment": record["experiment"],
                  "rev": record["rev"]}
        wall = record["timing"].get("wall_s")
        if wall is not None:
            registry.gauge("ledger.wall_seconds", **labels).set(wall)
        for total, value in record["totals"].items():
            registry.gauge(f"ledger.{total}", **labels).set(value)
        registry.merge(record.get("metrics") or {})
    return registry.to_prometheus()
