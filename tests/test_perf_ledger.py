"""The run ledger and `repro perf`: append/read robustness, record
identity, the noise-aware diff, trend, export, and the CLI verbs."""

import json
import os

import pytest

from helpers import module_of
from repro.cli import main
from repro.observability import (RunLedger, Tracer, make_record,
                                 resolve_ledger, stats_digest)
from repro.observability.ledger import (LEDGER_SCHEMA, best_times,
                                        diff_entries, entry_key,
                                        export_prometheus, select_entries,
                                        trend_rows)
from repro.pipeline import run_experiment

PROG = """
func main
entry:
    input a
    cbr a, t, f
t:
    add x, a, 1
    br j
f:
    mul y, a, 3
    br j
j:
    r = phi(x:t, y:f)
    ret r
endfunc

func aux
entry:
    input n
    make s, 0
    make i, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, exit
body:
    add s, s, i
    add i, i, 1
    br head
exit:
    ret s
endfunc
"""


def _result(jobs=1, tracer=None):
    return run_experiment(module_of(PROG), "Lphi,ABI+C", jobs=jobs,
                          tracer=tracer)


def _record(result=None, *, suite="unit", wall_s=0.5, rev="aaaaaa111111",
            **kwargs):
    return make_record(result or _result(), suite=suite, wall_s=wall_s,
                       rev=rev, **kwargs)


class TestLedgerFile:
    def test_append_then_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        record = _record()
        ledger.append(record)
        entries = ledger.entries()
        assert len(entries) == 1
        assert entries[0] == record
        assert entries[0]["schema"] == LEDGER_SCHEMA
        assert ledger.skipped == 0

    def test_each_record_is_one_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for _ in range(3):
            ledger.append(_record())
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)  # every line independently parseable

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record())
        with open(path, "a") as handle:
            handle.write("{truncated\n")
            handle.write('{"schema": "other/v1"}\n')
            handle.write("\n")
        ledger.append(_record())
        entries = ledger.entries()
        assert len(entries) == 2
        assert ledger.skipped == 2  # blank lines are not records

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "never-written.jsonl")
        assert ledger.entries() == []

    def test_creates_parent_directory(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "runs.jsonl")
        ledger.append(_record())
        assert len(ledger.entries()) == 1

    def test_resolve_ledger(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert resolve_ledger(None) is None
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", path)
        assert resolve_ledger(None).path == path
        explicit = resolve_ledger(str(tmp_path / "x.jsonl"))
        assert isinstance(explicit, RunLedger)
        assert resolve_ledger(explicit) is explicit


class TestRecordIdentity:
    def test_required_keys_and_shape(self):
        record = _record(samples=[0.5, 0.6], jobs=2)
        for key in ("schema", "ts", "rev", "suite", "experiment",
                    "phases", "options_fp", "target_fp", "code_version",
                    "stats_digest", "totals", "timing", "jobs"):
            assert key in record, key
        assert record["timing"]["wall_s"] == 0.5
        assert record["timing"]["samples"] == [0.5, 0.6]
        assert record["totals"]["moves"] == _result().moves
        assert record["phases"][0] == "ssa"

    def test_digest_matches_statdiff(self):
        result = _result()
        record = _record(result)
        assert record["stats_digest"] == stats_digest(result.to_stats())

    def test_digest_deterministic_across_runs_and_jobs(self):
        digests = {_record(_result(jobs=jobs))["stats_digest"]
                   for jobs in (1, 2, 1)}
        assert len(digests) == 1

    def test_digest_ignores_metrics_block(self):
        result = _result(tracer=Tracer())
        document = result.to_stats()
        del document["metrics"]
        assert _record(result)["stats_digest"] == stats_digest(document)
        assert "metrics" not in _record(_result())  # only when traced

    def test_metrics_embedded_when_passed(self):
        record = _record(_result(tracer=Tracer()))
        assert record["metrics"]["counters"]["pipeline.runs"] == 1


class TestSelectors:
    def _ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record(wall_s=0.5, rev="aaaaaa111111"))
        ledger.append(_record(wall_s=0.4, rev="bbbbbb222222"))
        ledger.append(_record(wall_s=0.3, rev="bbbbbb222222"))
        return ledger

    def test_index_selectors(self, tmp_path):
        ledger = self._ledger(tmp_path)
        assert select_entries(ledger, "0")[0]["rev"] == "aaaaaa111111"
        assert select_entries(ledger, "-1")[0]["timing"]["wall_s"] == 0.3
        with pytest.raises(ValueError):
            select_entries(ledger, "17")

    def test_rev_selectors(self, tmp_path):
        ledger = self._ledger(tmp_path)
        assert len(select_entries(ledger, "rev:bbbbbb")) == 2
        assert len(select_entries(ledger, "aaaaaa111111")) == 1
        with pytest.raises(ValueError):
            select_entries(ledger, "rev:ffffff")

    def test_file_selector(self, tmp_path):
        ledger = self._ledger(tmp_path)
        assert len(select_entries(None, str(ledger.path))) == 3

    def test_best_times_takes_min_per_key(self, tmp_path):
        ledger = self._ledger(tmp_path)
        best = best_times(ledger.entries())
        assert len(best) == 1  # same suite/experiment/options
        (record,) = best.values()
        assert record["timing"]["wall_s"] == 0.3


class TestDiff:
    def test_same_rev_zero_regressions(self, tmp_path):
        """Acceptance: diffing two same-revision entries reports no
        regression (timing within threshold, digests equal)."""
        result = _result()
        old = [_record(result, wall_s=0.50)]
        new = [_record(result, wall_s=0.55)]
        findings = diff_entries(old, new)
        assert len(findings) == 1
        assert not findings[0]["regression"]
        assert findings[0]["kind"] == "timing"

    def test_timing_regression_flagged(self):
        result = _result()
        findings = diff_entries([_record(result, wall_s=0.5)],
                                [_record(result, wall_s=0.7)])
        assert findings[0]["regression"]
        assert findings[0]["kind"] == "timing"
        # a looser threshold tolerates the same slowdown
        relaxed = diff_entries([_record(result, wall_s=0.5)],
                               [_record(result, wall_s=0.7)],
                               threshold=0.5)
        assert not relaxed[0]["regression"]

    def test_content_divergence_always_flagged(self):
        result = _result()
        old = [_record(result, wall_s=0.5)]
        new = [_record(result, wall_s=0.5)]
        new[0]["stats_digest"] = "0" * 64
        findings = diff_entries(old, new)
        assert findings[0]["regression"]
        assert findings[0]["kind"] == "content"

    def test_cross_rev_digest_mismatch_not_content(self):
        result = _result()
        old = [_record(result, wall_s=0.5, rev="aaaaaa111111")]
        new = [_record(result, wall_s=0.5, rev="bbbbbb222222")]
        new[0]["stats_digest"] = "0" * 64
        findings = diff_entries(old, new)
        assert findings[0]["kind"] == "timing"
        assert not findings[0]["regression"]

    def test_disjoint_keys_no_findings(self):
        result = _result()
        assert diff_entries([_record(result, suite="a")],
                            [_record(result, suite="b")]) == []


class TestTrendAndExport:
    def test_trend_speedups(self):
        result = _result()
        entries = [_record(result, wall_s=0.6),
                   _record(result, wall_s=0.3),
                   _record(result, wall_s=0.6, suite="other")]
        rows = trend_rows(entries)
        assert [r["speedup"] for r in rows] == [None, 2.0, None]
        only = trend_rows(entries, suite="other")
        assert len(only) == 1

    def test_export_prometheus_latest_per_key(self):
        entries = [_record(_result(), wall_s=0.6),
                   _record(_result(tracer=Tracer()), wall_s=0.3)]
        text = export_prometheus(entries)
        assert 'repro_ledger_wall_seconds{experiment="Lphi,ABI+C"' in text
        assert " 0.3" in text and " 0.6" not in text  # latest wins
        assert "repro_pipeline_runs_total 1" in text  # embedded metrics
        from repro.observability import (parse_prometheus_text)
        from repro.observability.metrics import render_prometheus
        assert render_prometheus(parse_prometheus_text(text)) == text

    def test_entry_key_groups_by_options(self):
        result = _result()
        a = _record(result)
        b = _record(result)
        assert entry_key(a) == entry_key(b)


class TestParallelSingleWriter:
    def test_jobs_never_interleave_records(self, tmp_path, lai_file=None):
        """`--jobs` workers report through the payload merge; only the
        parent appends, so every line of a parallel run's ledger is
        intact and the entry count equals the run count."""
        prog = tmp_path / "prog.lai"
        prog.write_text(PROG)
        path = tmp_path / "runs.jsonl"
        for jobs in ("1", "2", "4"):
            assert main(["compile", str(prog), "--jobs", jobs,
                         "--stats-json", str(tmp_path / "stats.json"),
                         "--ledger", str(path), "-o", os.devnull]) == 0
        ledger = RunLedger(path)
        entries = ledger.entries()
        assert len(entries) == 3
        assert ledger.skipped == 0
        digests = {r["stats_digest"] for r in entries}
        assert len(digests) == 1  # identical content at any job count
        runs = {r["metrics"]["counters"]["pipeline.runs"]
                for r in entries}
        assert runs == {1}


class TestPerfCli:
    @pytest.fixture
    def prog(self, tmp_path):
        path = tmp_path / "prog.lai"
        path.write_text(PROG)
        return str(path)

    def test_record_list_diff_trend_export(self, tmp_path, capsys):
        path = str(tmp_path / "runs.jsonl")
        for _ in range(2):
            assert main(["perf", "record", "--ledger", path,
                         "--suite", "VALcc1", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("recorded VALcc1/Lphi,ABI+C") == 2

        assert main(["perf", "list", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert "VALcc1" in out and "Lphi,ABI+C" in out

        # same revision, same machine: acceptance demands no regression
        assert main(["perf", "diff", "0", "1", "--ledger", path,
                     "--threshold", "1000"]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

        assert main(["perf", "trend", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| suite |")

        assert main(["perf", "export", "--prometheus",
                     "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert "repro_ledger_wall_seconds" in out

    def test_diff_exit_code_on_content_divergence(self, tmp_path,
                                                  capsys):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        result = _result()
        ledger.append(_record(result, wall_s=0.5))
        bad = _record(result, wall_s=0.5)
        bad["stats_digest"] = "0" * 64
        ledger.append(bad)
        assert main(["perf", "diff", "0", "1",
                     "--ledger", str(path)]) == 1
        assert "CONTENT DIVERGED" in capsys.readouterr().out

    def test_compile_ledger_via_env(self, prog, tmp_path, monkeypatch,
                                    capsys):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", path)
        assert main(["compile", prog, "--stats-json",
                     str(tmp_path / "stats.json"), "-o", os.devnull]) == 0
        entries = RunLedger(path).entries()
        assert len(entries) == 1
        assert entries[0]["metrics"]["counters"]["pipeline.runs"] == 1

    def test_perf_without_ledger_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        with pytest.raises(SystemExit):
            main(["perf", "list"])
        with pytest.raises(SystemExit):
            main(["perf", "record"])

    def test_record_unknown_suite_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["perf", "record", "--ledger",
                  str(tmp_path / "x.jsonl"), "--suite", "nope"])
