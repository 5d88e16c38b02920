"""The warm compile service: protocol, batching, dedup, drain.

Contracts under test:

* every server response is **byte-identical** to the serial CLI path
  (same ``format_module`` text, same timing-stripped stats digest) at
  every jobs setting and through every fast path (batch, dedup, memo);
* concurrent requests on one cache directory keep hits+misses
  accounting exact, and cache corruption stays a recoverable miss
  under contention;
* errors are per-request (``{"ok": false}``) and never tear down the
  connection or the batch;
* graceful shutdown drains in-flight work and flushes a final ledger
  record.
"""

import concurrent.futures
import http.client
import json
import os
import tempfile

import pytest

from repro.benchgen import SUITE_NAMES, load_suite
from repro.ir.printer import format_module
from repro.lai import parse_module
from repro.observability.ledger import RunLedger
from repro.observability.statdiff import stats_digest
from repro.parallel import fork_available
from repro.pipeline import run_experiment, table5_variants
from repro.serve import CompileServer, ServeClient, ThreadedServer
from repro.serve.protocol import (ProtocolError, decode_request,
                                  parse_compile, request_fingerprint)

SUITES = ("VALcc1", "example1-8", "SPECint")


@pytest.fixture
def sock_dir():
    # Short paths: AF_UNIX caps sun_path at ~108 bytes and pytest
    # tmp_path can blow through that.
    with tempfile.TemporaryDirectory(prefix="rs-", dir="/tmp") as path:
        yield path


def start_server(sock_dir, **kwargs):
    socket_path = os.path.join(sock_dir, "s.sock")
    server = CompileServer(socket_path=socket_path, **kwargs)
    return socket_path, server


def serial_reference(suite_name, experiment="Lphi,ABI+C", options=None):
    suite = load_suite(suite_name)
    result = run_experiment(suite.module.copy(), experiment,
                            options=options)
    return format_module(result.module), stats_digest(result.to_stats())


def suite_source(suite_name):
    return format_module(load_suite(suite_name).module)


def assert_roundtrips(text):
    """A response's module text parses back and reprints identically."""
    assert format_module(parse_module(text)) == text


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_decode_rejects_garbage(self):
        for line in (b"not json\n", b"[1,2]\n",
                     b'{"op": "explode"}\n', b"\xff\xfe\n"):
            with pytest.raises(ProtocolError):
                decode_request(line)

    def test_decode_defaults_op_to_compile(self):
        assert decode_request(b'{"source": "x"}')["op"] == "compile"

    def test_parse_compile_validates(self):
        for obj in ({}, {"source": ""}, {"source": 5},
                    {"source": "f", "experiment": "nope"},
                    {"source": "f", "variant": "nope"},
                    {"source": "f", "name": 3}):
            with pytest.raises(ProtocolError):
                parse_compile(obj)

    def test_parse_error_surfaces_on_module_access(self):
        request = parse_compile({"source": "this is not lai"})
        with pytest.raises(ProtocolError, match="parse error"):
            request.ensure_module()

    def test_fingerprint_separates_pipelines(self):
        source = suite_source("example1-8")
        base = request_fingerprint(source, ("ssa",), None)
        assert base == request_fingerprint(source, ("ssa",), None)
        assert base != request_fingerprint(source + " ", ("ssa",), None)
        assert base != request_fingerprint(source, ("ssa", "copyprop"),
                                           None)
        opts = table5_variants()["opt"]
        assert base != request_fingerprint(source, ("ssa",), opts)


# ----------------------------------------------------------------------
# Byte-identity with the serial CLI path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_responses_byte_identical_at_any_jobs(sock_dir, jobs):
    if jobs > 1 and not fork_available():
        pytest.skip("platform lacks fork")
    socket_path, server = start_server(sock_dir, jobs=jobs)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            for suite_name in SUITES:
                response = client.compile(suite_source(suite_name),
                                          name=suite_name)
                assert response["ok"], response
                text, digest = serial_reference(suite_name)
                assert response["module"] == text
                assert response["stats_digest"] == digest
                assert_roundtrips(response["module"])


def test_variant_and_experiment_routing(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            source = suite_source("VALcc1")
            for experiment in ("C", "LABI"):
                response = client.compile(source, experiment=experiment,
                                          name="VALcc1")
                text, digest = serial_reference("VALcc1", experiment)
                assert (response["module"], response["stats_digest"]) \
                    == (text, digest)
                assert_roundtrips(response["module"])
            response = client.compile(source, variant="opt",
                                      name="VALcc1")
            text, digest = serial_reference(
                "VALcc1", options=table5_variants()["opt"])
            assert (response["module"], response["stats_digest"]) \
                == (text, digest)
            assert_roundtrips(response["module"])


def test_memo_and_dedup_serve_identical_bytes(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    source = suite_source("example1-8")
    text, digest = serial_reference("example1-8")
    with ThreadedServer(server):
        def one_request(_):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="examples")

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            responses = list(pool.map(one_request, range(16)))
    assert all(r["ok"] for r in responses)
    assert {r["module"] for r in responses} == {text}
    assert {r["stats_digest"] for r in responses} == {digest}
    assert_roundtrips(text)
    # 16 identical requests cannot have compiled 16 times: the
    # in-flight dedup and the response memo absorb the repeats.
    stats = server._lifetime_stats()
    assert stats["requests"] == 16
    assert stats["dedup_hits"] + stats["memo_hits"] >= 1
    assert stats["errors"] == 0


def test_memo_disabled_and_bounded(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1, memo_size=0)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            source = suite_source("example1-8")
            first = client.compile(source, name="examples")
            second = client.compile(source, name="examples")
    assert first["ok"] and second["ok"]
    assert "memo" not in second
    assert server._lifetime_stats()["memo_hits"] == 0
    assert len(server._memo) == 0


# ----------------------------------------------------------------------
# Batching
# ----------------------------------------------------------------------
def test_concurrent_mixed_requests_batch_and_stay_correct(sock_dir):
    jobs = 2 if fork_available() else 1
    socket_path, server = start_server(sock_dir, jobs=jobs,
                                       batch_window=0.05)
    references = {name: serial_reference(name) for name in SUITES}
    with ThreadedServer(server):
        def one_request(suite_name):
            with ServeClient(socket_path) as client:
                return suite_name, client.compile(
                    suite_source(suite_name), name=suite_name)

        work = [name for name in SUITES for _ in range(4)]
        with concurrent.futures.ThreadPoolExecutor(len(work)) as pool:
            responses = list(pool.map(one_request, work))
    for suite_name, response in responses:
        assert response["ok"], response
        text, digest = references[suite_name]
        assert response["module"] == text
        assert response["stats_digest"] == digest
        assert_roundtrips(response["module"])
    stats = server._lifetime_stats()
    # Coalescing happened: fewer batches than batched requests.
    assert stats["batches"] < stats["batched_requests"]


def test_per_request_errors_do_not_poison_the_batch(sock_dir):
    socket_path, server = start_server(
        sock_dir, jobs=2 if fork_available() else 1, batch_window=0.05)
    good_source = suite_source("example1-8")
    text, digest = serial_reference("example1-8")
    with ThreadedServer(server):
        def one_request(source):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="mixed")

        sources = [good_source, "definitely not lai"] * 3
        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            responses = list(pool.map(one_request, sources))
    for source, response in zip(sources, responses):
        if source is good_source:
            assert response["ok"]
            assert response["module"] == text
        else:
            assert not response["ok"]
            assert "parse error" in response["error"]


def test_connection_survives_bad_requests(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            bad = client.request({"op": "compile"})  # no source
            assert not bad["ok"]
            assert client.ping()["ok"]  # same connection still alive
            good = client.compile(suite_source("example1-8"),
                                  name="examples")
            assert good["ok"]


# ----------------------------------------------------------------------
# Concurrent cache sharing (satellite: one --cache-dir, many clients)
# ----------------------------------------------------------------------
def test_concurrent_cache_sharing_exact_accounting(sock_dir, tmp_path):
    cache_dir = tmp_path / "cache"
    # memo off so every request exercises the store; jobs=1 keeps the
    # accounting on the server's own cache handle.
    socket_path, server = start_server(sock_dir, jobs=1, memo_size=0,
                                       cache=str(cache_dir))
    functions = len(load_suite("VALcc1").module.functions)
    source = suite_source("VALcc1")
    text, _ = serial_reference("VALcc1")
    with ThreadedServer(server):
        def one_request(_):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="VALcc1")

        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            responses = list(pool.map(one_request, range(12)))
        assert all(r["ok"] and r["module"] == text for r in responses)
        # Exactness per compile: every run probes every function, so
        # hits+misses always sums to the function count.
        for response in responses:
            block = response["cache"]
            assert block["hits"] + block["misses"] == functions
        totals = server.cache.stats()
        assert totals["hits"] + totals["misses"] == \
            functions * (len(responses) - server._lifetime_stats()[
                "dedup_hits"])
        # Only the cold runs stored; nothing was ever stored twice.
        assert totals["stores"] == functions
        assert totals["corrupt"] == 0


def test_cache_corruption_recovers_under_contention(sock_dir, tmp_path):
    cache_dir = tmp_path / "cache"
    socket_path, server = start_server(sock_dir, jobs=1, memo_size=0,
                                       cache=str(cache_dir))
    source = suite_source("VALcc1")
    text, digest = serial_reference("VALcc1")
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            assert client.compile(source, name="VALcc1")["ok"]
        # Smash every stored object, then hammer the server: corrupt
        # entries must degrade to misses and be re-stored, never error.
        objects = [os.path.join(root, name)
                   for root, _, names in os.walk(
                       os.path.join(cache_dir, "objects"))
                   for name in names]
        assert objects
        for path in objects:
            with open(path, "wb") as handle:
                handle.write(b"\x00garbage\x00")

        def one_request(_):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="VALcc1")

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            responses = list(pool.map(one_request, range(8)))
        assert all(r["ok"] for r in responses)
        assert {r["module"] for r in responses} == {text}
        assert {r["stats_digest"] for r in responses} == {digest}
        assert server.cache.stats()["corrupt"] > 0


# ----------------------------------------------------------------------
# Introspection endpoints
# ----------------------------------------------------------------------
def test_stats_and_metrics_endpoints(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            client.compile(suite_source("example1-8"), name="examples")
            stats = client.stats()
            assert stats["ok"] and stats["schema"] == "repro.serve/v1"
            assert stats["serve"]["requests"] == 1
            assert stats["jobs"] == 1 and stats["pool"] is None
            exposition = client.metrics_text()
    assert "repro_serve_request_seconds" in exposition
    assert "repro_serve_requests_total 1" in exposition


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_stats_reports_pool_health(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            stats = client.stats()
    pool = stats["pool"]
    assert pool["workers"] == 2 and pool["alive"]
    assert pool["respawns"] == 0 and len(pool["pids"]) == 2


def test_http_transport(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1, http_port=0)
    with ThreadedServer(server):
        port = server.http_port
        assert port  # OS-assigned and published

        def fetch(method, path, body=None):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=30)
            try:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()

        status, body = fetch("GET", "/healthz")
        assert (status, body) == (200, b"ok\n")
        status, body = fetch("GET", "/stats")
        assert status == 200
        assert json.loads(body)["schema"] == "repro.serve/v1"
        request = json.dumps({"source": suite_source("example1-8"),
                              "name": "examples"})
        status, body = fetch("POST", "/compile", body=request)
        assert status == 200
        text, digest = serial_reference("example1-8")
        payload = json.loads(body)
        assert payload["module"] == text
        assert payload["stats_digest"] == digest
        status, body = fetch("POST", "/compile",
                             body='{"source": "bad lai"}')
        assert status == 422 and not json.loads(body)["ok"]
        status, _ = fetch("GET", "/nope")
        assert status == 404
        status, body = fetch("GET", "/metrics")
        assert status == 200 and b"repro_serve_requests" in body


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
def test_graceful_drain_finishes_inflight_and_flushes_ledger(
        sock_dir, tmp_path):
    ledger_path = tmp_path / "runs.jsonl"
    socket_path, server = start_server(sock_dir, jobs=1,
                                       ledger=str(ledger_path))
    handle = ThreadedServer(server).start()
    try:
        with ServeClient(socket_path) as client:
            assert client.compile(suite_source("example1-8"),
                                  name="examples")["ok"]
    finally:
        handle.stop()
    assert not os.path.exists(socket_path)  # socket cleaned up
    records = RunLedger(str(ledger_path)).entries()
    assert len(records) == 1
    record = records[0]
    assert record["suite"] == "serve"
    assert record["timing"]["wall_s"] is None  # never a timing row
    assert record["serve"]["requests"] == 1
    assert record["serve"]["errors"] == 0


def test_shutdown_op_rejects_new_work(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    handle = ThreadedServer(server).start()
    try:
        with ServeClient(socket_path) as client:
            assert client.compile(suite_source("example1-8"),
                                  name="examples")["ok"]
            reply = client.shutdown()
            assert reply["ok"] and reply["draining"]
    finally:
        # The shutdown op drains asynchronously; stop() joins it.
        handle.stop()
    assert server._draining


def test_private_cache_tempdir_removed_on_shutdown(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    tempdir = server._cache_tempdir
    assert tempdir and os.path.isdir(tempdir)
    handle = ThreadedServer(server).start()
    try:
        with ServeClient(socket_path) as client:
            client.ping()
    finally:
        handle.stop()
    assert not os.path.exists(tempdir)


# ----------------------------------------------------------------------
# Suite sanity: the three serve-smoke suites exist
# ----------------------------------------------------------------------
def test_smoke_suites_are_real():
    for name in ("VALcc1", "LAI_Large", "SPECint"):
        assert name in SUITE_NAMES
