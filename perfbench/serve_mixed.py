"""Workload ``serve-mixed``: the compile server's request path, in process.

A fresh :class:`repro.serve.server.CompileServer` with its own empty
cache directory runs inside the benchmark process, and the benchmark
feeds it request lines through ``handle_line``, the entry point its
socket transport calls.  Every request thus passes protocol decoding,
the response memo, the in-flight dedup, the batch queue and batch
thread, the per-function cache and the printer, as it does behind the
socket.  The server runs with ``--jobs 1`` (the serial batch path, no
worker pool), and the whole process is pinned to one CPU, because on
the 2-vCPU host this benchmark was built on a server process with pool
workers could not be timed steadily: its speed follows the state of
the CPUs its workers land on, which no sample taken from another
process tracked (see :mod:`hostspeed`).

The stream mixes, in every block of eight requests:

* 4 **new** programs (1-3 functions, drawn like ``corpus-cold``'s by
  :func:`common.generate_program`; they write the per-function cache),
* 2 **grown** programs: the first and third new programs of the
  previous block, each with two more functions (the shared prefix reads
  the cache, the rest writes it),
* 2 exact **repeats**: one of the first grown program, sent together
  with it (an in-flight dedup hit), and one of the block's second new
  program, long answered (a response-memo hit).

The requests go out in steps, closed loop: a step's requests are sent
together and the next step starts when all are answered.  The ``low``
phase sends one request per step (the dedup pair together); the
``high`` phase sends two per step, which the server batches.  The
host's speed is sampled before the first step and after each, and
every step's times are divided by its speed factor.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time

from layers import SERVE_TARGETS

#: What the traced run wraps: the serve path's layers (see layers.py).
TRACE_TARGETS = SERVE_TARGETS

EXPERIMENT = "Lphi,ABI+C"
NEW_FUNCTIONS = (1, 2, 3)
GROWN_EXTRA = 2
#: The two grown requests of a block extend the new programs this many
#: new programs back: the first and the third of the previous block.
GROWN_BASES = (8, 6)
#: Blocks per phase per second of ``--seconds`` (eight requests each).
BLOCKS_PER_SECOND = 2.0
MIN_BLOCKS = 20
#: How each phase groups a block's requests into steps, by position in
#: the block (0-3 new, 4 and 6 grown, 5 the dedup repeat of 4, 7 the
#: memo repeat of the block's new program 1).
STEPS = {"low": ((0,), (1,), (2,), (3,), (4, 5), (6,), (7,)),
         "high": ((0, 1), (2, 3), (4, 5), (6, 7))}
#: Every ``SAMPLE_EVERY``-th distinct program is compiled again with
#: ``run_experiment`` and byte-compared with the server's response.  A
#: block adds six distinct programs, and five is coprime with six, so
#: the sample takes every slot of the block in turn: grown programs,
#: whose responses merge per-function cache hits, are a third of it.
SAMPLE_EVERY = 5
#: Server starts timed per run (the median is part of the set-up time).
SERVER_STARTS = 3


def _grow(base: dict) -> dict:
    """*base*'s program with more functions: the generator derives
    function *i* from ``(seed, i)`` alone, so the prefix is unchanged."""
    from repro.benchgen.synthetic import (generate_module_source,
                                          profile_config)

    functions = base["functions"] + GROWN_EXTRA
    return {**base, "kind": "grown", "functions": functions,
            "source": generate_module_source(
                base["seed"], functions, profile_config(base["profile"]),
                base["name"])}


def _request(source: str, name: str) -> bytes:
    return (json.dumps({"op": "compile", "source": source,
                        "experiment": EXPERIMENT, "name": name},
                       separators=(",", ":")) + "\n").encode()


def setup(seed: int, seconds: float) -> dict:
    """The request stream, pre-encoded: ``steps[phase]`` lists each
    step's program indices."""
    from common import generate_program
    from repro.benchgen.synthetic import FUZZ_PROFILES

    profiles = sorted(FUZZ_PROFILES)
    blocks = max(MIN_BLOCKS, round(seconds * BLOCKS_PER_SECOND))
    programs: list[dict] = []   # distinct (source, name) pairs
    news: list[int] = []        # indices into programs of new ones

    def new() -> int:
        index = len(news)
        functions = NEW_FUNCTIONS[index % len(NEW_FUNCTIONS)]
        profile = profiles[(index // len(NEW_FUNCTIONS)) % len(profiles)]
        name = f"n{index}"
        program_seed, source = generate_program(seed, index, functions,
                                                profile, name)
        programs.append({"kind": "new", "seed": program_seed,
                         "name": name, "functions": functions,
                         "profile": profile, "source": source})
        news.append(len(programs) - 1)
        return news[-1]

    def grown(back: int) -> int:
        if len(news) < back:  # the first block: nothing to grow yet
            return new()
        programs.append(_grow(programs[news[-back]]))
        return len(programs) - 1

    steps: dict[str, list] = {}
    for phase, grouping in STEPS.items():
        steps[phase] = []
        for _ in range(blocks):
            block = [new() for _ in range(4)]
            block.append(grown(GROWN_BASES[0]))
            block.append(block[4])          # dedup: sent with it
            block.append(grown(GROWN_BASES[1]))
            block.append(block[1])          # memo: answered long ago
            steps[phase].extend([block[i] for i in step]
                                for step in grouping)
    for program in programs:
        program["payload"] = _request(program["source"], program["name"])
    # Two middle-rank programs (index % CANDIDATES == 2) with indices
    # the stream does not use.
    warmup = [generate_program(seed, index, 3, "default", f"w{i}")[1]
              for i, index in enumerate((-3, -8))]
    return {"programs": programs, "steps": steps,
            "warmup": [_request(source, f"w{i}")
                       for i, source in enumerate(warmup)]}


async def _serve(state: dict, run_dir: str, speed, timed: bool) -> dict:
    """Start a server, warm it up, play both phases (when *timed*) and
    shut it down; returns the start time and the answers."""
    from repro.serve.server import CompileServer

    cache_dir = os.path.join(run_dir, "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    speed.sample()
    begin = time.perf_counter()
    server = CompileServer(socket_path=os.path.join(run_dir, "serve.sock"),
                           jobs=1, cache=cache_dir)
    await server.start()
    try:
        for payload in state["warmup"]:
            response = await server.handle_line(payload)
            if not response.get("ok"):
                raise RuntimeError(
                    f"warm-up failed: {response.get('error')}")
        start_s = speed.normalize(time.perf_counter() - begin)
        if not timed:
            return {"start_s": start_s}
        programs = state["programs"]

        async def one(program: int) -> tuple:
            response = await server.handle_line(programs[program]["payload"])
            return response, time.perf_counter()

        answers, step_s, depth = [], {}, 0
        for phase, steps in state["steps"].items():
            step_s[phase] = []
            for step in steps:
                begin = time.perf_counter()
                tasks = [asyncio.ensure_future(one(p)) for p in step]
                if len(step) > 1:
                    await asyncio.sleep(0)  # let the requests queue up
                    depth = max(depth,
                                server.stats_document()["queue_depth"])
                done = await asyncio.gather(*tasks)
                factor = speed.bracket()
                step_s[phase].append(
                    (max(end for _, end in done) - begin) / factor)
                answers.extend({"program": program, "phase": phase,
                                "response": response,
                                "latency": (end - begin) / factor,
                                "factor": factor}
                               for program, (response, end)
                               in zip(step, done))
        return {"start_s": start_s, "answers": answers, "step_s": step_s,
                "stats": server.stats_document(), "queue_depth_max": depth}
    finally:
        await server.shutdown()
        shutil.rmtree(cache_dir, ignore_errors=True)


def run(state: dict, recorder=None) -> dict:
    """Time ``SERVER_STARTS - 1`` throwaway server starts (untraced run
    only), then a fresh server through both phases."""
    from statistics import median

    from hostspeed import HostSpeed, pin_one_cpu

    pin_one_cpu()  # the speed samples must see the server's CPU
    speed = HostSpeed()
    run_dir = os.path.join(".perfbench_run", f"serve-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        starts = [asyncio.run(_serve(state, run_dir, speed, False))
                  ["start_s"] for _ in range(
                      SERVER_STARTS - 1 if recorder is None else 0)]
        measured = asyncio.run(_serve(state, run_dir, speed, True))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    starts.append(measured["start_s"])
    answers = measured["answers"]
    failures = {}
    for index, answer in enumerate(answers):
        if not answer["response"].get("ok"):
            failures[f"{answer['phase']}#{index}"] = \
                answer["response"].get("error", "unknown error")
    compiled = _compiled(answers)
    return {"answers": answers, "failures": failures,
            "step_s": measured["step_s"], "stats": measured["stats"],
            "queue_depth_max": measured["queue_depth_max"],
            "start_s": median(starts),
            # Raw seconds of the requests the server compiled itself:
            # the same requests in every run of a seed, so traced and
            # untraced compare.
            "wall": sum(a["latency"] * a["factor"] for a in compiled),
            "speed": speed.median(),
            "analysis": _sum_blocks(compiled, "analysis_cache")}


def _compiled(answers: list) -> list:
    """Answers the server compiled itself (not memo, not dedup)."""
    return [a for a in answers
            if a["response"].get("ok") and not a["response"].get("memo")
            and not a["response"].get("deduped")]


def _sum_blocks(answers: list, block: str) -> dict:
    from layers import add_analysis

    totals: dict = {}
    for answer in answers:
        add_analysis(totals, answer["response"].get(block))
    return totals


def evaluate(state: dict, raw: dict, root: str) -> dict:
    """Byte-compare a sample against in-process compiles; metrics."""
    from common import peak_rss_mb, roundtrips
    from repro.ir.printer import format_module
    from repro.lai import parse_module
    from repro.pipeline import run_experiment
    from repro.serve.bench import percentile

    failures = dict(raw["failures"])
    answers = raw["answers"]
    programs = state["programs"]
    ok = [a for a in answers if a["response"].get("ok")]
    first: dict[int, dict] = {}
    for index, answer in enumerate(ok):
        original = first.setdefault(answer["program"], answer)
        if answer["response"]["module"] != original["response"]["module"]:
            failures[f"{answer['phase']}#{index}"] = \
                "repeat differs from the original"
    for program, answer in sorted(first.items()):
        if program % SAMPLE_EVERY:
            continue
        spec = programs[program]
        module = parse_module(spec["source"], name=spec["name"])
        result = run_experiment(module, EXPERIMENT, jobs=1, cache=None)
        if format_module(result.module) != answer["response"]["module"] \
                or result.moves != answer["response"]["moves"]:
            failures[f"{spec['kind']} {spec['name']}"] = \
                "serve response differs from the in-process compile"
    compiled = _compiled(answers)
    low = [a for a in ok if a["phase"] == "low"]
    high = [a for a in ok if a["phase"] == "high"]
    compile_s = [a["latency"] for a in compiled if a["phase"] == "low"]
    responses = [answer["response"] for answer in first.values()]
    metrics = {
        "fn_per_s": sum(programs[a["program"]]["functions"]
                        for a in compiled)
        / sum(a["latency"] for a in compiled),
        "compile_p50_ms": percentile(compile_s, 50) * 1e3,
        "compile_p90_ms": percentile(compile_s, 90) * 1e3,
        "lat_p50_ms.low": percentile([a["latency"] for a in low], 50) * 1e3,
        "lat_p90_ms.low": percentile([a["latency"] for a in low], 90) * 1e3,
        "lat_p50_ms.high": percentile([a["latency"] for a in high],
                                      50) * 1e3,
        "lat_p90_ms.high": percentile([a["latency"] for a in high],
                                      90) * 1e3,
        "max_rps": len(high) / sum(raw["step_s"]["high"]),
        "roundtrip_ok_ratio": sum(roundtrips(r["module"])
                                  for r in responses) / len(responses),
        "peak_rss_mb": peak_rss_mb(),
        "moves": sum(r["moves"] for r in responses),
        "weighted_moves": sum(r["weighted"] for r in responses),
    }
    return {"metrics": metrics, "attempted": len(answers),
            "failures": failures, "setup_extra_s": raw["start_s"],
            "layers": _serve_layers(raw, ok), "notes": []}


def _serve_layers(raw: dict, ok: list) -> dict:
    from layers import self_times
    from repro.serve.bench import percentile

    stats = raw["stats"]
    serve = stats.get("serve", {})
    cache = _sum_blocks(ok, "cache")
    looked_up = cache.get("hits", 0) + cache.get("misses", 0)
    ms = 1e3 / raw["speed"]  # seconds to reference milliseconds
    layers = {
        "serve.server_p50_ms": percentile(
            [a["response"]["wall_s"] for a in ok], 50) * ms,
        "serve.transport_p50_ms": percentile(
            [a["latency"] * a["factor"] - a["response"]["wall_s"]
             for a in ok], 50) * ms,
        "serve.memo_hit_ratio": sum(1 for a in ok if a["response"].get(
            "memo")) / len(ok),
        "serve.dedup_hits": sum(1 for a in ok if a["response"].get(
            "deduped")),
        "serve.batch_size_mean": serve.get("batched_requests", 0)
        / max(1, serve.get("batches", 0)),
        "serve.queue_depth_max": raw["queue_depth_max"],
        "cache.hit_ratio": cache.get("hits", 0) / looked_up
        if looked_up else 0.0,
        "cache.stores": cache.get("stores", 0),
        "cache.bytes": cache.get("bytes", 0),
        "parallel.respawns": (stats.get("pool") or {}).get("respawns", 0),
    }
    if raw.get("spans"):  # the traced run
        spans_by_layer, _ = self_times(raw["spans"])
        batch = spans_by_layer.get("serve.batch")
        if batch and batch["busy_ns"]:
            layers["trace.residual_ratio"] = batch["self_ns"] \
                / batch["busy_ns"]
    return layers
