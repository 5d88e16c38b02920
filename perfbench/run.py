"""The out-of-SSA compiler benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-tables --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same inputs untraced and then traced, and reports the
per-layer metrics.  Every metric is printed by name with its unit, the
environment record follows, and the last line is the JSON result.  See
perfbench/README.md for the metrics, the workloads and why they were
chosen.  Run from the root of a checkout: the compiler is imported from
its ``src/`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-tables", "corpus-cold", "serve-mixed")
SETUP_REPEATS = 3

#: End-to-end metrics in the JSON result: name -> unit.
END_TO_END = {
    "setup_s": "s", "fn_per_s": "1/s",
    "compile_p50_ms": "ms", "compile_p90_ms": "ms",
    "lat_p50_ms.low": "ms", "lat_p90_ms.low": "ms",
    "lat_p50_ms.high": "ms", "lat_p90_ms.high": "ms",
    "max_rps": "1/s", "roundtrip_ok_ratio": "ratio",
    "peak_rss_mb": "MiB", "moves": "count",
}
#: Printed with the end-to-end metrics but kept out of the JSON result.
#: Its metrics must never read 0 and must vary less across seeds than
#: their bounds: failures reach it through ``attempted`` and ``failed``,
#: the round-trip defect through ``roundtrip_ok_ratio``, and a few
#: deep-loop moves swing ``weighted_moves`` by over 25% between seeds
#: (paper-tables fails on any change of a weighted count).
REPORTED_ONLY = {"error_ratio": "ratio", "roundtrip_fail_ratio": "ratio",
                 "weighted_moves": "count"}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "lai.busy_ms": "ms", "printer.busy_ms": "ms", "ssa.self_ms": "ms",
    "constraints.self_ms": "ms", "pinning_coalescer.self_ms": "ms",
    "leung_george.self_ms": "ms", "chaitin.self_ms": "ms",
    "sreedhar.self_ms": "ms", "naive_abi.self_ms": "ms",
    "analysis.build_ms": "ms", "analysis.misses": "count",
    "analysis.hit_ratio": "ratio", "oracle.queries": "count",
    "oracle.hit_ratio": "ratio", "validate.self_ms": "ms",
    "validate.calls": "count", "metrics.self_ms": "ms",
    "interp.compile_ms": "ms", "interp.exec_ms": "ms",
    "interp.runs": "count", "pipeline.self_ms": "ms",
    "serve.server_p50_ms": "ms", "serve.transport_p50_ms": "ms",
    "serve.memo_hit_ratio": "ratio", "serve.dedup_hits": "count",
    "serve.batch_size_mean": "count", "serve.queue_depth_max": "count",
    "cache.hit_ratio": "ratio", "cache.stores": "count",
    "cache.bytes": "bytes", "parallel.respawns": "count",
    "trace.overhead_ratio": "ratio",
    "trace.residual_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name: str):
    import corpus_cold
    import paper_tables
    import serve_mixed

    return {"paper-tables": paper_tables, "corpus-cold": corpus_cold,
            "serve-mixed": serve_mixed}[name]


def probe_setup(args) -> float:
    """Median wall time of fresh processes that import the compiler and
    build this run's inputs (interpreter start included), each divided
    by the host's speed factor that process sampled around its work
    (see :mod:`hostspeed`)."""
    from statistics import median

    samples = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        factor = float(probe.stdout.split()[-1])
        samples.append((time.perf_counter() - begin) / factor)
    return median(samples)


def traced_run(workload, state) -> tuple[dict, dict]:
    """Untraced, then traced, over the same inputs; returns the traced
    run's evaluation and its per-layer metrics."""
    from layers import (PIPELINE_TARGETS, TEXT_TARGETS, SpanRecorder,
                        layer_metrics, self_times)

    untraced = workload.run(state)
    recorder = SpanRecorder()
    recorder.install(PIPELINE_TARGETS
                     + getattr(workload, "TRACE_TARGETS", TEXT_TARGETS))
    recorder.install_analysis()
    try:
        raw = workload.run(state, recorder)
    finally:
        recorder.uninstall()
    recorder.dump(os.path.join(ROOT, ".perfbench_run",
                               f"spans-{workload.__name__}.json"))
    raw["failures"] = {**untraced["failures"], **raw["failures"]}
    raw["spans"] = spans = recorder.spans
    evaluation = workload.evaluate(state, raw, ROOT)
    layers = {name: 0.0 for name in PER_LAYER}
    # Span times are raw seconds: divide by the traced run's speed
    # factor, like every time the benchmark reports.
    layers.update({name: value / raw["speed"]
                   if PER_LAYER[name] == "ms" else value
                   for name, value in layer_metrics(
                       spans, raw["analysis"]).items()})
    layers["trace.overhead_ratio"] = (raw["wall"] / raw["speed"]) \
        / (untraced["wall"] / untraced["speed"])
    _, roots = self_times(spans)
    layers["trace.residual_ratio"] = (raw["wall"] - roots / 1e9) \
        / raw["wall"]
    layers.update(evaluation.get("layers", {}))
    return evaluation, layers


def report(metrics: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        print(f"{name:28s} {value:14.4f} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no compiler sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.setup_probe:
        from hostspeed import HostSpeed, pin_one_cpu

        pin_one_cpu()
        speed = HostSpeed()
        speed.sample()
    from common import environment_record, pin_environment

    os.chdir(ROOT)  # the serve workload's socket path is relative
    pin_environment(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = load_workload(args.workload)
    if args.setup_probe:
        workload.setup(args.seed, args.seconds)
        print(speed.bracket())
        return 0

    setup_s = probe_setup(args) if args.trace == 0 else 0.0
    state = workload.setup(args.seed, args.seconds)
    if args.trace:
        evaluation, layers = traced_run(workload, state)
    else:
        evaluation = workload.evaluate(state, workload.run(state), ROOT)
    failures = evaluation["failures"]
    attempted = evaluation["attempted"]
    failed = min(len(failures), attempted)
    for unit, message in sorted(failures.items())[:20]:
        print(f"FAILED {unit}: {message}")
    for note in evaluation["notes"]:
        print(f"note: {note}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    metrics = dict(evaluation["metrics"])
    metrics["setup_s"] = setup_s + evaluation.get("setup_extra_s", 0.0)
    metrics["error_ratio"] = failed / attempted
    metrics["roundtrip_fail_ratio"] = 1.0 - metrics["roundtrip_ok_ratio"]
    if args.trace:
        report(metrics, REPORTED_ONLY)
        result_metrics = report(layers, PER_LAYER)
    else:
        result_metrics = report(metrics, END_TO_END)
        report(metrics, REPORTED_ONLY)
    print("environment " + json.dumps(environment_record(ROOT),
                                      sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
