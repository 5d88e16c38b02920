"""Workload ``paper-tables``: the paper's Tables 2-5 over its five suites.

Every Table 1 composition of Tables 2-4 plus the four Table 5 coalescer
variants, on each of the five suites, serially, with each suite's verify
runs replayed on the reference interpreter before and after.  The inputs
are fixed by the paper; the seed only shuffles the order the 70 cells
run in, and every cell runs once per pass.  Each result's move and
weighted-move counts are checked against ``expected_moves.json`` (see
the README for why that file, and not ``benchmarks/results``, is the
reference).

``python3 perfbench/paper_tables.py`` regenerates ``expected_moves.json``
from the working tree, for a change that alters move counts on purpose.
"""

from __future__ import annotations

import json
import os
import random
import gc
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_moves.json")

#: A run makes ``round(seconds / PASS_SECONDS)`` passes, at least two:
#: each cell keeps its fastest time, so a stall of the shared host
#: during one pass does not count.  Each time is divided by the host's
#: speed factor first (see :mod:`hostspeed`).
PASS_SECONDS = 10.0
MIN_PASSES = 2


def cells() -> list[tuple[str, str, str, str]]:
    """``(table, suite, label, experiment)`` in table order."""
    from repro.benchgen.suites import SUITE_NAMES
    from repro.pipeline import TABLE_EXPERIMENTS, table5_variants

    out = []
    for suite in SUITE_NAMES:
        for table, experiments in TABLE_EXPERIMENTS.items():
            out.extend((table, suite, name, name) for name in experiments)
        out.extend(("table5", suite, label, "Lphi,ABI+C")
                   for label in table5_variants())
    return out


def setup(seed: int, seconds: float) -> dict:
    from repro.benchgen.suites import all_suites

    suites = {suite.name: suite for suite in all_suites()}
    order = list(range(len(cells())))
    random.Random(seed).shuffle(order)
    return {"suites": suites, "cells": cells(), "order": order,
            "passes": max(MIN_PASSES, round(seconds / PASS_SECONDS))}


def run(state: dict, recorder=None) -> dict:
    """Time every cell, pass after pass; returns raw measurements."""
    import repro.pipeline as pipeline

    variants = pipeline.table5_variants()
    suites, table_cells = state["suites"], state["cells"]
    from hostspeed import HostSpeed, pin_one_cpu
    from layers import add_analysis

    speed = HostSpeed()
    service = [[] for _ in table_cells]
    results: dict[int, object] = {}
    failures: dict[str, str] = {}
    analysis: dict = {}
    pin_one_cpu()  # the speed samples must see the compiles' CPU
    wall = 0.0  # the timed units' seconds
    speed.sample()
    for _ in range(state["passes"]):
        for index in state["order"]:
            table, suite_name, label, experiment = table_cells[index]
            suite = suites[suite_name]
            options = variants[label] if table == "table5" else None
            if recorder is not None:
                recorder.set_unit(index)
            # Each unit starts right after a full collection, with all that
            # is alive frozen so that collections skip it: the unit pays for
            # the collections its own allocations trigger, whatever ran
            # before it.
            gc.collect()
            gc.freeze()
            begin = time.perf_counter()
            try:
                result = pipeline.run_experiment(
                    suite.module, experiment, options=options,
                    verify=suite.verify, jobs=1, cache=None)
            except Exception as error:  # noqa: BLE001 -- counted, reported
                failures[f"{suite_name} {table} {label}"] = \
                    f"{type(error).__name__}: {error}"
                speed.sample()
                continue
            seconds = time.perf_counter() - begin
            wall += seconds
            service[index].append(speed.normalize(seconds))
            add_analysis(analysis, result.analysis_cache)
            first = results.setdefault(index, result)
            if (result.moves, result.weighted) != (first.moves,
                                                   first.weighted):
                failures[f"{suite_name} {table} {label}"] = \
                    "counts differ from the first pass"
            del result  # a later pass's result is garbage from here
    gc.unfreeze()
    return {"service": service, "results": results, "failures": failures,
            "wall": wall, "speed": speed.median(), "analysis": analysis,
            "attempted": len(table_cells)}


def expected_counts() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def committed_agreement(root: str, state: dict, results: dict) -> tuple:
    """How many cells match ``benchmarks/results/table*.json`` (the
    counts committed with the paper tables), for the report only."""
    agree = total = 0
    for index, (table, suite, label, _) in enumerate(state["cells"]):
        path = os.path.join(root, "benchmarks", "results", f"{table}.json")
        try:
            with open(path) as handle:
                committed = json.load(handle).get(table, {})
        except (OSError, ValueError):
            continue
        result = results.get(index)
        value = committed.get(suite, {}).get(label)
        if result is None or value is None:
            continue
        total += 1
        measured = result.weighted if table == "table5" else result.moves
        agree += value == measured
    return agree, total


def evaluate(state: dict, raw: dict, root: str) -> dict:
    """Checks and metrics, outside the timed region."""
    from common import compile_summary

    expected = expected_counts()
    failures = dict(raw["failures"])
    results = raw["results"]
    for index, (table, suite, label, _) in enumerate(state["cells"]):
        result = results.get(index)
        if result is None:
            continue
        want = expected[table][suite][label]
        got = {"moves": result.moves, "weighted": result.weighted}
        if got != want:
            failures[f"{suite} {table} {label}"] = \
                f"counts {got} != expected {want}"
    agree, total = committed_agreement(root, state, results)
    # Each cell's fastest time.
    complete = [index for index, times in enumerate(raw["service"])
                if len(times) == state["passes"]]
    metrics = compile_summary(
        [min(raw["service"][index]) for index in complete],
        sum(len(state["suites"][state["cells"][index][1]].module.functions)
            for index in complete),
        [results[index] for index in complete])
    return {"metrics": metrics, "attempted": raw["attempted"],
            "failures": failures,
            "notes": [f"benchmarks/results/table{{2,3,4,5}}.json agree on "
                      f"{agree} of {total} cells (see perfbench/README.md)"]}


def main() -> None:
    """Regenerate ``expected_moves.json`` from the working tree."""
    import sys

    from common import pin_environment

    root = os.path.dirname(HERE)
    pin_environment(root)
    sys.path.insert(0, os.path.join(root, "src"))
    state = setup(0, PASS_SECONDS)
    state["passes"] = 1
    measured = run(state)
    if measured["failures"]:
        raise SystemExit("\n".join(f"{unit}: {message}" for unit, message
                                   in measured["failures"].items()))
    expected: dict = {}
    for index, (table, suite, label, _) in enumerate(state["cells"]):
        result = measured["results"][index]
        expected.setdefault(table, {}).setdefault(suite, {})[label] = {
            "moves": result.moves, "weighted": result.weighted}
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
