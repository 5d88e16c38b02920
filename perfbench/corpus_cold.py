"""Workload ``corpus-cold``: one-shot compiles, text in and text out.

Each program is seeded LAI text drawn across the seven fuzz generator
profiles with a spread of function counts; the timed unit is
``parse_module`` -> ``run_experiment(..., "Lphi,ABI+C")`` ->
``format_module`` with no verify and no cache, once per program, and
its time is divided by the host's speed factor (see :mod:`hostspeed`).
Program *i* always has the same profile and function count (a
stratified draw); the seed picks the program bodies (see
:func:`common.generate_program`).  After timing, every program's verify
runs are replayed on the input and on the output module.
"""

from __future__ import annotations

import gc
import time

EXPERIMENT = "Lphi,ABI+C"
#: Function counts cycled over the programs (mean 2.5).
FUNCTION_COUNTS = (1, 2, 3, 4)
#: Programs per second of ``--seconds`` (at least 100 programs, so the
#: p90 has ten samples beyond it).  The more programs, the less the
#: percentiles depend on the seed's draw.
PROGRAMS_PER_SECOND = 15
MIN_PROGRAMS = 100


def setup(seed: int, seconds: float) -> dict:
    from common import generate_program
    from repro.benchgen.synthetic import (FUZZ_PROFILES, profile_config,
                                          verify_runs)

    profiles = sorted(FUZZ_PROFILES)
    count = max(MIN_PROGRAMS, round(seconds * PROGRAMS_PER_SECOND))
    programs = []
    for index in range(count):
        functions = FUNCTION_COUNTS[index % len(FUNCTION_COUNTS)]
        profile = profiles[(index // len(FUNCTION_COUNTS)) % len(profiles)]
        name = f"p{index}"
        program_seed, source = generate_program(seed, index, functions,
                                                profile, name)
        programs.append({
            "name": name, "functions": functions, "profile": profile,
            "source": source,
            "verify": verify_runs(program_seed, functions,
                                  profile_config(profile), name)})
    return {"programs": programs}


def run(state: dict, recorder=None) -> dict:
    """Compile every program once, text in and text out."""
    import repro.ir.printer as printer
    import repro.lai as lai
    import repro.pipeline as pipeline

    from hostspeed import HostSpeed, pin_one_cpu
    from layers import add_analysis

    programs = state["programs"]
    speed = HostSpeed()
    service: list = [None] * len(programs)
    outputs: list = [None] * len(programs)
    failures: dict[str, str] = {}
    analysis: dict = {}
    pin_one_cpu()  # the speed samples must see the compiles' CPU
    wall = 0.0  # the timed units' seconds
    speed.sample()
    for index, program in enumerate(programs):
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
            module = lai.parse_module(program["source"],
                                      name=program["name"])
            result = pipeline.run_experiment(module, EXPERIMENT,
                                             jobs=1, cache=None)
            printer.format_module(result.module)
        except Exception as error:  # noqa: BLE001 -- counted, reported
            failures[program["name"]] = f"{type(error).__name__}: {error}"
            speed.sample()
            continue
        seconds = time.perf_counter() - begin
        wall += seconds
        service[index] = speed.normalize(seconds)
        add_analysis(analysis, result.analysis_cache)
        outputs[index] = (module, result)
    gc.unfreeze()
    return {"service": service, "outputs": outputs, "failures": failures,
            "wall": wall, "speed": speed.median(), "analysis": analysis,
            "attempted": len(programs)}


def evaluate(state: dict, raw: dict, root: str) -> dict:
    """Verify replay on input and output, then the metrics."""
    from common import compile_summary
    from repro.interp import InterpreterError, run_module

    failures = dict(raw["failures"])
    results, service, functions = [], [], 0
    for program, output, seconds in zip(state["programs"], raw["outputs"],
                                        raw["service"]):
        if output is None:
            continue
        module, result = output
        results.append(result)
        service.append(seconds)
        functions += program["functions"]
        for fn_name, args in program["verify"]:
            try:
                before = run_module(module, fn_name, args).observable()
                after = run_module(result.module, fn_name,
                                   args).observable()
            except InterpreterError as error:
                failures[program["name"]] = f"{fn_name}{args}: {error}"
                continue
            if before != after:
                failures[program["name"]] = \
                    f"{fn_name}{args}: {before} -> {after}"
    metrics = compile_summary(service, functions, results)
    return {"metrics": metrics, "attempted": raw["attempted"],
            "failures": failures, "notes": []}
