"""Helpers shared by the three workloads: the pinned environment, memory
readings, the result record and the program generator."""

from __future__ import annotations

import os
import platform
import resource

#: Environment variables that would silently change what a workload
#: measures (a cache directory turns a cold compile warm, a job count
#: forks pools, a ledger writes files).  Every benchmark process clears
#: them and pins the interpreter tier.
CLEARED_ENV = ("REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_SALT",
               "REPRO_CACHE_LIMIT", "REPRO_METRICS", "REPRO_LEDGER")
PINNED_ENV = {"REPRO_INTERP": "compiled"}


def pin_environment(root: str) -> None:
    """Clear the ambient knobs, pin the interpreter tier and keep
    temporary files inside the checkout (child processes inherit it)."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    temporary = os.path.join(root, ".perfbench_run", "tmp")
    os.makedirs(temporary, exist_ok=True)
    os.environ["TMPDIR"] = temporary
    src = os.path.join(root, "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([src] + paths)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment_record(root: str) -> dict:
    """What a result must carry to be compared with another."""
    from repro.cache.key import code_version
    from repro.observability.ledger import git_rev

    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_rev": git_rev(root),
            "code_version": code_version(),
            "interp": os.environ.get("REPRO_INTERP")}


def roundtrips(text: str) -> bool:
    """Whether printed module text parses back and reprints identically."""
    from repro.ir.printer import format_module
    from repro.lai import LaiSyntaxError, parse_module

    try:
        return format_module(parse_module(text)) == text
    except LaiSyntaxError:
        return False


def compile_summary(service_s, functions: int, results) -> dict:
    """The end-to-end metrics of a serial compile workload.

    *service_s* holds each unit's compile time, *functions*
    counts the functions of those units and *results* holds one
    :class:`~repro.pipeline.ExperimentResult` per unit.  With no server
    to load, the open-loop metrics are fillers the result format asks
    for: the latencies are the compile latencies, and ``max_rps`` is
    the units per second one serial compiler sustains.
    """
    from repro.ir.printer import format_module
    from repro.serve.bench import percentile

    p50 = percentile(service_s, 50) * 1e3
    p90 = percentile(service_s, 90) * 1e3
    metrics = {
        "fn_per_s": functions / sum(service_s),
        "compile_p50_ms": p50, "compile_p90_ms": p90,
        "lat_p50_ms.low": p50, "lat_p90_ms.low": p90,
        "lat_p50_ms.high": p50, "lat_p90_ms.high": p90,
        "max_rps": len(service_s) / sum(service_s),
        "peak_rss_mb": peak_rss_mb(),
        "moves": sum(result.moves for result in results),
        "weighted_moves": sum(result.weighted for result in results),
    }
    ok = sum(roundtrips(format_module(result.module)) for result in results)
    metrics["roundtrip_ok_ratio"] = ok / len(results) if results else 0.0
    return metrics


#: Candidates drawn per generated program (see :func:`generate_program`).
CANDIDATES = 5


def weighted_size(source: str) -> int:
    """Instructions weighted by 5^loop depth, read off the generator's
    structured loops (``headN:`` opens one, ``exitN:`` closes it): the
    static twin of the paper's weighted move count."""
    depth = total = 0
    for line in source.splitlines():
        text = line.strip()
        if text.endswith(":"):
            if text.startswith("head"):
                depth += 1
            elif text.startswith("exit"):
                depth = max(0, depth - 1)
        elif text and not text.startswith(("func", "input")):
            total += 5 ** depth
    return total


def generate_program(seed: int, index: int, functions: int, profile: str,
                     name: str) -> tuple[int, str]:
    """The *index*-th generated program of a run: ``(seed, source)``.

    Draws ``CANDIDATES`` programs of the given profile and function
    count, ranks them by :func:`weighted_size` and keeps rank
    ``index % CANDIDATES``.  Each program is still a draw from the
    generator's own distribution (a uniformly chosen order statistic of
    independent draws is one more draw), but every run covers the
    small, middle and large ranks equally, so two seeds give runs of
    similar size and weighted move count.  Both ``corpus-cold`` and
    ``serve-mixed`` draw their programs here.
    """
    from repro.benchgen.synthetic import (derive_seed,
                                          generate_module_source,
                                          profile_config)

    config = profile_config(profile)
    candidates = []
    for candidate in range(CANDIDATES):
        program_seed = derive_seed(seed, index, candidate) % 10**9
        source = generate_module_source(program_seed, functions, config,
                                        name)
        candidates.append((weighted_size(source), candidate, program_seed,
                           source))
    candidates.sort()
    _, _, program_seed, source = candidates[index % CANDIDATES]
    return program_seed, source
