"""Move-instruction metrics: the quantities the paper's tables report.

* :func:`count_moves` -- plain count of register-to-register ``copy``
  instructions (Tables 2, 3, 4);
* :func:`weighted_moves` -- each move weighted by ``5**d``, *d* the loop
  nesting depth of its block: "5^d is an arbitrary weight that
  corresponds to a static approximation where each loop would contain 5
  iterations" (Table 5);
* :func:`count_instructions` -- total instruction count, used by the
  compile-time-oriented reports;
* :func:`ir_measures` -- instructions, moves and φs of one function in
  a single walk (the per-phase measures of the stats document).

φ-instruction convention
------------------------
All metrics iterate the *same* instruction stream,
``block.instructions()`` (φs first, then the body), through one shared
:func:`functions_of` helper:

* :func:`count_instructions` **includes** φ-instructions -- a φ is an
  instruction the later phases must still lower;
* :func:`count_moves` / :func:`weighted_moves` **never count** φs -- a
  φ is not a ``copy`` (``instr.is_copy`` is false for it); only the
  materialized register-to-register moves the tables charge appear.

Every metric accepts a :class:`~repro.ir.function.Function`, a
:class:`~repro.ir.function.Module`, or any object exposing
``iter_functions()`` (duck-typed, no isinstance checks).
"""

from __future__ import annotations

from .analysis.loops import LoopForest
from .ir.function import Function, Module


def functions_of(item: Function | Module) -> tuple:
    """The functions of *item*: a Module-like (anything exposing
    ``iter_functions``) yields its functions, anything else is treated
    as a single function.  The shared entry point of every metric."""
    iter_functions = getattr(item, "iter_functions", None)
    if iter_functions is None:
        return (item,)
    return tuple(iter_functions())


def count_moves(item: Function | Module) -> int:
    """Number of register-to-register copies (immediates excluded).

    φ-instructions are iterated but never counted: ``is_copy`` holds
    only for materialized ``copy`` instructions.
    """
    return sum(sum(1 for instr in f.instructions() if instr.is_copy)
               for f in functions_of(item))


def weighted_moves(item: Function | Module, base: int = 5,
                   analyses=None) -> int:
    """Sum of ``base**depth`` over all move instructions (φs excluded,
    same convention as :func:`count_moves`).

    ``analyses`` optionally supplies an
    :class:`~repro.analysis.manager.AnalysisManager` whose cached loop
    forest (CFG-epoch keyed, so it survives the body rewrites of the
    late phases) is used instead of building a private one per function.
    """
    total = 0
    for function in functions_of(item):
        loops = analyses.loops(function) if analyses is not None \
            else LoopForest(function)
        for block in function.iter_blocks():
            weight = base ** loops.depth(block.label)
            for instr in block.instructions():
                if instr.is_copy:
                    total += weight
    return total


def count_instructions(item: Function | Module) -> int:
    """Total instruction count, φ-instructions **included** (every
    ``block.instructions()`` element counts exactly once)."""
    return sum(sum(1 for _ in f.instructions())
               for f in functions_of(item))


def count_phis(item: Function | Module) -> int:
    """Number of φ-instructions (the part of :func:`count_instructions`
    that :func:`count_moves` will never see)."""
    return sum(sum(len(block.phis) for block in f.iter_blocks())
               for f in functions_of(item))


def ir_measures(function: Function) -> dict[str, int]:
    """``{"instructions", "moves", "phis"}`` of one function in one walk:
    the values of :func:`count_instructions`, :func:`count_moves` and
    :func:`count_phis` (only bodies are scanned for moves, since a φ is
    never one)."""
    instructions = moves = phis = 0
    for block in function.blocks.values():
        phis += len(block.phis)
        instructions += len(block.body)
        for instr in block.body:
            # The opcode test first spares the property call on the
            # instructions that cannot be moves.
            if instr.opcode == "copy" and instr.is_copy:
                moves += 1
    return {"instructions": instructions + phis, "moves": moves,
            "phis": phis}


#: A simple latency model in the spirit of a single-issue DSP: moves and
#: simple ALU ops take one cycle, multiplies and memory two to three,
#: calls an arbitrary fixed overhead.  Used by :func:`static_cycles` to
#: give the tables a second, move-independent cost axis.
CYCLE_COSTS = {
    "copy": 1, "make": 1, "add": 1, "sub": 1, "and": 1, "or": 1,
    "xor": 1, "shl": 1, "shr": 1, "min": 1, "max": 1, "neg": 1,
    "not": 1, "cmpeq": 1, "cmpne": 1, "cmplt": 1, "cmple": 1,
    "cmpgt": 1, "cmpge": 1, "select": 1, "autoadd": 1, "more": 1,
    "mul": 2, "mac": 2, "div": 8, "rem": 8,
    "load": 3, "store": 1, "readsp": 1,
    "br": 1, "cbr": 1, "ret": 1, "input": 0, "call": 5,
    "phi": 0, "pcopy": 0, "psi": 1,
}


def static_cycles(item: Function | Module, base: int = 5,
                  analyses=None) -> int:
    """Sum of per-opcode cycle costs, weighted by ``base**depth``.

    The move-count tables answer "how many copies remain"; this metric
    answers "how much do they matter against everything else" -- a move
    removed from a depth-2 loop saves 25 weighted cycles, one removed
    from straight-line code saves 1.  ``analyses`` works as in
    :func:`weighted_moves`.
    """
    total = 0
    for function in functions_of(item):
        loops = analyses.loops(function) if analyses is not None \
            else LoopForest(function)
        for block in function.iter_blocks():
            weight = base ** loops.depth(block.label)
            for instr in block.instructions():
                total += CYCLE_COSTS.get(instr.opcode, 1) * weight
    return total
