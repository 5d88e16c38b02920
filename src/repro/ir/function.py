"""Functions and modules of the machine-level IR.

A :class:`Function` owns an ordered mapping of labels to
:class:`~repro.ir.basicblock.BasicBlock` and knows its entry label.  The
entry block must begin with an ``input`` pseudo-instruction whose defs are
the formal parameters -- mirroring the paper's ``.input C^R0, P^P0``
notation (Figure 1).  Returns are ``ret`` instructions whose uses are the
``.output`` values.

A :class:`Module` is a named collection of functions plus optional
*external* functions implemented as Python callables (used by the
interpreter for intrinsics in examples and tests).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .basicblock import BasicBlock
from .instructions import Instruction, Operand
from .types import PhysReg, RegClass, Var


class Function:
    """A single IR function: CFG, parameters and name supply."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        self._temp_counter = 0
        self._label_counter = 0
        #: Mutation epochs, the cheap invalidation signal consumed by
        #: :class:`repro.analysis.manager.AnalysisManager`.  ``epoch``
        #: advances on *any* IR mutation, ``cfg_epoch`` only when the
        #: block/edge structure changes (CFG-only analyses such as the
        #: dominator tree survive body-level rewrites).  Passes bump the
        #: counters after mutating; attaching or clearing operand *pins*
        #: is explicitly not a mutation -- no analysis reads pins.
        self.epoch = 0
        self.cfg_epoch = 0
        #: Lazily filled ``[cfg_epoch, predecessors_map, reverse_postorder]``
        #: consulted by :mod:`repro.ir.cfg`; the queries are pure, so one
        #: computation per CFG shape serves every pass.  Never read this
        #: directly -- go through the :mod:`repro.ir.cfg` functions.
        self._cfg_cache: Optional[list] = None

    # ------------------------------------------------------------------
    # Mutation epochs
    # ------------------------------------------------------------------
    def bump_epoch(self) -> None:
        """Record an instruction-level mutation (bodies/phis/operands
        changed, CFG shape intact)."""
        self.epoch += 1

    def bump_cfg_epoch(self) -> None:
        """Record a structural mutation (blocks or edges changed);
        implies :meth:`bump_epoch`."""
        self.epoch += 1
        self.cfg_epoch += 1
        self._cfg_cache = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry is None:
            self.entry = label
        # Builders add blocks without epoch discipline (nothing is
        # "mutated" while a function is first assembled): drop the CFG
        # cache directly so queries interleaved with construction stay
        # exact even at an unchanged epoch.
        self._cfg_cache = None
        return block

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    @property
    def entry_block(self) -> BasicBlock:
        assert self.entry is not None, "function has no entry block"
        return self.blocks[self.entry]

    def iter_blocks(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions()

    # ------------------------------------------------------------------
    # Parameters / results
    # ------------------------------------------------------------------
    @property
    def input_instr(self) -> Optional[Instruction]:
        entry = self.entry_block
        for instr in entry.body:
            if instr.opcode == "input":
                return instr
        return None

    def params(self) -> list[Operand]:
        instr = self.input_instr
        return list(instr.defs) if instr is not None else []

    def return_instrs(self) -> list[Instruction]:
        return [instr for block in self.iter_blocks()
                for instr in block.body if instr.opcode == "ret"]

    # ------------------------------------------------------------------
    # Name supply
    # ------------------------------------------------------------------
    def new_var(self, base: str = "t",
                regclass: RegClass = RegClass.GPR,
                origin: Optional[PhysReg] = None) -> Var:
        """Create a fresh variable named ``base.N<k>``.

        Freshness is guaranteed by a per-function monotonically increasing
        counter.  The LAI lexer accepts such names (printed outputs
        contain them and must parse back), so user-written names should
        avoid ``.N<digits>`` suffixes: one could collide with a later
        fresh name.  Parsing does not advance the counter.
        """
        self._temp_counter += 1
        return Var(f"{base}.N{self._temp_counter}", regclass, origin)

    def new_label(self, base: str = "bb") -> str:
        while True:
            self._label_counter += 1
            label = f"{base}.L{self._label_counter}"
            if label not in self.blocks:
                return label

    def variables(self) -> set[Var]:
        """All variables occurring in the function."""
        result: set[Var] = set()
        for instr in self.instructions():
            for op in instr.operands():
                if isinstance(op.value, Var):
                    result.add(op.value)
        return result

    # ------------------------------------------------------------------
    def copy(self) -> "Function":
        """Deep copy -- used by the pipeline driver so each experiment
        transforms its own clone of the input program."""
        clone = Function(self.name)
        for label, block in self.blocks.items():
            new_block = clone.add_block(label)
            new_block.phis = [instr.copy() for instr in block.phis]
            new_block.body = [instr.copy() for instr in block.body]
        clone.entry = self.entry
        clone._temp_counter = self._temp_counter
        clone._label_counter = self._label_counter
        return clone

    def __getstate__(self) -> dict:
        # The CFG cache is cheap to recompute and would only bloat the
        # parallel driver's result payloads: don't ship it.
        state = self.__dict__.copy()
        state["_cfg_cache"] = None
        return state

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.blocks)} blocks>"


class Module:
    """A collection of functions; call instructions resolve by name."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.externals: dict[str, object] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def add_external(self, name: str, fn: object) -> None:
        """Register a Python callable as an external function.

        The callable receives the argument integers and returns a tuple of
        result integers (or a single int).
        """
        self.externals[name] = fn

    def function(self, name: str) -> Function:
        return self.functions[name]

    def iter_functions(self) -> Iterable[Function]:
        return self.functions.values()

    def copy(self) -> "Module":
        clone = Module(self.name)
        for function in self.functions.values():
            clone.add_function(function.copy())
        clone.externals = dict(self.externals)
        return clone

    def __repr__(self) -> str:
        return f"<Module {self.name}: {len(self.functions)} functions>"
