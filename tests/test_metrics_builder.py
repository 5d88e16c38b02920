"""Metrics, the programmatic builder, def-use chains, module plumbing."""

import pytest

from repro.analysis import DefUse, DominatorTree
from repro.benchgen.kernels import KERNELS
from repro.ir import FunctionBuilder, Imm, PhysReg, Var, validate_function
from repro.interp import run_function
from repro.lai import parse_function, parse_module
from repro.metrics import (count_instructions, count_moves, count_phis,
                           ir_measures, weighted_moves)
from repro.pipeline import run_experiment

from helpers import function_of


class TestMetrics:
    SRC = """
func f
entry:
    input a, n
    copy b, a
    make i, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, exit
body:
    copy b, a
    add i, i, 1
    br head
exit:
    copy r, b
    ret r
endfunc
"""

    def test_count_moves(self):
        assert count_moves(function_of(self.SRC)) == 3

    def test_weighted_moves_5_to_depth(self):
        # one copy at depth 0 (entry) + one at depth 1 (body) + one at 0
        assert weighted_moves(function_of(self.SRC)) == 1 + 5 + 1

    def test_weighted_custom_base(self):
        assert weighted_moves(function_of(self.SRC), base=2) == 1 + 2 + 1

    def test_immediate_copy_not_counted(self):
        f = function_of("""
func f
entry:
    copy a, 5
    ret a
endfunc
""")
        assert count_moves(f) == 0

    def test_count_instructions_and_phis(self):
        f = function_of("""
func f
entry:
    input a
    cbr a, l, r
l:
    br j
r:
    br j
j:
    x = phi(a:l, a:r)
    ret x
endfunc
""")
        assert count_phis(f) == 1
        assert count_instructions(f) == 6

    @pytest.mark.parametrize("name,src,_runs", KERNELS,
                             ids=[k[0] for k in KERNELS])
    def test_ir_measures_is_the_three_counts(self, name, src, _runs):
        """The one-walk measures equal the three separate counts on
        every kernel, before and after the pipeline."""
        module = parse_module(src, name=name)
        out = run_experiment(module, "Lphi,ABI+C").module
        for function in [*module.iter_functions(), *out.iter_functions()]:
            assert ir_measures(function) == {
                "instructions": count_instructions(function),
                "moves": count_moves(function),
                "phis": count_phis(function)}

    def test_module_aggregation(self):
        m = parse_module("""
func a
entry:
    input x
    copy y, x
    ret y
endfunc
func b
entry:
    input x
    copy y, x
    ret y
endfunc
""")
        assert count_moves(m) == 2


class TestBuilder:
    def test_straight_line(self):
        b = FunctionBuilder("axpy")
        b.block("entry")
        a, x, y = b.inputs("a", "x", "y")
        t = b.emit("mul", "t", a, x)
        r = b.emit("add", "r", t, y)
        b.ret(r)
        f = b.finish(ssa=True)
        assert run_function(f, [2, 3, 4]).results == (10,)

    def test_control_flow_and_phi(self):
        b = FunctionBuilder("sel")
        b.block("entry")
        c, x = b.inputs("c", "x")
        b.cbr(c, "l", "r")
        b.block("l")
        b.emit("add", "a", x, 1)
        b.br("j")
        b.block("r")
        b.emit("add", "bb", x, 2)
        b.br("j")
        b.block("j")
        b.phi("res", ("a", "l"), ("bb", "r"))
        b.ret("res")
        f = b.finish(ssa=True)
        assert run_function(f.copy(), [1, 10]).results == (11,)
        assert run_function(f.copy(), [0, 10]).results == (12,)

    def test_pins_via_tuples(self):
        b = FunctionBuilder("f")
        b.block("entry")
        b.inputs(("a", "R0"))
        b.ret(("a", "R0"))
        f = b.finish()
        assert f.input_instr.defs[0].pin == PhysReg("R0")

    def test_register_and_imm_operands(self):
        b = FunctionBuilder("f")
        b.block("entry")
        b.emit("readsp", "$SP")
        b.emit("add", "x", "$SP", 8)
        b.ret("x")
        f = b.finish()
        assert run_function(f, []).results == (0x7FF00000 + 8,)

    def test_memory_helpers(self):
        b = FunctionBuilder("f")
        b.block("entry")
        (p,) = b.inputs("p")
        b.store(p, 42, offset=1)
        b.load("v", p, offset=1)
        b.ret("v")
        f = b.finish()
        assert run_function(f, [100]).results == (42,)

    def test_call_helper(self):
        b = FunctionBuilder("main")
        b.block("entry")
        (a,) = b.inputs("a")
        b.call("ext", ["r"], [a, 3])
        b.ret("r")
        f = b.finish()
        trace = run_function(f, [5], externals={"ext": lambda x, y: x * y})
        assert trace.results == (15,)


class TestDefUse:
    SRC = """
func f
entry:
    input a
    add x, a, 1
    cbr a, l, r
l:
    add y, x, 2
    br j
r:
    br j
j:
    z = phi(y:l, x:r)
    ret z
endfunc
"""

    def test_def_sites(self):
        f = function_of(self.SRC)
        du = DefUse(f)
        assert du.def_block(Var("x")) == "entry"
        assert du.def_block(Var("z")) == "j"
        assert du.def_site(Var("z")).position == -1
        assert du.def_site(Var("z")).is_phi

    def test_use_sites(self):
        f = function_of(self.SRC)
        du = DefUse(f)
        uses = du.use_sites(Var("x"))
        assert len(uses) == 2  # add y and phi arg

    def test_def_dominates(self):
        f = function_of(self.SRC)
        du = DefUse(f)
        tree = DominatorTree(f)
        assert du.def_dominates(Var("a"), Var("x"), tree)
        assert du.def_dominates(Var("x"), Var("y"), tree)
        assert not du.def_dominates(Var("y"), Var("x"), tree)
        # phi def (position -1) precedes body defs of its block
        assert du.def_dominates(Var("z"), Var("z"), tree) is False

    def test_requires_ssa(self):
        f = function_of("""
func f
entry:
    input a
    add x, a, 1
    add x, a, 2
    ret x
endfunc
""")
        with pytest.raises(ValueError, match="SSA"):
            DefUse(f)
