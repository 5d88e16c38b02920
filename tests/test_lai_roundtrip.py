"""Lexer/parser/printer tests, including full round-trips."""

import hashlib
import os

import pytest

from repro.benchgen import SUITE_NAMES, load_suite
from repro.benchgen.figures import ALL_FIGURES, fig2_illegal_source
from repro.benchgen.kernels import KERNELS
from repro.benchgen.synthetic import (FUZZ_PROFILES,
                                      generate_module_source,
                                      profile_config)
from repro.cache.key import function_fingerprint
from repro.ir import format_function, format_module
from repro.ir.types import Imm, PhysReg, Var
from repro.lai import LaiSyntaxError, parse_function, parse_module, tokenize


class TestLexer:
    def test_token_kinds(self):
        toks = list(tokenize("add x, $R0, 0x1F ; comment"))
        kinds = [t.kind for t in toks]
        assert kinds == ["IDENT", "IDENT", "PUNCT", "REG", "PUNCT",
                         "NUM", "NEWLINE", "EOF"]

    def test_comments_both_styles(self):
        toks = [t.kind for t in tokenize("x // foo\ny ; bar")]
        assert toks.count("IDENT") == 2

    def test_negative_and_hex_numbers(self):
        toks = [t for t in tokenize("make x, -5\nmake y, 0xFF")]
        nums = [t.text for t in toks if t.kind == "NUM"]
        assert nums == ["-5", "0xFF"]

    def test_bad_character(self):
        with pytest.raises(LaiSyntaxError):
            list(tokenize("add x, y @ z"))

    def test_arrow_token(self):
        toks = [t.text for t in tokenize("pcopy a <- b")]
        assert "<-" in toks


class TestParser:
    def test_minimal_function(self):
        f = parse_function("func f\nentry:\n    ret 1\nendfunc")
        assert f.name == "f"
        assert f.entry == "entry"

    def test_implicit_entry_label(self):
        f = parse_function("func f\n    ret\nendfunc")
        assert f.entry == "entry"

    def test_pins_parsed(self):
        f = parse_function("""
func f
entry:
    input C^R0, p^P1
    autoadd q^q, p^q, 1
    ret C^R0
endfunc
""")
        inp = f.entry_block.body[0]
        assert inp.defs[0].pin == PhysReg("R0")
        assert inp.defs[1].pin.name == "P1"
        auto = f.entry_block.body[1]
        assert auto.defs[0].pin == Var("q")
        assert auto.uses[0].pin == Var("q")

    def test_virtual_pin_vs_register_pin(self):
        f = parse_function("""
func f
entry:
    input a
    copy x^zz, a
    ret x
endfunc
""")
        copy = f.entry_block.body[1]
        assert isinstance(copy.defs[0].pin, Var)

    def test_unknown_register(self):
        with pytest.raises(LaiSyntaxError):
            parse_function("func f\nentry:\n    copy x, $R99\n    ret\nendfunc")

    def test_phi_syntax(self):
        f = parse_function("""
func f
entry:
    input a
    cbr a, l, r
l:
    make x, 1
    br j
r:
    make y, 2
    br j
j:
    z = phi(x:l, y:r)
    ret z
endfunc
""")
        phi = f.blocks["j"].phis[0]
        assert phi.attrs["incoming"] == ["l", "r"]

    def test_call_forms(self):
        m = parse_module("""
func main
entry:
    input a
    call g(a)
    call x = g(a)
    call y, z = h(a, 2)
    ret x
endfunc
""")
        calls = [i for i in m.function("main").instructions()
                 if i.opcode == "call"]
        assert [len(c.defs) for c in calls] == [0, 1, 2]
        assert calls[2].attrs["callee"] == "h"

    def test_load_store_offset(self):
        f = parse_function("""
func f
entry:
    input p
    store p, 3, #4
    load x, p, #4
    ret x
endfunc
""")
        st, ld = f.entry_block.body[1:3]
        assert st.attrs["offset"] == 4
        assert ld.attrs["offset"] == 4

    def test_cbr_same_targets_becomes_br(self):
        f = parse_function("""
func f
entry:
    input a
    cbr a, out, out
out:
    ret a
endfunc
""")
        assert f.entry_block.terminator.opcode == "br"

    def test_multiple_functions(self):
        m = parse_module("func a\n    ret\nendfunc\nfunc b\n    ret\nendfunc")
        assert set(m.functions) == {"a", "b"}

    def test_duplicate_function_rejected(self):
        with pytest.raises(ValueError):
            parse_module("func a\n    ret\nendfunc\nfunc a\n    ret\nendfunc")

    def test_unterminated_function(self):
        with pytest.raises(LaiSyntaxError):
            parse_function("func f\nentry:\n    ret")

    def test_psi_syntax(self):
        f = parse_function("""
func f
entry:
    input g1, g2, a, b
    x = psi(g1 ? a, g2 ? b)
    ret x
endfunc
""")
        psi = f.entry_block.body[1]
        assert psi.opcode == "psi"
        assert len(psi.psi_pairs()) == 2

    def test_pcopy_syntax(self):
        f = parse_function("""
func f
entry:
    input a, b
    pcopy a <- b, b <- a
    ret a, b
endfunc
""")
        pc = f.entry_block.body[1]
        assert pc.opcode == "pcopy"
        assert len(pc.defs) == 2


class TestRoundTrip:
    @pytest.mark.parametrize("name,src,_runs", KERNELS,
                             ids=[k[0] for k in KERNELS])
    def test_kernel_roundtrip(self, name, src, _runs):
        module = parse_module(src, name=name)
        text = format_module(module)
        again = parse_module(text, name=name)
        assert format_module(again) == text

    def test_pin_roundtrip(self):
        src = """
func f
entry:
    input C^R0, p_a^P0
    autoadd Q^Q, p_a^Q, 1
    ret C^R0
endfunc
"""
        f = parse_function(src)
        text = format_function(f)
        assert format_function(parse_function(text)) == text
        assert "^R0" in text and "^Q" in text


#: ``(case, source, (line, column, token))``: one row per error class.
#: Every malformed input raises :class:`LaiSyntaxError` anchored at the
#: offending token (the column is ``None`` only for the synthetic EOF).
DIAGNOSTICS = [
    ("bad character",
     "func f\nentry:\n    input a\n    add x, a @ a\n    ret x\nendfunc\n",
     (4, 14, "@")),
    ("bad character after CRLF line ends",
     "func f\r\nentry:\r\n    input a\r\n    add x, a @ a\r\n"
     "    ret x\r\nendfunc\r\n",
     (4, 14, "@")),
    ("unknown opcode",
     "func f\nentry:\n    input a\n    frob x, a\n    ret x\nendfunc\n",
     (4, 5, "frob")),
    ("unknown register",
     "func f\nentry:\n    input a\n    copy x, $R99\n    ret x\nendfunc\n",
     (4, 13, "R99")),
    ("bad pin target",
     "func f\nentry:\n    input a\n    copy x^5, a\n    ret x\nendfunc\n",
     (4, 12, "5")),
    ("missing endfunc",
     "func f\nentry:\n    input a\n    ret a\n",
     (4, None, "EOF")),
    ("expected token",
     "func f\nentry:\n    input a\n    cbr a, l r\nl:\n    ret a\n"
     "r:\n    ret a\nendfunc\n",
     (4, 14, "r")),
    ("bad integer literal",
     "func f\nentry:\n    make x, 01\n    ret x\nendfunc\n",
     (3, 13, "01")),
    ("pinned immediate",
     "func f\nentry:\n    copy x, 5^R0\n    ret x\nendfunc\n",
     (3, 14, "^")),
    ("duplicate block label",
     "func f\nentry:\n    input a\n    br b\nb:\n    br b\nb:\n"
     "    ret a\nendfunc\n",
     (7, 1, "b")),
    ("phi without assignment syntax",
     "func f\nentry:\n    input a\n    phi x, a, a\n    ret x\nendfunc\n",
     (4, 5, "phi")),
    ("duplicate function",
     "func f\n    ret\nendfunc\nfunc f\n    ret\nendfunc\n",
     (4, 6, "f")),
]


class TestDiagnostics:
    @pytest.mark.parametrize("source,where", [row[1:] for row in DIAGNOSTICS],
                             ids=[row[0] for row in DIAGNOSTICS])
    def test_error_location(self, source, where):
        with pytest.raises(LaiSyntaxError) as info:
            parse_module(source)
        error = info.value
        assert (error.line, error.column, error.token) == where
        line, column, _ = where
        prefix = f"line {line}" if column is None \
            else f"line {line}, col {column}"
        assert str(error).startswith(prefix + ": ")


def _golden_modules():
    """``(label, module)`` for every input the golden digest covers."""
    for suite in SUITE_NAMES:
        yield suite, load_suite(suite).module
    for name, source, _runs in KERNELS:
        yield f"kernel:{name}", parse_module(source, name=name)
    for name, factory in ALL_FIGURES.items():
        yield f"figure:{name}", factory()[0]
    yield "figure:fig2", parse_module(fig2_illegal_source())
    examples = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")
    for filename in sorted(os.listdir(examples)):
        if filename.endswith(".lai"):
            with open(os.path.join(examples, filename)) as handle:
                text = handle.read()
            yield f"example:{filename}", parse_module(text)
            # ``\r\n`` and ``\f`` end lines just like ``\n`` does.
            yield (f"example:{filename}:crlf",
                   parse_module(text.replace("\n", "\r\n")))
            yield (f"example:{filename}:ff",
                   parse_module(text.replace("\n", "\f")))
    for profile in FUZZ_PROFILES:
        config = profile_config(profile)
        for seed in range(3):
            source = generate_module_source(seed, 1 + seed, config,
                                            f"gen_{seed}")
            yield f"gen:{profile}:{seed}", parse_module(source)


#: sha256 over the cache fingerprint (printed text, register classes,
#: variable-vs-register pins, fresh-name counters) of every function of
#: :func:`_golden_modules`, as the reference parser produced them.
GOLDEN_IR_DIGEST = ("2f86133756320250d9dd43985f62b166"
                    "7951e95a04d8ebc218a77542e63e97e1")


class TestGoldenIR:
    def test_parsed_ir_matches_golden_digest(self):
        digest = hashlib.sha256()
        functions = 0
        for label, module in _golden_modules():
            for function in module.iter_functions():
                digest.update(f"{label}\0{function_fingerprint(function)}"
                              f"\0".encode())
                functions += 1
        assert functions > 100
        assert digest.hexdigest() == GOLDEN_IR_DIGEST
