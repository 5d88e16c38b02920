"""Recursive-descent parser for the LAI-like assembly language.

Accepts the exact syntax :mod:`repro.ir.printer` emits, so IR round-trips
through text.  Typical input:

.. code-block:: text

    func fig1
    entry:
        input C^R0, P^P0
        load A, P
        autoadd Q^Q, P^Q, 1
        load B, Q
        call D^R0 = f(A^R0, B^R1)
        add E, C, D
        make L, 0x00A1
        more K^K, L^K, 0x2BFA
        sub F, E, K
        ret F^R0
    endfunc

Pin resolution: in pin position (after ``^``), a name that matches a
register of the target (``R0``, ``P3``, ``SP``...) denotes that physical
register, anything else denotes a *virtual resource* (a variable).  In
operand position, physical registers must be written ``$R0`` to keep
them visually distinct from variables.
"""

from __future__ import annotations

from ..ir.function import Function, Module
from ..ir.instructions import OPCODES, Instruction, Operand
from ..ir.types import Imm, RegClass, Var
from ..machine.st120 import ST120
from ..machine.target import Target
from .lexer import LaiSyntaxError, scan

#: Opcodes with a syntax of their own.
_SPECIAL = frozenset(("call", "pcopy", "br", "cbr", "ret", "input"))
#: Def count of every other opcode but ``phi``: these take a plain
#: operand list (defs first) and an optional ``#offset``.
_PLAIN = {name: spec.n_defs or 0 for name, spec in OPCODES.items()
          if name not in _SPECIAL and name != "phi"}


class Parser:
    """One pass over the token list of one source text.

    The methods take the index of the token to start at and return the
    index after what they parsed; tokens are ``(kind, text, line,
    column)`` tuples (:func:`~repro.lai.lexer.scan`).  Only PUNCT
    tokens have punctuation as text, so a punctuation check compares
    the text alone.  Every method reads a token only after the token
    before it proved not to be EOF, the last one, so no index runs off
    the list.  Operands are built without a def/use flag: the
    :class:`~repro.ir.instructions.Instruction` they land in sets it.
    """

    def __init__(self, source: str, target: Target = ST120) -> None:
        self.tokens = scan(source)
        self.target = target
        self._registers = target.registers
        self._vars: dict[str, Var] = {}
        #: The first ``phi`` written as a plain mnemonic: an operand
        #: list carries no incoming labels, so only ``x = phi(v:label,
        #: ...)`` makes a phi.  Reported once the whole module parsed,
        #: so that any other syntax error in it comes first.
        self._phi_mnemonic: "tuple | None" = None

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------
    def _error(self, message: str, token: tuple) -> LaiSyntaxError:
        """A syntax error anchored at *token* (line, column, text)."""
        kind, text, line, column = token
        return LaiSyntaxError(message, line, column=column or None,
                              token=text or kind)

    def _expected(self, want: str, token: tuple) -> LaiSyntaxError:
        return self._error(f"expected {want!r}, found {token[1]!r}", token)

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def _var(self, name: str) -> Var:
        regclass = RegClass.PTR if name.startswith(("p_", "ptr_")) \
            else RegClass.GPR
        var = self._vars[name] = Var(name, regclass)
        return var

    def _reg(self, token: tuple):
        reg = self._registers.get(token[1])
        if reg is None:
            raise self._error(f"unknown register {token[1]!r}", token)
        return reg

    def _int(self, token: tuple) -> int:
        try:
            return int(token[1], 0)
        except ValueError:
            raise self._error(f"invalid integer literal {token[1]!r}",
                              token) from None

    def _operand(self, i: int) -> tuple:
        """``value`` or ``value^pin`` at token *i*: ``(Operand, next)``."""
        tokens = self.tokens
        token = tokens[i]
        kind = token[0]
        if kind == "IDENT":
            value = self._vars.get(token[1]) or self._var(token[1])
        elif kind == "NUM":
            value = Imm(self._int(token))
        elif kind == "REG":
            value = self._reg(token)
        else:
            raise self._error(f"expected operand, found {token[1]!r}",
                              token)
        if tokens[i + 1][1] != "^":
            return Operand(value), i + 1
        token = tokens[i + 2]
        kind = token[0]
        if kind == "IDENT":
            pin = self._registers.get(token[1]) or \
                self._vars.get(token[1]) or self._var(token[1])
        elif kind == "REG":
            pin = self._reg(token)
        else:
            raise self._error(f"expected pin target, found {token[1]!r}",
                              token)
        if value.__class__ is Imm:
            raise self._error("an immediate operand cannot be pinned",
                              tokens[i + 1])
        return Operand(value, pin), i + 3

    def _operands(self, i: int) -> tuple:
        """``operand (, operand)*`` at token *i*: ``(list, next)``."""
        tokens = self.tokens
        operand, i = self._operand(i)
        operands = [operand]
        while tokens[i][1] == ",":
            operand, i = self._operand(i + 1)
            operands.append(operand)
        return operands, i

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_module(self, name: str = "module") -> Module:
        tokens = self.tokens
        module = Module(name)
        i = 0
        while tokens[i][0] == "NEWLINE":
            i += 1
        while tokens[i][0] != "EOF":
            i = self._function(module, i)
            while tokens[i][0] == "NEWLINE":
                i += 1
        if self._phi_mnemonic is not None:
            raise self._error("phi takes assignment syntax "
                              "'x = phi(v:label, ...)'", self._phi_mnemonic)
        return module

    def _function(self, module: Module, i: int) -> int:
        """``func NAME`` ... ``endfunc`` at token *i*, added to *module*."""
        tokens = self.tokens
        token = tokens[i]
        if token[0] != "IDENT" or token[1] != "func":
            raise self._expected("func", token)
        name_token = tokens[i + 1]
        if name_token[0] != "IDENT":
            raise self._expected("IDENT", name_token)
        token = tokens[i + 2]
        if token[0] != "NEWLINE":
            raise self._expected("NEWLINE", token)
        i += 3
        function = Function(name_token[1])
        self._vars = {}
        blocks = function.blocks
        current = None
        while tokens[i][0] == "NEWLINE":
            i += 1
        while True:
            token = tokens[i]
            kind = token[0]
            if kind == "IDENT":
                text = token[1]
                if text == "endfunc":
                    i += 1
                    if tokens[i][0] == "NEWLINE":
                        i += 1
                    break
                if tokens[i + 1][1] == ":":  # a label
                    if text in blocks:
                        raise self._error(
                            f"duplicate block label {text!r}", token)
                    current = function.add_block(text)
                    i += 2
                    if tokens[i][0] == "NEWLINE":
                        i += 1
                    continue
            elif kind == "EOF":
                raise self._error(
                    f"unterminated function {function.name!r} "
                    f"(missing 'endfunc')", token)
            if current is None:
                current = function.add_block("entry")
            instruction, i = self._instruction(i)
            current.append(instruction)
            token = tokens[i]
            if token[0] != "NEWLINE":
                raise self._expected("NEWLINE", token)
            i += 1
            while tokens[i][0] == "NEWLINE":
                i += 1
        # Checked once the body parsed, so an error inside the body is
        # the one reported.
        if function.name in module.functions:
            raise self._error(f"duplicate function {function.name!r}",
                              name_token)
        module.add_function(function)
        return i

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------
    def _instruction(self, i: int) -> tuple:
        """One instruction at token *i*: ``(Instruction, next)``."""
        tokens = self.tokens
        token = tokens[i]
        op = token[1]
        if token[0] != "IDENT":
            raise self._expected("IDENT", token)
        n_defs = _PLAIN.get(op)
        if n_defs is None:
            if op in _SPECIAL:
                return self._special(op, i + 1)
            if op != "phi":
                # "x = phi(...)" / "x = psi(...)" / "x^r = phi(...)"
                if tokens[i + 1][1] in ("=", "^"):
                    return self._assignment(i)
                # Not assignment syntax: a mistyped mnemonic, reported
                # as such instead of a puzzling "expected '='".
                raise self._error(f"unknown opcode {op!r}", token)
            if self._phi_mnemonic is None:
                self._phi_mnemonic = token
            n_defs = 1
        i += 1
        operands = []
        offset = 0
        if tokens[i][0] != "NEWLINE":
            operand, i = self._operand(i)
            operands.append(operand)
            while tokens[i][1] == ",":
                i += 1
                if tokens[i][1] == "#":
                    token = tokens[i + 1]
                    if token[0] != "NUM":
                        raise self._expected("NUM", token)
                    offset = self._int(token)
                    i += 2
                    break
                operand, i = self._operand(i)
                operands.append(operand)
        return Instruction(op, operands[:n_defs], operands[n_defs:],
                           {"offset": offset} if offset else None), i

    def _special(self, op: str, i: int) -> tuple:
        """The operands of *op* (one of :data:`_SPECIAL`) at token *i*."""
        tokens = self.tokens
        if op == "br":
            token = tokens[i]
            if token[0] != "IDENT":
                raise self._expected("IDENT", token)
            return Instruction("br", attrs={"targets": [token[1]]}), i + 1
        if op == "cbr":
            cond, i = self._operand(i)
            targets = []
            for _ in range(2):
                token = tokens[i]
                if token[1] != ",":
                    raise self._expected(",", token)
                token = tokens[i + 1]
                if token[0] != "IDENT":
                    raise self._expected("IDENT", token)
                targets.append(token[1])
                i += 2
            if targets[0] == targets[1]:
                return Instruction("br", attrs={"targets": targets[:1]}), i
            return Instruction("cbr", uses=[cond],
                               attrs={"targets": targets}), i
        if op == "ret":
            if tokens[i][0] == "NEWLINE":
                return Instruction("ret"), i
            uses, i = self._operands(i)
            return Instruction("ret", uses=uses), i
        if op == "input":
            defs, i = self._operands(i)
            return Instruction("input", defs=defs), i
        if op == "call":
            return self._call(i)
        return self._pcopy(i)

    def _assignment(self, i: int) -> tuple:
        tokens = self.tokens
        dest, i = self._operand(i)
        token = tokens[i]
        if token[1] != "=":
            raise self._expected("=", token)
        op_token = tokens[i + 1]
        if op_token[0] != "IDENT":
            raise self._expected("IDENT", op_token)
        op = op_token[1]
        if op != "phi" and op != "psi":
            raise self._error(
                f"only phi/psi use assignment syntax, found {op!r}",
                op_token)
        token = tokens[i + 2]
        if token[1] != "(":
            raise self._expected("(", token)
        i += 3
        # phi: ``value:label`` pairs; psi: ``guard ? value`` pairs.
        labels: list[str] = []
        uses: list[Operand] = []
        while True:
            use, i = self._operand(i)
            uses.append(use)
            token = tokens[i]
            if op == "phi":
                if token[1] != ":":
                    raise self._expected(":", token)
                token = tokens[i + 1]
                if token[0] != "IDENT":
                    raise self._expected("IDENT", token)
                labels.append(token[1])
                i += 2
            else:
                if token[1] != "?":
                    raise self._expected("?", token)
                use, i = self._operand(i + 1)
                uses.append(use)
            if tokens[i][1] != ",":
                break
            i += 1
        token = tokens[i]
        if token[1] != ")":
            raise self._expected(")", token)
        if op == "phi":
            return Instruction("phi", [dest], uses,
                               {"incoming": labels}), i + 1
        return Instruction("psi", [dest], uses), i + 1

    def _call(self, i: int) -> tuple:
        # Forms:  call f(a, b)          no results
        #         call d = f(a, b)      one result
        #         call d, e = f(a)      several results
        # Results may be physical registers (``call $R0 = f(...)``, as
        # the printer writes ABI-constrained calls).
        tokens = self.tokens
        token = tokens[i]
        if token[0] != "IDENT" and token[0] != "REG":
            raise self._error(
                "malformed call: expected callee or result list", token)
        defs: list[Operand] = []
        if token[0] == "IDENT" and tokens[i + 1][1] == "(":
            callee = token[1]
            i += 1
        else:
            defs, i = self._operands(i)
            token = tokens[i]
            if token[1] != "=":
                raise self._expected("=", token)
            token = tokens[i + 1]
            if token[0] != "IDENT":
                raise self._expected("IDENT", token)
            callee = token[1]
            i += 2
        token = tokens[i]
        if token[1] != "(":
            raise self._expected("(", token)
        i += 1
        uses: list[Operand] = []
        if tokens[i][1] != ")":
            uses, i = self._operands(i)
            token = tokens[i]
            if token[1] != ")":
                raise self._expected(")", token)
        return Instruction("call", defs, uses, {"callee": callee}), i + 1

    def _pcopy(self, i: int) -> tuple:
        tokens = self.tokens
        defs: list[Operand] = []
        uses: list[Operand] = []
        while True:
            dest, i = self._operand(i)
            token = tokens[i]
            if token[1] != "<-":
                raise self._expected("<-", token)
            src, i = self._operand(i + 1)
            defs.append(dest)
            uses.append(src)
            if tokens[i][1] != ",":
                break
            i += 1
        return Instruction("pcopy", defs, uses), i


def parse_module(source: str, name: str = "module",
                 target: Target = ST120) -> Module:
    """Parse LAI source text into a :class:`~repro.ir.function.Module`."""
    return Parser(source, target).parse_module(name)


def parse_function(source: str, target: Target = ST120) -> Function:
    """Parse LAI source containing exactly one function."""
    module = parse_module(source, target=target)
    functions = list(module.iter_functions())
    if len(functions) != 1:
        raise LaiSyntaxError(
            f"expected exactly one function, found {len(functions)}", 0)
    return functions[0]
