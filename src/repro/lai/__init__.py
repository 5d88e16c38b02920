"""LAI-like assembly front end (lexer + parser).

The paper's LAO tool "converts a program written in the Linear Assembly
Input (LAI) language into the final assembly language"; our dialect plays
the same role for this reproduction: benchmarks, figures and examples are
written as readable assembly text and parsed into the IR.

:func:`tokenize` returns its tokens as :class:`Token` named tuples
``(kind, text, line, column)``, made by one regular-expression pass
over the whole source; the parser reads the same fields from plain
tuples.  Any malformed input raises :class:`LaiSyntaxError` (a
:class:`ValueError`) with the line, column and text of the offending
token.
"""

from .lexer import LaiSyntaxError, Token, tokenize
from .parser import Parser, parse_function, parse_module

__all__ = ["LaiSyntaxError", "Token", "tokenize", "Parser",
           "parse_function", "parse_module"]
