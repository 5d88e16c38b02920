"""Tokenizer for the LAI-like assembly language.

The language is line-oriented: a NEWLINE token ends every line that
holds at least one token.  Comments start with ``;`` or ``//`` and run
to end of line.  Lines end where :meth:`str.splitlines` ends them
(``\\n``, ``\\r\\n``, ``\\r``, form feed and the other Unicode line
boundaries), and line numbers count them the same way.

Token kinds
-----------
``IDENT``   identifiers: opcodes, labels, variable names (``x``, ``x.3``)
``REG``     ``$R0``-style explicit physical register references (the
            token text is the name without ``$``)
``NUM``     integer literals, decimal or ``0x`` hexadecimal, may be signed
``PUNCT``   one of ``: , = ( ) ^ ? #`` and the arrow ``<-``
``NEWLINE`` end of a logical line
``EOF``     end of input (always the last token)

:func:`scan` reads the whole source in one ``re.finditer`` pass over a
single master pattern and returns plain ``(kind, text, line, column)``
tuples, which is what the parser reads; :func:`tokenize` returns the
same tokens as :class:`Token` named tuples.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class LaiSyntaxError(ValueError):
    """Lexical or syntactic error in LAI source.

    Carries a structured location so tooling (the fuzzing minimizer,
    generator round-trip checks, editors) can point at the offending
    source instead of re-parsing a bare message: ``line`` (1-based),
    ``column`` (1-based, ``None`` when unknown) and ``token`` (the
    offending token text, ``None`` when the error is not anchored to
    one token).  A :class:`ValueError`, like every other rejection of
    malformed input text.
    """

    def __init__(self, message: str, line: int,
                 column: "int | None" = None,
                 token: "str | None" = None) -> None:
        where = f"line {line}" if column is None \
            else f"line {line}, col {column}"
        detail = f"{where}: {message}"
        if token is not None and repr(token) not in message:
            detail += f" (at {token!r})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.token = token


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    #: 1-based source column of the token's first character (0 for the
    #: synthetic NEWLINE/EOF tokens, which have no source extent).
    column: int = 0

    def __repr__(self) -> str:
        return (f"Token({self.kind}, {self.text!r}, "
                f"line {self.line}, col {self.column})")


#: Every line boundary :meth:`str.splitlines` knows.
_EOL = "\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"
_NOT_EOL = "[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"

#: One alternative per outcome, the blanks before it folded into the
#: match; ``lastindex`` names the alternative that matched.  No two of
#: the first six can match at the same position, so their order only
#: sets the speed: the most frequent first.  The last one takes any
#: other character, so the matches tile the source (only blanks at its
#: very end match nothing).
_MASTER = re.compile(
    "[ \t]*(?:"
    r"([A-Za-z_][A-Za-z0-9_.]*)"                 # 1 identifier
    r"|(<-|[:,=()^?#])"                          # 2 punctuation
    r"|(-?0[xX][0-9a-fA-F]+|-?[0-9]+)"           # 3 number
    f"|({_EOL})"                                 # 4 line end
    r"|\$([A-Za-z][A-Za-z0-9]*)"                 # 5 register
    f"|(;{_NOT_EOL}*|//{_NOT_EOL}*)"             # 6 comment
    r"|([^ \t]))")                               # 7 anything else

#: Token kind of the first three alternatives of :data:`_MASTER`.
_KINDS = (None, "IDENT", "PUNCT", "NUM")


def scan(source: str) -> list[tuple]:
    """The tokens of *source* as plain ``(kind, text, line, column)``
    tuples: the fields of :class:`Token`, without the class.

    Raises :class:`LaiSyntaxError` at the first character no token can
    start with.
    """
    tokens: list = []
    append = tokens.append
    kinds = _KINDS
    line = 1
    base = -1  # offset of the current line's first character, minus 1
    for match in _MASTER.finditer(source):
        group = match.lastindex
        if group < 4:
            append((kinds[group], match.group(group), line,
                    match.start(group) - base))
        elif group == 4:
            if tokens and tokens[-1][2] == line:
                append(("NEWLINE", "", line, 0))
            line += 1
            base = match.end() - 1
        elif group == 5:  # the column of the ``$``
            append(("REG", match.group(5), line, match.start(5) - base - 1))
        elif group == 7:
            char = match.group(7)
            raise LaiSyntaxError(f"unexpected character {char!r}", line,
                                 column=match.start(7) - base, token=char)
    if tokens and tokens[-1][2] == line:
        append(("NEWLINE", "", line, 0))
    # ``splitlines`` counts a last line only if it holds any character.
    last = line if base + 1 < len(source) else max(1, line - 1)
    append(("EOF", "", last, 0))
    return tokens


def tokenize(source: str) -> list[Token]:
    """The tokens of *source*: NEWLINE between logical lines, then EOF."""
    return list(map(Token._make, scan(source)))
