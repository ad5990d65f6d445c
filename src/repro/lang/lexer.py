"""Hand-rolled lexer for MiniJava.

The calibration notes flag ``javalang`` as too weak for reliable analysis, so
the front end is written from scratch.  The lexer is a single-pass scanner
producing :class:`~repro.lang.tokens.Token` objects; it supports ``//`` and
``/* */`` comments, decimal integer and floating point literals, and
double-quoted strings with the usual escape sequences.  Character classes
are ``str.isdigit``/``isalpha``/``isalnum`` (so ``²`` lexes as a digit),
comments and string bodies are skipped with ``str.find``, and a backslash
before a real newline inside a string continues the string on the next
line.
"""

from __future__ import annotations

from .errors import LexError
from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\"}
_TWO_CHAR_OPERATORS = dict(MULTI_CHAR_OPERATORS)


class Lexer:
    """Tokenises MiniJava source text."""

    def __init__(self, source: str):
        self._source = source

    def tokenize(self) -> list[Token]:
        """Return the full token stream, terminated by an EOF token.

        One loop over a local index.  ``line_start`` is the index just past
        the last newline, so a token's column is ``pos - line_start + 1``.
        """
        src = self._source
        n = len(src)
        pos = 0
        line = 1
        line_start = 0
        tokens: list[Token] = []
        append = tokens.append
        while pos < n:
            char = src[pos]
            if char in " \t\r":
                pos += 1
                continue
            if char == "\n":
                pos += 1
                line += 1
                line_start = pos
                continue
            column = pos - line_start + 1
            if char == "/" and pos + 1 < n and src[pos + 1] in "/*":
                if src[pos + 1] == "/":
                    end = src.find("\n", pos)
                    pos = n if end < 0 else end
                    continue
                end = src.find("*/", pos + 2)
                stop = n if end < 0 else end + 2
                newlines = src.count("\n", pos, stop)
                if newlines:
                    line += newlines
                    line_start = src.rfind("\n", pos, stop) + 1
                if end < 0:
                    raise LexError("unterminated block comment", line, n - line_start + 1)
                pos = stop
                continue
            if char.isdigit():
                end = pos + 1
                while end < n and src[end].isdigit():
                    end += 1
                token_type = TokenType.INT
                if end + 1 < n and src[end] == "." and src[end + 1].isdigit():
                    token_type = TokenType.FLOAT
                    end += 2
                    while end < n and src[end].isdigit():
                        end += 1
                append(Token(token_type, src[pos:end], line, column))
                pos = end
            elif char.isalpha() or char == "_":
                end = pos + 1
                while end < n and (src[end].isalnum() or src[end] == "_"):
                    end += 1
                text = src[pos:end]
                append(Token(KEYWORDS.get(text, TokenType.IDENT), text, line, column))
                pos = end
            elif char == '"':
                start_line = line
                parts = []
                end = pos + 1
                while True:
                    quote = src.find('"', end)
                    stop = n if quote < 0 else quote
                    escape = src.find("\\", end, stop)
                    newline = src.find("\n", end, stop if escape < 0 else escape)
                    if newline >= 0 or (quote < 0 and escape < 0):
                        raise LexError("unterminated string literal", start_line, column)
                    if escape < 0:
                        parts.append(src[end:quote])
                        break
                    parts.append(src[end:escape])
                    escaped = src[escape + 1 : escape + 2]
                    parts.append(_ESCAPES.get(escaped, escaped))
                    if escaped == "\n":
                        line += 1
                        line_start = escape + 2
                    end = escape + 2
                append(Token(TokenType.STRING, "".join(parts), start_line, column))
                pos = quote + 1
            elif src[pos : pos + 2] in _TWO_CHAR_OPERATORS:
                text = src[pos : pos + 2]
                append(Token(_TWO_CHAR_OPERATORS[text], text, line, column))
                pos += 2
            elif char in SINGLE_CHAR_OPERATORS:
                append(Token(SINGLE_CHAR_OPERATORS[char], char, line, column))
                pos += 1
            else:
                raise LexError(f"unexpected character {char!r}", line, column)
        append(Token(TokenType.EOF, "", line, pos - line_start + 1))
        return tokens


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper around :class:`Lexer`."""
    return Lexer(source).tokenize()
