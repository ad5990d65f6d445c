"""The lexer's token streams and errors, pinned against ``golden/lexer_tokens.json``.

The golden holds seeded random strings over an alphabet that reaches every
scanner path (whitespace, ``\\r``, both comment forms, quotes, backslash
escapes, real newlines inside strings, non-ASCII digits and letters, every
operator character) plus a few hand cases.  Each entry records either the
full token stream or the ``LexError`` message, line and column.  Regenerate
after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/lang/test_lexer_golden.py
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.lang import LexError, tokenize

GOLDEN = Path(__file__).resolve().parent / "golden" / "lexer_tokens.json"

_CHARS = list(" \t\r\n\"'\\²٣é_axnt019.()[]{};,:?=+-*/%<>!&|")
_FRAGMENTS = [
    "//", "/*", "*/", "\\\n", "\\\"", "\"sel\"", "\"a\\tb\\\"c\"", "\"x\\\ny\"",
    "/* c\n */", "if", "rs", "1.5", "1.", "42", "==", "&&", "||", "++", "-=",
    "\n", "  ", "é1", "²",
]
#: Characters and fragments that end a scan early (rejected characters,
#: unbalanced quotes and comments); the clean half of the corpus leaves
#: them out so that it reaches deep token streams.
_UNCLEAN = set("'\\&|\"") | {"/*", "\\\n", "\\\""}

HAND_CASES = [
    'x = "a\\\nb"; y',       # escaped real newline inside a string
    "a /* never closed\n",   # unterminated block comment
    'x = "unterminated',     # unterminated string
    '"line\nbreak"',         # real newline inside a string
    "1.x",                   # INT then DOT
    '"\\',                   # quote and backslash at end of input
    "1.5.2 ²3 ٣x é_1",
    "a//c\r\nb /* x\n y */ c",
]


def _random_sources(seed: int, count: int, clean: bool) -> list[str]:
    rng = random.Random(seed)
    chars = [c for c in _CHARS if not (clean and c in _UNCLEAN)]
    fragments = [f for f in _FRAGMENTS if not (clean and f in _UNCLEAN)]
    sources = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(0, 40 if clean else 24)):
            pieces.append(rng.choice(fragments) if rng.random() < 0.3 else rng.choice(chars))
        sources.append("".join(pieces))
    return sources


def golden_sources() -> list[str]:
    return (
        HAND_CASES
        + _random_sources(1, 250, clean=False)
        + _random_sources(2, 250, clean=True)
    )


def lex(source: str) -> dict:
    try:
        tokens = tokenize(source)
    except LexError as error:
        return {"source": source, "error": [str(error), error.line, error.column]}
    return {
        "source": source,
        "tokens": [[t.type.name, t.value, t.line, t.column] for t in tokens],
    }


def test_token_streams_and_errors_match_golden():
    actual = [lex(source) for source in golden_sources()]
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            "[\n" + ",\n".join(json.dumps(entry) for entry in actual) + "\n]\n"
        )
        pytest.skip(f"regenerated {GOLDEN.name}")
    expected = json.loads(GOLDEN.read_text())
    assert [e["source"] for e in expected] == golden_sources()
    for got, want in zip(actual, expected):
        assert got == want, want["source"]


def test_golden_reaches_every_outcome():
    expected = json.loads(GOLDEN.read_text())
    errors = {e["error"][0].split(" (at")[0] for e in expected if "error" in e}
    assert {
        "unterminated string literal",
        "unterminated block comment",
    } <= errors
    assert any(m.startswith("unexpected character") for m in errors)
    kinds = {t[0] for e in expected if "tokens" in e for t in e["tokens"]}
    assert {"INT", "FLOAT", "STRING", "IDENT", "IF", "AND", "OR", "DOT"} <= kinds
    assert sum("tokens" in e for e in expected) >= 200

