"""One statement index per function.

Extraction asks a function the same questions many times: its cursor loops
and how they nest, each statement's def/use sets, what a loop writes, a
``break`` in it, the calls a loop owns.  :class:`FunctionIndex` answers
them from one walk: the statements in source order, each with its block,
the loops around it (the region hierarchy of Section 3.1, flattened) and a
summary of its subtree.  :func:`function_index` keeps the index on the
function until the enclosing ``analysis_scope`` ends.  It describes the
function as it was when built: a pass that edits a function works on a
clone (``clone_statements`` leaves the index behind) or builds a fresh one.
"""

from __future__ import annotations

from ..lang import (
    Block,
    Break,
    Continue,
    ForEach,
    FunctionDef,
    Return,
    Stmt,
    TryCatch,
    While,
    child_statements,
    statement_expressions,
)
from .dataflow import NO_FACTS, expr_facts, remember, stmt_def_use

_EXITS = (Break, Continue, Return, TryCatch)


class StmtInfo:
    """One statement of a :class:`FunctionIndex`.

    ``facts`` are those of the statement's own expression (a compound
    statement's header); ``block`` is the block whose list holds it (None
    for a body block); ``loops`` are the ``ForEach``/``While`` statements
    whose body holds it, outermost first, and ``cursor_loop`` the innermost
    ``ForEach`` among them.  Its subtree is ``entries[start:end]``, which
    writes ``writes`` (``all_writes``), holds a ``break``/``continue``/
    ``return``/``try`` when ``exits``, and holds the ``ForEach`` loops
    ``nested``, itself included."""

    __slots__ = (
        "stmt", "facts", "def_use", "block", "loops", "cursor_loop",
        "start", "end", "writes", "exits", "nested",
    )

    def __init__(self, stmt: Stmt, block, loops: tuple, cursor_loop, start: int):
        exprs = statement_expressions(stmt)
        self.stmt = stmt
        self.facts = expr_facts(exprs[0]) if exprs else NO_FACTS
        self.def_use = stmt_def_use(stmt)
        self.block: Block | None = block
        self.loops = loops
        self.cursor_loop: ForEach | None = cursor_loop
        self.start = start


class FunctionIndex:
    """Statements of one function in source order, with their summaries."""

    def __init__(self, func: FunctionDef):
        self.func = func
        #: Every statement under ``func.body``, as ``walk_statements`` yields.
        self.entries: list[StmtInfo] = []
        self.cursor_loops: list[ForEach] = []  # outermost first
        self.loops: list[Stmt] = []  # ForEach and While, outermost first
        self._info: dict[int, StmtInfo] = {}
        self._owned: dict[int, list[StmtInfo]] = {}
        self._visit(func.body, None, (), None)

    def info(self, stmt: Stmt) -> StmtInfo:
        return self._info[id(stmt)]

    def subtree(self, stmt: Stmt) -> list[StmtInfo]:
        """``stmt`` and every statement under it, in source order."""
        info = self._info[id(stmt)]
        return self.entries[info.start : info.end]

    def owned(self, loop: ForEach) -> list[StmtInfo]:
        """Statements whose nearest enclosing cursor loop is ``loop``: its
        body's statements and what they hold, down to (and including, but
        not into) nested ``ForEach`` loops."""
        return self._owned.get(id(loop), [])

    def _visit(self, stmt: Stmt, block, loops: tuple, cursor_loop) -> StmtInfo:
        info = StmtInfo(stmt, block, loops, cursor_loop, len(self.entries))
        self._info[id(stmt)] = info
        self.entries.append(info)
        if cursor_loop is not None and stmt is not cursor_loop.body:
            self._owned.setdefault(id(cursor_loop), []).append(info)
        nested = []
        if type(stmt) is ForEach:
            self.cursor_loops.append(stmt)
            nested.append(stmt.sid)
            cursor_loop = stmt
        if type(stmt) in (ForEach, While):
            self.loops.append(stmt)
            loops += (stmt,)
        writes, exits = info.def_use.writes, isinstance(stmt, _EXITS)
        owner = stmt if type(stmt) is Block else None
        for child in child_statements(stmt):
            sub = self._visit(child, owner, loops, cursor_loop)
            writes = writes | sub.writes if sub.writes else writes
            exits = exits or sub.exits
            nested += sub.nested
        info.writes, info.exits, info.nested = writes, exits, frozenset(nested)
        info.end = len(self.entries)
        return info


def function_index(func: FunctionDef) -> FunctionIndex:
    """The :class:`FunctionIndex` of ``func``, built on first read."""
    index = func._memo
    if index is None:
        index = remember(func, FunctionIndex(func))
    return index
