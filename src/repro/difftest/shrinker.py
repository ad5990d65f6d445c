"""Delta-debugging shrinker for failing differential cases.

Given a case whose verdict is failing, the shrinker greedily minimises
(1) the database instance — ddmin over each table's rows — and (2) the
program — statement deletion and ``if``/``else`` flattening on the parsed
AST, re-unparsed after every accepted edit — while preserving the verdict
*kind* (e.g. a ``divergence`` must stay a divergence).

The result is a small, self-contained repro suitable for checking into
``tests/difftest/corpus/`` and replaying forever.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..lang import (
    Block,
    FunctionDef,
    If,
    clone_statements,
    parse_program,
    unparse_program,
    walk_statements,
)
from .generator import GeneratedCase
from .oracle import Verdict, run_case


@dataclass
class ShrinkResult:
    case: GeneratedCase
    verdict: Verdict
    runs: int
    removed_rows: int
    removed_statements: int


def _clone_case(case: GeneratedCase) -> GeneratedCase:
    return replace(
        case,
        tables=list(case.tables),
        notnull={k: list(v) for k, v in case.notnull.items()},
        rows={k: [dict(r) for r in rows] for k, rows in case.rows.items()},
    )


class _Shrinker:
    def __init__(
        self,
        target_kind: str,
        oracle: Callable[[GeneratedCase], Verdict],
        max_runs: int,
    ):
        self._target = target_kind
        self._oracle = oracle
        self._budget = max_runs
        self.runs = 0
        self.last_verdict: Verdict | None = None

    def interesting(self, case: GeneratedCase) -> bool:
        if self.runs >= self._budget:
            return False
        self.runs += 1
        try:
            verdict = self._oracle(case)
        except Exception:
            # A candidate that breaks the harness itself is not a smaller
            # instance of the original failure.
            return False
        if verdict.kind == self._target:
            self.last_verdict = verdict
            return True
        return False

    # ------------------------------------------------------------------
    # Rows: ddmin per table

    def shrink_rows(self, case: GeneratedCase) -> GeneratedCase:
        for table in list(case.rows):
            rows = case.rows[table]
            if not rows:
                continue
            case.rows[table] = self._ddmin(case, table, rows)
        return case

    def _ddmin(self, case: GeneratedCase, table: str, rows: list[dict]) -> list[dict]:
        granularity = 2
        while len(rows) >= 2:
            chunk = max(1, len(rows) // granularity)
            reduced = False
            start = 0
            while start < len(rows):
                candidate_rows = rows[:start] + rows[start + chunk :]
                candidate = _clone_case(case)
                candidate.rows[table] = candidate_rows
                if self.interesting(candidate):
                    rows = candidate_rows
                    case.rows[table] = rows
                    reduced = True
                else:
                    start += chunk
            if not reduced:
                if chunk <= 1:
                    break
                granularity *= 2
        # Try the empty instance last (many failures need no rows at all).
        if rows:
            candidate = _clone_case(case)
            candidate.rows[table] = []
            if self.interesting(candidate):
                rows = []
                case.rows[table] = rows
        return rows

    # ------------------------------------------------------------------
    # Program: statement-level edits

    def shrink_program(self, case: GeneratedCase) -> tuple[GeneratedCase, int]:
        removed = 0
        progress = True
        while progress and self.runs < self._budget:
            progress = False
            program = parse_program(case.source)
            func = program.function(case.function)
            for edit in self._edits(func):
                candidate_program = clone_statements(program)
                candidate_func = candidate_program.function(case.function)
                if not edit(candidate_func):
                    continue
                candidate = _clone_case(case)
                candidate.source = unparse_program(candidate_program)
                if self.interesting(candidate):
                    case = candidate
                    removed += 1
                    progress = True
                    break
        return case, removed

    @staticmethod
    def _edits(func: FunctionDef):
        """Yield edit closures, addressed structurally so they can be
        re-applied to a statement clone of the program."""
        blocks = [
            (block_index, stmt_index)
            for block_index, block in enumerate(_blocks(func))
            for stmt_index in range(len(block.statements))
        ]
        for block_index, stmt_index in blocks:
            yield _DeleteStatement(block_index, stmt_index)
        for block_index, stmt_index in blocks:
            yield _FlattenIf(block_index, stmt_index, "then")
            yield _FlattenIf(block_index, stmt_index, "else")
            yield _FlattenIf(block_index, stmt_index, "drop-else")


def _blocks(func: FunctionDef) -> list[Block]:
    return [s for s in walk_statements(func.body) if isinstance(s, Block)]


@dataclass
class _DeleteStatement:
    block_index: int
    stmt_index: int

    def __call__(self, func: FunctionDef) -> bool:
        blocks = _blocks(func)
        if self.block_index >= len(blocks):
            return False
        block = blocks[self.block_index]
        if self.stmt_index >= len(block.statements):
            return False
        del block.statements[self.stmt_index]
        return True


@dataclass
class _FlattenIf:
    block_index: int
    stmt_index: int
    mode: str  # "then" | "else" | "drop-else"

    def __call__(self, func: FunctionDef) -> bool:
        blocks = _blocks(func)
        if self.block_index >= len(blocks):
            return False
        block = blocks[self.block_index]
        if self.stmt_index >= len(block.statements):
            return False
        stmt = block.statements[self.stmt_index]
        if not isinstance(stmt, If):
            return False
        if self.mode == "then":
            replacement = stmt.then_body.statements
        elif self.mode == "else":
            if stmt.else_body is None:
                return False
            replacement = stmt.else_body.statements
        else:
            if stmt.else_body is None:
                return False
            stmt.else_body = None
            return True
        block.statements[self.stmt_index : self.stmt_index + 1] = replacement
        return True


def shrink(
    case: GeneratedCase,
    verdict: Verdict,
    oracle: Callable[[GeneratedCase], Verdict] = run_case,
    max_runs: int = 500,
) -> ShrinkResult:
    """Minimise a failing case while preserving its verdict kind."""
    shrinker = _Shrinker(verdict.kind, oracle, max_runs)
    original_rows = sum(len(r) for r in case.rows.values())
    case = _clone_case(case)
    case = shrinker.shrink_rows(case)
    case, removed_statements = shrinker.shrink_program(case)
    # One more row pass: statement removal often frees up more rows.
    case = shrinker.shrink_rows(case)
    final_rows = sum(len(r) for r in case.rows.values())
    final_verdict = shrinker.last_verdict or verdict
    return ShrinkResult(
        case=case,
        verdict=final_verdict,
        runs=shrinker.runs,
        removed_rows=original_rows - final_rows,
        removed_statements=removed_statements,
    )
