"""The AST ownership rule: expressions are shared, statements are owned.

Every public pass returns a new program and leaves its input equal to what
it was.  Program copies rebuild only the statement spine
(:func:`~repro.lang.clone_statements`), so a pass that mutated an
expression in place would leak its edit into the input.  These tests pin
the input against a deep-copied snapshot over the benchmark's extraction
corpus, the difftest generator, and one hand case per place that used to
edit an expression or statement in place.
"""

from __future__ import annotations

import copy
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import Catalog, ExtractOptions, extract_sql, optimize_program
from repro.core import extractor
from repro.difftest import generate_case
from repro.frontends import get_frontend
from repro.ir import preprocess_program
from repro.lang import (
    Block,
    Expr,
    FunctionDef,
    Stmt,
    clone_statements,
    parse_program,
    statement_expressions,
    unparse_program,
    walk_expressions,
    walk_statements,
)
from repro.rewrite import consolidate_loops, eliminate_dead_code, insert_extractions
from repro.workloads import JOB_REPORT, jobportal_catalog

ROOT = Path(__file__).resolve().parents[2]

QUERY = '"select t.a as a from T as t"'
CATALOG = Catalog.from_dict({"T": {"columns": ["a"], "key": ["a"]}})


def _corpus():
    """The benchmark's extraction corpus (``perfbench/suite.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_suite", ROOT / "perfbench" / "suite.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.extraction_corpus()


def _statements(program) -> list:
    """Every owned node of a program: functions, blocks and statements."""
    owned = []
    for func in program.functions:
        owned.append(func)
        owned.extend(walk_statements(func.body))
    return owned


def _expressions(program) -> list[Expr]:
    return [
        node
        for stmt in walk_statements(program)
        for expr in statement_expressions(stmt)
        for node in walk_expressions(expr)
    ]


def _shares_no_statement(a, b) -> bool:
    return not {id(n) for n in _statements(a)} & {id(n) for n in _statements(b)}


@pytest.fixture
def preprocessed(monkeypatch):
    """Record a snapshot of each program ``extract_sql`` preprocesses."""
    snapshots = []
    real = extractor.preprocess_program

    def recording(program, precision=True):
        result = real(program, precision=precision)
        snapshots.append((result, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(extractor, "preprocess_program", recording)
    return snapshots


class TestCorpus:
    def test_optimize_program_leaves_every_input_as_it_was(self, preprocessed):
        units = _corpus()
        assert len(units) == 171
        rewritten = 0
        for unit in units:
            options = unit.options or ExtractOptions()
            program = get_frontend(options.frontend).parse(unit.source)
            snapshot = copy.deepcopy(program)
            report = optimize_program(
                program, unit.function, unit.catalog, options=options
            )
            key = unit.label + "::" + unit.function
            assert program == snapshot, key
            # Nothing after preprocessing (lint, rules, alternatives,
            # rewrite, dead-code elimination, consolidation) edits the
            # program the report hands out as the original.
            original, original_snapshot = preprocessed[-1]
            assert original is report.original, key
            assert report.original == original_snapshot, key
            if report.rewritten is not None:
                rewritten += 1
                assert _shares_no_statement(report.original, report.rewritten), key
        assert rewritten > 100


class TestHandCases:
    """One case per former in-place edit site."""

    def _preprocess_keeps_input(self, source: str) -> str:
        program = parse_program(source)
        snapshot = copy.deepcopy(program)
        result = preprocess_program(program)
        assert program == snapshot
        assert _shares_no_statement(program, result)
        return unparse_program(result)

    def test_copy_propagation(self):
        text = self._preprocess_keeps_input(
            "f(x) { y = x; z = y + 1; print(z); return y; }"
        )
        assert "z = x + 1;" in text and "return x;" in text

    def test_method_call_receiver_and_argument(self):
        text = self._preprocess_keeps_input(
            "f(x) { y = x; z = y.getA(y); return z; }"
        )
        assert "z = x.getA(x);" in text

    def test_constant_folding_under_binary(self):
        text = self._preprocess_keeps_input(
            "f(a) { k = 2; z = a + k * 3; return z; }"
        )
        assert "z = a + 6;" in text

    def test_cursor_while_normalisation(self):
        text = self._preprocess_keeps_input(
            f"f() {{ rs = executeQuery({QUERY}); s = 0;"
            " while (rs.next()) { s = s + rs.getA(); } return s; }"
        )
        assert "for (rs : rs)" in text and "while" not in text

    def test_boolean_return_normalisation(self):
        text = self._preprocess_keeps_input(
            f"f() {{ for (t : executeQuery({QUERY})) {{"
            " if (t.getA() > 1) { return true; } } return false; }"
        )
        assert "return __ret_flag" in text

    def test_insert_extractions_and_dead_code_elimination(self):
        source = (
            f"f() {{ s = 0; for (t : executeQuery({QUERY})) {{ s = s + t.getA(); }}"
            " return s; }"
        )
        report = extract_sql(source, "f", CATALOG)
        extraction = report.variables["s"]
        assert extraction.ok
        program = report.original
        snapshot = copy.deepcopy(program)
        inserted = insert_extractions(
            program, "f", {extraction.loop_sid: [("s", extraction.node)]}
        )
        assert program == snapshot
        inserted_snapshot = copy.deepcopy(inserted)
        rewritten = eliminate_dead_code(inserted, "f")
        assert inserted == inserted_snapshot
        assert "for (" in unparse_program(inserted)
        assert "for (" not in unparse_program(rewritten)
        assert _shares_no_statement(program, inserted)
        assert _shares_no_statement(inserted, rewritten)

    def test_jobportal_consolidation(self):
        report = extract_sql(JOB_REPORT, "report", jobportal_catalog())
        program = report.original
        snapshot = copy.deepcopy(program)
        rewritten, records = consolidate_loops(program, "report", jobportal_catalog())
        assert records and records[0].queries_merged >= 2
        assert program == snapshot
        assert "OUTER APPLY" in unparse_program(rewritten)
        assert "OUTER APPLY" not in unparse_program(program)
        assert _shares_no_statement(program, rewritten)


class TestCloneStatements:
    SOURCE = f"""
    f(x, y) {{
        s = 0;
        {{ }}
        for (t : executeQuery({QUERY})) {{
            if (t.getA() > x) {{ s = s + t.getA(); }} else {{ s = s - 1; }}
        }}
        while (x > 0) {{ x = x - 1; if (x == 3) {{ break; }} }}
        try {{ print(s); }} catch (e) {{ print("no"); }} finally {{ }}
        return s + y;
    }}
    g() {{ return null; }}
    """

    def test_shares_every_expression_and_no_statement(self):
        program = parse_program(self.SOURCE)
        clone = clone_statements(program)
        assert clone == program
        assert clone is not program and clone.functions is not program.functions
        assert _shares_no_statement(program, clone)
        assert [id(e) for e in _expressions(clone)] == [
            id(e) for e in _expressions(program)
        ]
        assert _expressions(program)

    def test_copies_every_owned_list(self):
        program = parse_program(self.SOURCE)
        clone = clone_statements(program)
        for original, copied in zip(_statements(program), _statements(clone)):
            assert type(original) is type(copied)
            assert isinstance(copied, (Stmt, FunctionDef))
            for name, value in vars(original).items():
                if isinstance(value, list):
                    assert vars(copied)[name] is not value, (type(original), name)
        empty = [s for s in _statements(clone) if isinstance(s, Block) and not s.statements]
        assert len(empty) >= 2

    def test_edits_to_the_clone_do_not_reach_the_original(self):
        program = parse_program(self.SOURCE)
        snapshot = copy.deepcopy(program)
        clone = clone_statements(program)
        for stmt in list(walk_statements(clone)):
            stmt.sid = 99
            if isinstance(stmt, Block):
                stmt.statements.append(Block())
        clone.functions.pop()
        assert program == snapshot


@pytest.mark.parametrize("seed", [3, 17])
def test_difftest_programs_are_left_as_they_were(seed):
    for case_id in range(100):
        case = generate_case(seed, case_id)
        program = parse_program(case.source)
        snapshot = copy.deepcopy(program)
        preprocess_program(program)
        assert program == snapshot, case.source
        optimize_program(program, case.function, case.catalog())
        assert program == snapshot, case.source
