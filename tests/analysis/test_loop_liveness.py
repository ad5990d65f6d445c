"""One liveness pass per function answers every loop.

``golden/loop_liveness.json`` pins every loop's live-out set (loop sid →
sorted names) for each function of the benchmark's extraction corpus
(``perfbench/suite.py``), preprocessed, for the first 200 seed-0
``difftest`` generator cases, raw and preprocessed, and for the hand-written
``CASES`` below.  The corpus and difftest entries were produced by the
per-loop liveness this pass replaced.  Regenerate it after an intentional
change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_loop_liveness.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro import Catalog
from repro.analysis import dataflow, live_after_loops
from repro.core import optimize_program
from repro.difftest.generator import generate_case
from repro.frontends import get_frontend
from repro.ir import preprocess_program
from repro.lang import parse_program, walk_statements

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden" / "loop_liveness.json"
DIFFTEST_CASES = 200

#: Hand-written functions (each named ``f``), by what they pin.
CASES = {
    # The inner loop's live-out holds ``v``: the next ``v < 10`` reads it.
    "while body live-out holds its condition's reads": """
        f(q) {
            v = 0;
            while (v < 10) { v = 0; for (t : q) { v = v + t.getA(); } }
            return 1;
        }
    """,
}


def _corpus():
    """The benchmark's extraction corpus (``perfbench/suite.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_suite", ROOT / "perfbench" / "suite.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.extraction_corpus()


def _loops(func) -> dict[str, list[str]]:
    return {str(sid): sorted(live) for sid, live in live_after_loops(func).items()}


def _nested(depth: int) -> str:
    """``depth`` cursor loops, each nested in the one before."""
    lines = ["f() {", "s = 0;"]
    for i in range(depth):
        lines.append(f'q{i} = executeQuery("from T as t"); for (t{i} : q{i}) {{')
    lines.append(f"s = s + t{depth - 1}.getX();")
    lines.append("}" * depth)
    lines += ["return s;", "}"]
    return "\n".join(lines)


def test_every_loop_live_out_matches_pin():
    corpus = {}
    for unit in _corpus():
        frontend = unit.options.frontend if unit.options is not None else "minijava"
        program = preprocess_program(get_frontend(frontend).parse(unit.source))
        for func in program.functions:
            corpus.setdefault(unit.label + "::" + func.name, _loops(func))
    difftest = {}
    for case_id in range(DIFFTEST_CASES):
        case = generate_case(0, case_id)
        raw = parse_program(case.source)
        for variant, program in (("raw", raw), ("preprocessed", preprocess_program(raw))):
            difftest[f"{case_id}:{variant}"] = _loops(program.function(case.function))
    cases = {
        name: _loops(parse_program(source).function("f"))
        for name, source in CASES.items()
    }
    actual = {"cases": cases, "corpus": corpus, "difftest": difftest}
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert actual == json.loads(GOLDEN.read_text())


class TestDeepNesting:
    def test_optimize_program_on_30_nested_loops_reports_a_status(self):
        catalog = Catalog()
        catalog.define("t", ["id", "x"], key=("id",))
        report = optimize_program(_nested(30), "f", catalog)
        assert report.status in ("success", "capable", "failed")

    def test_one_pass_is_linear_in_statements(self, monkeypatch):
        func = preprocess_program(parse_program(_nested(30))).function("f")
        calls = 0
        stmt_def_use = dataflow.stmt_def_use

        def counted(stmt):
            nonlocal calls
            calls += 1
            return stmt_def_use(stmt)

        monkeypatch.setattr(dataflow, "stmt_def_use", counted)
        live = live_after_loops(func)
        assert len(live) == 30
        assert calls <= 2 * len(list(walk_statements(func.body)))
