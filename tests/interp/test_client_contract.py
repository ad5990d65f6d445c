"""Pin of the client contract: no program reads an alias-qualified name.

Result rows reach a program as plain names only (the engine keeps the
alias-qualified copies inside the plan), so ``Entity.get`` has no
unique-suffix fallback and a JDBC getter given a dotted name fails.  This
records that nothing relied on either: over the workload programs (the
Table 1 samples that extract, JobPortal, Matoso — original and rewritten),
the ``examples/`` scripts, the difftest corpus and a fixed-seed fuzz run,
every column a program reads is a plain name its row holds.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from collections import Counter
from pathlib import Path

import pytest

from repro.core import STATUS_SUCCESS, optimize_program
from repro.db import Connection
from repro.difftest.corpus import corpus_files, replay_file
from repro.difftest.runner import run_difftest
from repro.interp import Entity, Interpreter
from repro.workloads import (
    FIND_MAX_SCORE,
    FIND_MAX_SCORE_WITH_PLAYER,
    JOB_REPORT,
    WILOS_SAMPLES,
    jobportal_catalog,
    jobportal_database,
    matoso_catalog,
    matoso_database,
    wilos_catalog,
    wilos_database,
)

ROOT = Path(__file__).resolve().parents[2]

#: Arguments of the parameterised Table 1 samples.
WILOS_ARGS = {3: (1,), 4: (1,), 26: (1,), 19: ("login1", "pw1"), 20: ("login2",)}


@pytest.fixture
def reads(monkeypatch):
    """Counts each column read by kind: ``plain`` (held by the row),
    ``dotted`` (a qualified name) or ``missing`` (any other name)."""
    counts: Counter = Counter()
    get = Entity.get

    def spy(entity, column):
        if "." in column:
            counts["dotted"] += 1
        elif column not in entity.row:
            counts["missing"] += 1
        else:
            counts["plain"] += 1
        return get(entity, column)

    monkeypatch.setattr(Entity, "get", spy)
    return counts


def _run(program, database, function, args):
    interp = Interpreter(program, Connection(database))
    interp.run(function, *args)
    return interp


def test_workload_programs_read_plain_names(reads):
    apps = [
        (wilos_catalog(), lambda c: wilos_database(40, seed=1, catalog=c),
         [(s.source, s.function, WILOS_ARGS.get(s.number, ()))
          for s in WILOS_SAMPLES if s.expected == STATUS_SUCCESS]),
        (jobportal_catalog(), lambda c: jobportal_database(20, seed=2, catalog=c),
         [(JOB_REPORT, "report", (7,))]),
        (matoso_catalog(), lambda c: matoso_database(40, seed=3, catalog=c),
         [(FIND_MAX_SCORE, "findMaxScore", ()),
          (FIND_MAX_SCORE_WITH_PLAYER, "findMaxScoreWithPlayer", ())]),
    ]
    runs = 0
    for catalog, make, programs in apps:
        database = make(catalog)
        for source, function, args in programs:
            report = optimize_program(source, function, catalog)
            for program in (report.original, report.rewritten):
                if program is not None:
                    _run(program, database, function, args)
                    runs += 1
    assert runs == 40
    assert reads["dotted"] == reads["missing"] == 0


def test_example_scripts_read_plain_names(reads):
    scripts = sorted((ROOT / "examples").glob("*.py"))
    assert scripts
    for script in scripts:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    assert reads["dotted"] == reads["missing"] == 0


def test_difftest_corpus_and_fuzz_read_plain_names(reads):
    for path in corpus_files(ROOT / "tests" / "difftest" / "corpus"):
        _, verdict = replay_file(path)
        assert not verdict.failing, (path, verdict.detail)
    stats = run_difftest(seed=0, iters=150, do_shrink=False)
    assert not stats.findings
    assert reads["plain"] > 0
    assert reads["dotted"] == reads["missing"] == 0


def test_a_qualified_getter_finds_no_column():
    rows = [{"id": 1, "name": "ann"}]
    entity = Entity(rows[0])
    assert entity.get("name") == "ann"
    with pytest.raises(KeyError, match="no column 'p.name'"):
        entity.get("p.name")
