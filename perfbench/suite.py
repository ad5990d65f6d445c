"""The benchmark's four workloads, their seeded inputs and their oracles.

Each workload owns one pass: a fixed, seeded sequence of ops in which every
request type recurs many times.  The harness (``run.py``) repeats whole
passes, so every run of a workload has the identical mix.

* ``extract``     — one op is ``optimize_program`` on one committed corpus
  function; no data, so the extraction layers do all the work.
* ``as_written``  — one op runs an *original* program (the paper's
  "before"): thousands of small queries, per-query overheads dominate.
* ``pushed_down`` — the same requests on the same data running the
  *rewritten* programs (the "after"): few queries, set-oriented engine
  operators do the work.
* ``refresh``     — one op replaces a table the apps read with a seeded
  batch, then runs one rewritten program over it: writes beside reads,
  so statistics, columns, indexes and plans are rebuilt on every op.

Oracles are computed before the timed phase and independently of the path
under test: known extraction dispositions for ``extract``, and the
as-written program on the reference engine for the program workloads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro import Catalog, Connection, ExtractOptions, Interpreter, optimize_program
from repro.batch.discovery import plan_units
from repro.core import STATUS_SUCCESS
from repro.workloads import (
    ACADPORTAL_SERVLETS,
    FIND_MAX_SCORE,
    FIND_MAX_SCORE_WITH_PLAYER,
    JOB_REPORT,
    PRECISION_SAMPLES,
    RUBBOS_SERVLETS,
    RUBIS_SERVLETS,
    WILOS_SAMPLES,
    acadportal_catalog,
    jobportal_catalog,
    jobportal_database,
    matoso_catalog,
    matoso_database,
    precision_catalog,
    rubbos_catalog,
    rubis_catalog,
    sample,
    servlet_extracted,
    wilos_catalog,
    wilos_database,
)

ROOT = Path(__file__).resolve().parent.parent

#: Data scales of the program workloads.  At these sizes JobPortal's
#: literal-concatenated queries (~350 distinct per report) overflow the
#: 256-entry plan cache, so every as-written query misses it, and the
#: consolidated OUTER APPLY reports (JobPortal, Wilos #24) are still slower
#: than the originals — the known quadratic defect shows — while every op
#: stays under ~0.2 s.
WILOS_SCALE = 200
JOBPORTAL_APPLICANTS = 100
MATOSO_BOARDS = 400
#: Light requests appear this many times per pass (with fresh arguments),
#: the N+1 ones once, so that a run holds well over 1000 ops.
LIGHT_REPEAT = 4
#: Wilos N+1 loops: one query per outer row in the original program.
HEAVY_WILOS = (10, 11, 24)

#: ``refresh``: rows per batch, batches per run, and the rewritten
#: programs (all reading ``activity``) that follow each write.  #11 joins
#: through the key index on ``activity.id``, which each write dirties.
REFRESH_TABLE = "activity"
REFRESH_ROWS = 1000
REFRESH_BATCHES = 12
REFRESH_PROGRAMS = (1, 2, 11, 27)

#: Example functions that do not extract, as their own comments explain:
#: ``customerSpend`` is an N+1 lookup no rule folds, ``mixedReduction``
#: keeps a non-associative reduction.  Every other example extracts.
EXAMPLE_FAILURES = {
    ("crm.mj", "customerSpend"),
    ("stats.mj", "mixedReduction"),
}


# ----------------------------------------------------------------------
# extract


@dataclass(frozen=True)
class Unit:
    """One corpus function and its known disposition."""

    label: str
    function: str
    source: str
    catalog: Catalog
    options: ExtractOptions | None
    #: ``status`` (report status), ``servlet`` (Experiment 3 criterion) or
    #: ``consolidated`` (Figure 12→13 consolidation applied).
    check: str
    expected: object


def extraction_corpus() -> list[Unit]:
    """Table 1, the Experiment 3 servlets, the precision corpus, JobPortal,
    Matoso and the ``examples/`` functions."""
    units = []
    wilos = wilos_catalog()
    for s in WILOS_SAMPLES:
        units.append(Unit(f"wilos#{s.number}", s.function, s.source, wilos,
                          None, "status", s.expected))
    for label, servlets, catalog in (
        ("rubis", RUBIS_SERVLETS, rubis_catalog()),
        ("rubbos", RUBBOS_SERVLETS, rubbos_catalog()),
        ("acadportal", ACADPORTAL_SERVLETS, acadportal_catalog()),
    ):
        for servlet in servlets:
            units.append(Unit(f"{label}/{servlet.name}", servlet.function,
                              servlet.source, catalog, None, "servlet",
                              servlet.expected_extractable))
    precision = precision_catalog()
    for p in PRECISION_SAMPLES:
        units.append(Unit(f"precision/{p.name}", p.function, p.source,
                          precision, None, "status", STATUS_SUCCESS))
    units.append(Unit("jobportal", "report", JOB_REPORT, jobportal_catalog(),
                      None, "consolidated", True))
    matoso = matoso_catalog()
    for source, function in ((FIND_MAX_SCORE, "findMaxScore"),
                             (FIND_MAX_SCORE_WITH_PLAYER, "findMaxScoreWithPlayer")):
        units.append(Unit(f"matoso/{function}", function, source, matoso,
                          None, "status", STATUS_SUCCESS))
    for frontend in ("minijava", "python"):
        directory = ROOT / "examples" / frontend
        catalog = Catalog.from_dict(json.loads((directory / "schema.json").read_text()))
        # The WAN profile makes extraction cost the rewrite alternatives too.
        options = ExtractOptions(frontend=frontend, profile="wan")
        for unit in plan_units(directory, frontend=frontend).units:
            expected = ("failed" if (unit.path, unit.function) in EXAMPLE_FAILURES
                        else STATUS_SUCCESS)
            units.append(Unit(f"examples/{frontend}/{unit.path}", unit.function,
                              unit.source, catalog, options, "status", expected))
    return units


class ExtractWorkload:
    name = "extract"

    def __init__(self, seed: int):
        self.seed = seed
        self.units = extraction_corpus()
        order = list(range(len(self.units)))
        random.Random(seed).shuffle(order)
        self.sequence = [self.units[i] for i in order]
        self.reports: list = []

    def describe(self) -> dict:
        return {"units": len(self.units), "ops_per_pass": len(self.sequence)}

    def databases(self) -> list:
        return []

    def setup(self) -> None:
        # No data: one warm-up pass is the whole set-up.
        self.reports = [self.run(unit) for unit in self.units]

    def oracle(self) -> list:
        return [unit.expected for unit in self.sequence]

    def run(self, unit: Unit):
        return optimize_program(unit.source, unit.function, unit.catalog,
                                options=unit.options)

    def observe(self, op: Unit, report) -> tuple[object, dict]:
        if op.check == "servlet":
            return servlet_extracted(report), {}
        if op.check == "consolidated":
            return bool(report.consolidations) and report.rewritten is not None, {}
        return report.status, {}

    def extraction_counts(self) -> dict:
        return _extraction_counts(self.reports)


# ----------------------------------------------------------------------
# as_written / pushed_down


@dataclass(frozen=True)
class Request:
    """One program invocation: which app, which program, which arguments."""

    app: str
    key: object
    function: str
    args: tuple


def _wilos_args(number: int, draw: float) -> tuple:
    """Arguments for the parameterised Table 1 samples from ``draw`` in
    [0, 1): an activity id, a project id for #26, a user's login."""
    if number in (3, 4, 26):
        return (1 + int(draw * WILOS_SCALE),)
    users = WILOS_SCALE // 2 - 1
    if number == 20:
        return (f"login{1 + int(draw * users)}",)
    if number == 19:
        # Draws in the upper half give a wrong password.
        user = 1 + int(draw * 2 % 1 * users)
        return (f"login{user}", f"pw{user}" if draw < 0.5 else f"pw{user + 1}")
    return ()


def _stratified(rng: random.Random, count: int) -> list[float]:
    """``count`` draws in [0, 1), one from each of ``count`` equal strata,
    so every pass covers the argument range evenly whatever the seed."""
    return [(k + rng.random()) / count for k in range(count)]


def _sources() -> dict:
    """(app, key) → (source, function) of every program the program
    workloads run."""
    programs = {}
    for s in WILOS_SAMPLES:
        if s.expected == STATUS_SUCCESS:
            programs[("wilos", s.number)] = (s.source, s.function)
    programs[("jobportal", "report")] = (JOB_REPORT, "report")
    programs[("matoso", "findMaxScore")] = (FIND_MAX_SCORE, "findMaxScore")
    programs[("matoso", "findMaxScoreWithPlayer")] = (
        FIND_MAX_SCORE_WITH_PLAYER, "findMaxScoreWithPlayer")
    return programs


_CATALOGS = {"wilos": wilos_catalog, "jobportal": jobportal_catalog,
             "matoso": matoso_catalog}


def _build_databases(seed: int, catalogs: dict) -> dict:
    return {
        "wilos": wilos_database(WILOS_SCALE, seed=seed, catalog=catalogs["wilos"]),
        "jobportal": jobportal_database(JOBPORTAL_APPLICANTS, seed=seed + 1,
                                        catalog=catalogs["jobportal"]),
        "matoso": matoso_database(MATOSO_BOARDS, seed=seed + 2,
                                  catalog=catalogs["matoso"]),
    }


def _optimize_all(programs: dict, catalogs: dict) -> dict:
    return {
        key: optimize_program(source, function, catalogs[key[0]])
        for key, (source, function) in programs.items()
    }


def _run_program(program, database, function: str, args: tuple):
    connection = Connection(database)
    interpreter = Interpreter(program, connection)
    value = interpreter.run(function, *args)
    return (value, interpreter.last_out), connection.stats


def _extraction_counts(reports) -> dict:
    variables = [v for report in reports for v in report.variables.values()]
    return {"variables": len(variables),
            "extracted": sum(1 for v in variables if v.ok)}


class _ProgramRuns:
    """What the workloads whose ops run programs share: an op's output is
    the program's return value and printed output, its counts come from
    the connection's accounting."""

    reports: dict

    def observe(self, op, raw) -> tuple[object, dict]:
        output, stats = raw
        return output, {
            "queries": stats.queries_executed,
            "rows_scanned": stats.rows_scanned,
            "rows_transferred": stats.rows_transferred,
            "bytes": stats.bytes_transferred,
            "sim_ms": stats.simulated_time_ms,
        }

    def extraction_counts(self) -> dict:
        return _extraction_counts(self.reports.values())


class ProgramWorkload(_ProgramRuns):
    """``as_written`` (``rewritten=False``) or ``pushed_down``."""

    def __init__(self, seed: int, rewritten: bool):
        self.name = "pushed_down" if rewritten else "as_written"
        self.seed = seed
        self.rewritten = rewritten
        self.programs = _sources()
        rng = random.Random(seed)
        sequence = []
        for (app, key), (_, function) in self.programs.items():
            heavy = app == "jobportal" or key in HEAVY_WILOS
            for draw in _stratified(rng, 1 if heavy else LIGHT_REPEAT):
                args = (7,) if app == "jobportal" else (
                    _wilos_args(key, draw) if app == "wilos" else ())
                sequence.append(Request(app, key, function, args))
        rng.shuffle(sequence)
        self.sequence = sequence
        self.reports: dict = {}
        self.dbs: dict = {}

    def describe(self) -> dict:
        return {
            "wilos_scale": WILOS_SCALE,
            "jobportal_applicants": JOBPORTAL_APPLICANTS,
            "matoso_boards": MATOSO_BOARDS,
            "programs": len(self.programs),
            "ops_per_pass": len(self.sequence),
        }

    def databases(self) -> list:
        return list(self.dbs.values())

    def setup(self) -> None:
        catalogs = {app: make() for app, make in _CATALOGS.items()}
        self.dbs = _build_databases(self.seed, catalogs)
        self.reports = _optimize_all(self.programs, catalogs)
        for request in self.sequence:
            self.run(request)

    def oracle(self) -> list:
        catalogs = {app: make() for app, make in _CATALOGS.items()}
        databases = _build_databases(self.seed, catalogs)
        for database in databases.values():
            database.default_engine = "reference"
        reports = _optimize_all(self.programs, catalogs)
        return [
            _run_program(reports[(r.app, r.key)].original, databases[r.app],
                         r.function, r.args)[0]
            for r in self.sequence
        ]

    def program(self, request: Request):
        report = self.reports[(request.app, request.key)]
        return report.rewritten if self.rewritten else report.original

    def run(self, request: Request):
        return _run_program(self.program(request), self.dbs[request.app],
                            request.function, request.args)


# ----------------------------------------------------------------------
# refresh


def refresh_batch(rng: random.Random) -> list[dict]:
    """A full replacement of the ``activity`` table."""
    return [
        {
            "id": i,
            "name": f"activity{rng.randint(1, 10 * REFRESH_ROWS)}",
            "kind": rng.choice(("task", "milestone", "review")),
            "process_id": rng.randint(1, 10),
            "finished": rng.random() < 0.5,
        }
        for i in range(1, REFRESH_ROWS + 1)
    ]


@dataclass(frozen=True)
class Refresh:
    batch: int
    number: int
    function: str


class RefreshWorkload(_ProgramRuns):
    name = "refresh"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.batches = [refresh_batch(rng) for _ in range(REFRESH_BATCHES)]
        sequence = [
            Refresh(batch, number, sample(number).function)
            for batch in range(REFRESH_BATCHES)
            for number in REFRESH_PROGRAMS
        ]
        rng.shuffle(sequence)
        self.sequence = sequence
        self.reports: dict = {}
        self.db = None

    def describe(self) -> dict:
        return {
            "wilos_scale": WILOS_SCALE,
            "table": REFRESH_TABLE,
            "rows_per_batch": REFRESH_ROWS,
            "batches": REFRESH_BATCHES,
            "programs": len(REFRESH_PROGRAMS),
            "ops_per_pass": len(self.sequence),
        }

    def databases(self) -> list:
        return [self.db] if self.db is not None else []

    def _optimize(self, catalog) -> dict:
        return {
            number: optimize_program(sample(number).source, sample(number).function,
                                     catalog)
            for number in REFRESH_PROGRAMS
        }

    def setup(self) -> None:
        catalog = wilos_catalog()
        self.db = wilos_database(WILOS_SCALE, seed=self.seed, catalog=catalog)
        # The table's primary-key index, which a real schema declares: #11
        # then joins through it, and every write dirties it.
        self.db.create_index(REFRESH_TABLE, "id")
        self.reports = self._optimize(catalog)
        for op in self.sequence:
            self.run(op)

    def oracle(self) -> list:
        """Replays every seeded batch into a reference-engine database and
        runs the as-written programs over it."""
        catalog = wilos_catalog()
        database = wilos_database(WILOS_SCALE, seed=self.seed, catalog=catalog)
        database.default_engine = "reference"
        reports = self._optimize(catalog)
        expected = {}
        for batch, rows in enumerate(self.batches):
            database.clear(REFRESH_TABLE)
            database.insert_many(REFRESH_TABLE, rows)
            for number in REFRESH_PROGRAMS:
                expected[(batch, number)] = _run_program(
                    reports[number].original, database, sample(number).function, ()
                )[0]
        return [expected[(op.batch, op.number)] for op in self.sequence]

    def run(self, op: Refresh):
        self.db.clear(REFRESH_TABLE)
        self.db.insert_many(REFRESH_TABLE, self.batches[op.batch])
        return _run_program(self.reports[op.number].rewritten, self.db,
                            op.function, ())


#: Workload name → constructor taking the seed.
WORKLOADS = {
    "extract": ExtractWorkload,
    "as_written": lambda seed: ProgramWorkload(seed, rewritten=False),
    "pushed_down": lambda seed: ProgramWorkload(seed, rewritten=True),
    "refresh": RefreshWorkload,
}
