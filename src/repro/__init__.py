"""repro — reproduction of *Extracting Equivalent SQL from Imperative Code
in Database Applications* (Emani, Ramachandra, Bhattacharya, Sudarshan;
SIGMOD 2016).

Public API
----------

The stable facade is ``extract_sql``, ``optimize_program``,
``ExtractOptions``, ``Catalog``, ``ScanReport`` (plus the report types
they return); everything else is internal and may move between releases.

>>> from repro import Catalog, ExtractOptions, extract_sql
>>> catalog = Catalog.from_dict(
...     {"board": {"columns": ["id", "rnd_id", "p1", "p2"], "key": ["id"]}}
... )
>>> options = ExtractOptions(dialect="postgres")
>>> report = extract_sql(SOURCE, "findMaxScore", catalog, options=options)  # doctest: +SKIP

Batch scans (``python -m repro scan DIR``) live in :mod:`repro.batch`:

>>> from repro.batch import scan_directory
>>> report = scan_directory("src/", catalog, jobs=4)  # doctest: +SKIP

Language frontends (``repro.frontends``) make the ingestion boundary
pluggable: the same pipeline extracts SQL from MiniJava (``.mj``) and a
Python DB-API subset (``.py``); pick one with
``ExtractOptions(frontend="python")`` or let the batch scanner detect it
from the file suffix:

>>> from repro import available_frontends, get_frontend
>>> available_frontends()
('minijava', 'python')

Sub-packages:

``repro.lang``      MiniJava front end (lexer/parser/AST/unparser)
``repro.frontends`` language-frontend protocol + registry (MiniJava, Python)
``repro.analysis``  CFG, dominators, regions, dataflow
``repro.ir``        D-IR (ee-DAG + ve-Map)
``repro.fir``       F-IR (fold) + preconditions + argmax
``repro.rules``     transformation rules T1–T7 and the rule engine
``repro.sqlgen``    SQL generation (PostgreSQL/MySQL/SQL Server/ANSI)
``repro.rewrite``   program rewriting + dead-code elimination
``repro.db``        in-memory engine + simulated client/server connection
``repro.interp``    MiniJava interpreter (equivalence checks, benchmarks)
``repro.workloads`` the paper's applications (Wilos, Matoso, JobPortal...)
``repro.baselines`` batching / prefetching / QBS reference data
``repro.batch``     directory scans, result cache, worker pool
``repro.lint``      soundness checker + coded diagnostics (EQ1xx/2xx/3xx)
``repro.rewrites``  cost-based selection over the rewrite space (App. C, Cobra)

Cost-based rewrite selection (``--profile``/``--explain-rewrites``):

>>> from repro import DeploymentProfile, ExtractOptions, extract_sql
>>> report = extract_sql(SOURCE, "orderStats", catalog,
...                      options=ExtractOptions(profile="wan"))  # doctest: +SKIP
>>> report.rewrite_plan.choices[0].chosen.kind  # doctest: +SKIP

Linting (``python -m repro lint DIR``) lives in :mod:`repro.lint`:

>>> from repro import lint_program
>>> report = lint_program(SOURCE)  # doctest: +SKIP
>>> [d.code for d in report.diagnostics]  # doctest: +SKIP
"""

from .algebra import Catalog
from .batch import ScanReport, scan_directory
from .core import (
    ExtractionReport,
    ExtractOptions,
    STATUS_CAPABLE,
    STATUS_FAILED,
    STATUS_SUCCESS,
    VariableExtraction,
    extract_sql,
    optimize_program,
)
from .db import Connection, CostParameters, Database
from .frontends import (
    Frontend,
    FrontendError,
    available_frontends,
    detect_frontend,
    frontend_for_path,
    get_frontend,
    register_frontend,
)
from .interp import Interpreter, run_program
from .lint import (
    Diagnostic,
    LintReport,
    Severity,
    SourceSpan,
    lint_function,
    lint_program,
)
from .lint.service import LintScanReport, lint_directory
from .rewrites import (
    DeploymentProfile,
    RewritePlan,
    generate_alternatives,
    get_profile,
    plan_rewrites,
    register_profile,
    verify_alternatives,
)

__version__ = "1.5.0"

__all__ = [
    "Catalog",
    "Connection",
    "CostParameters",
    "Database",
    "DeploymentProfile",
    "Diagnostic",
    "ExtractOptions",
    "ExtractionReport",
    "Frontend",
    "FrontendError",
    "Interpreter",
    "LintReport",
    "LintScanReport",
    "RewritePlan",
    "STATUS_CAPABLE",
    "STATUS_FAILED",
    "STATUS_SUCCESS",
    "ScanReport",
    "Severity",
    "SourceSpan",
    "VariableExtraction",
    "available_frontends",
    "detect_frontend",
    "extract_sql",
    "frontend_for_path",
    "generate_alternatives",
    "get_frontend",
    "get_profile",
    "lint_directory",
    "lint_function",
    "lint_program",
    "optimize_program",
    "plan_rewrites",
    "register_frontend",
    "register_profile",
    "run_program",
    "scan_directory",
    "verify_alternatives",
    "__version__",
]
