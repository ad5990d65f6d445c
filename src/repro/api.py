"""``repro.api`` — the stable, import-one-thing facade.

Everything a client application, CI bot or editor integration needs lives
here under one flat namespace: the extraction entry points, the option
and report types, batch scanning, linting, rewrite planning, and the
language-frontend registry.  ``repro`` (the package root) re-exports the
same names; this module exists so tooling can depend on an explicit,
documented surface:

>>> from repro.api import ExtractOptions, extract_sql, get_frontend
>>> get_frontend("python").language
'Python (DB-API subset)'

Registering a new language frontend makes every entry point — programmatic
and CLI — accept it:

>>> from repro.api import register_frontend
>>> register_frontend(MyKotlinFrontend())        # doctest: +SKIP
>>> extract_sql(src, "f", catalog, options=ExtractOptions(frontend="kotlin"))  # doctest: +SKIP
"""

from .algebra import Catalog
from .batch import ScanReport, scan_directory
from .core import (
    DIALECTS,
    STATUS_CAPABLE,
    STATUS_FAILED,
    STATUS_SUCCESS,
    ExtractOptions,
    ExtractionReport,
    VariableExtraction,
    extract_sql,
    optimize_program,
)
from .frontends import (
    DEFAULT_FRONTEND,
    Frontend,
    FrontendError,
    available_frontends,
    detect_frontend,
    frontend_for_path,
    get_frontend,
    register_frontend,
)
from .lint import LintReport, lint_function, lint_program
from .lint.service import LintScanReport, lint_directory
from .rewrites import (
    DeploymentProfile,
    RewritePlan,
    get_profile,
    plan_rewrites,
    register_profile,
)

__all__ = [
    "Catalog",
    "DEFAULT_FRONTEND",
    "DIALECTS",
    "DeploymentProfile",
    "ExtractOptions",
    "ExtractionReport",
    "Frontend",
    "FrontendError",
    "LintReport",
    "LintScanReport",
    "RewritePlan",
    "STATUS_CAPABLE",
    "STATUS_FAILED",
    "STATUS_SUCCESS",
    "ScanReport",
    "VariableExtraction",
    "available_frontends",
    "detect_frontend",
    "extract_sql",
    "frontend_for_path",
    "get_frontend",
    "lint_directory",
    "lint_function",
    "lint_program",
    "optimize_program",
    "plan_rewrites",
    "register_frontend",
    "register_profile",
    "scan_directory",
    "get_profile",
]
