"""Batch extraction service: repo-wide scans with caching and parallelism.

The paper's pipeline analyses one function of one file per invocation;
real deployments run over entire applications.  This package adds the
throughput layer, shared by ``scan`` and ``lint``:

``discovery``  find every source file a registered frontend claims by
               suffix (``.mj``, ``.py``, ...) under a directory and plan
               one work unit per (file, function);
``cache``      persistent content-addressed result cache (key = SHA-256 of
               source + catalog spec + options; store = JSON files under
               ``.repro-cache/``);
``pool``       serial or ``multiprocessing`` execution of work units;
``report``     :class:`DirectoryReport` and :class:`ScanReport` aggregation;
``service``    :func:`run_directory`, the discover → cache → pool → report
               loop, and :func:`scan_directory` on it;
``cli``        the ``python -m repro scan`` subcommand and shared flags.
"""

from .cache import NullCache, ResultCache, cache_key
from .discovery import Discovery, WorkUnit, discover_sources, plan_units
from .pool import extract_unit, run_units
from .report import DirectoryReport, ScanReport
from .service import run_directory, scan_directory

__all__ = [
    "DirectoryReport",
    "Discovery",
    "NullCache",
    "ResultCache",
    "ScanReport",
    "WorkUnit",
    "cache_key",
    "discover_sources",
    "extract_unit",
    "plan_units",
    "run_directory",
    "run_units",
    "scan_directory",
]
