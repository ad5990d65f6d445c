"""The ``python -m repro scan`` subcommand.

Lives here (not in ``repro.__main__``) so the batch layer owns its whole
vertical; ``__main__`` just registers the parser.  Also provides the
pieces other commands share: :func:`build_catalog`, the one place CLI
schema arguments become a :class:`Catalog`; the extraction-option flags
of ``extract`` and ``scan``; and the runner flags and command body of
``scan`` and ``lint``.
"""

from __future__ import annotations

import json

from ..algebra import Catalog
from ..core import DIALECTS, ExtractOptions
from ..frontends import available_frontends
from .service import scan_directory


def build_catalog(schema: str | None, tables: list[str] | None) -> Catalog:
    """Build a catalog from CLI arguments; exits with a message on bad input."""
    catalog = Catalog()
    if schema:
        try:
            catalog = Catalog.from_json_file(schema)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
    for entry in tables or []:
        parts = entry.split(":")
        if len(parts) < 2:
            raise SystemExit(f"--table expects name:col1,col2[:keycol], got {entry!r}")
        name = parts[0]
        columns = parts[1].split(",")
        key = tuple(parts[2].split(",")) if len(parts) > 2 else ()
        try:
            catalog.add(Catalog.from_dict({name: {"columns": columns, "key": list(key)}}).get(name))
        except ValueError as exc:
            raise SystemExit(str(exc))
    if not catalog.tables:
        raise SystemExit("no schema given: use --schema FILE or --table name:cols[:key]")
    return catalog


def add_extraction_flags(parser) -> None:
    """Register the schema and extraction-option flags (``extract``, ``scan``)."""
    parser.add_argument("--schema", help="JSON schema file")
    parser.add_argument(
        "--table", action="append", help="inline table: name:col1,col2[:keycol]"
    )
    parser.add_argument("--dialect", default="repro", choices=list(DIALECTS))
    parser.add_argument(
        "--unordered",
        action="store_true",
        help="result ordering irrelevant (keyword-search mode)",
    )
    parser.add_argument(
        "--temp-tables",
        action="store_true",
        help="allow shipping non-query collections as temporary tables",
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="deployment profile for cost-based rewrite selection "
        "(built-ins: local, wan); rewrites keep loops where as-written wins",
    )


def extraction_options(args, **overrides) -> ExtractOptions:
    """The :class:`ExtractOptions` the flags ask for; exits on bad values."""
    fields = dict(
        dialect=args.dialect, ordering_matters=not args.unordered,
        allow_temp_tables=args.temp_tables, profile=args.profile,
    )
    try:
        return ExtractOptions(**{**fields, **overrides})
    except ValueError as exc:
        raise SystemExit(str(exc))


def add_runner_flags(parser, verb: str) -> None:
    """Register the directory-runner flags (``scan``, ``lint``)."""
    parser.add_argument("directory", help=f"directory (or file) to {verb}")
    parser.add_argument(
        "--frontend",
        default=None,
        choices=list(available_frontends()),
        help=f"{verb} one language frontend's files only "
        "(default: auto-detect every registered frontend by file suffix)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, help="worker processes (default 1 = serial)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache location (default: DIRECTORY/.repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")


def run_command(args, run, render, exit_code, **run_kwargs) -> int:
    """Call ``run`` (``scan_directory``/``lint_directory``) with the runner
    flags, print the report (``render`` or ``--json``), return the exit code."""
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    try:
        report = run(
            args.directory, jobs=args.jobs, cache_dir=args.cache_dir,
            use_cache=not args.no_cache, frontend=args.frontend, **run_kwargs,
        )
    except OSError as exc:
        raise SystemExit(str(exc))
    print(json.dumps(report.to_dict(), indent=2) if args.json else render(report))
    if not report.units and not report.parse_errors:
        print(f"no source files found under {args.directory}")
        return 1
    return exit_code(report)


def add_scan_parser(sub) -> None:
    """Register the ``scan`` subcommand on an argparse subparsers object."""
    scan = sub.add_parser(
        "scan",
        help="batch-extract SQL from every function under a directory",
    )
    add_runner_flags(scan, "scan")
    add_extraction_flags(scan)
    scan.add_argument(
        "-v", "--verbose", action="store_true", help="per-variable detail in text output"
    )
    scan.set_defaults(func=cmd_scan)


def cmd_scan(args) -> int:
    return run_command(
        args,
        scan_directory,
        lambda report: report.render_text(verbose=args.verbose),
        lambda report: 0,
        catalog=build_catalog(args.schema, args.table),
        options=extraction_options(args),
    )
