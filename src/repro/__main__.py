"""Command-line interface: ``python -m repro``.

Subcommands:

``extract``   run EqSQL on a source file (MiniJava or Python, auto-detected
              by suffix) and print the extracted SQL (optionally the
              rewritten program);
``scan``      batch-extract from every function of every source file
              under a directory, with a persistent result cache and a
              ``-j N`` worker pool;
``lint``      run the soundness/anti-pattern checker (coded EQ1xx/EQ2xx/
              EQ3xx diagnostics) over a directory, no schema needed;
``analyze``   dump the precision layer's proven facts (SSA form, SCCP
              constants, dead branches, points-to sets) for one
              ``FILE::function`` target;
``demo``      the paper's Figure 2 → Figure 3(d) walk-through;
``difftest``  the differential equivalence fuzzer (random programs vs.
              their extracted-SQL rewrites; failures are shrunk and filed
              as corpus repros).

Schemas are given either as a JSON file (``--schema``) of the form::

    {"board": {"columns": ["id", "rnd_id", "p1"], "key": ["id"]}}

or inline with repeated ``--table name:col1,col2[:keycol]`` options.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis.cli import add_analyze_parser
from .batch.cli import (
    add_extraction_flags,
    add_scan_parser,
    build_catalog,
    extraction_options,
)
from .core import extract_sql, optimize_program
from .frontends import DEFAULT_FRONTEND, available_frontends, detect_frontend, get_frontend
from .lang import unparse_program
from .lint.cli import add_lint_parser


def _cmd_extract(args) -> int:
    catalog = build_catalog(args.schema, args.table)
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    profile = args.profile
    if profile is None and args.explain_rewrites:
        profile = "local"  # --explain-rewrites alone: use the default profile
    frontend = args.frontend
    if frontend is None:
        # Auto-detect from the file suffix; stdin falls back to the default.
        frontend = detect_frontend(args.file) if args.file != "-" else DEFAULT_FRONTEND
    options = extraction_options(args, profile=profile, frontend=frontend)
    if args.rewrite:
        report = optimize_program(source, args.function, catalog, options=options)
    else:
        report = extract_sql(source, args.function, catalog, options=options)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.status != "failed" else 1

    print(f"function: {args.function}")
    print(f"status:   {report.status}")
    print(f"time:     {report.extraction_time_ms:.2f} ms")
    for name, extraction in report.variables.items():
        print(f"\nvariable {name!r}: {extraction.status}")
        if extraction.sql:
            print(f"  SQL: {extraction.sql}")
        if extraction.reason:
            print(f"  reason: {extraction.reason}")
        for diag in extraction.diagnostics:
            print(f"  {diag.render(args.file if args.file != '-' else '')}")
        if extraction.rule_trace:
            print(f"  rules: {' → '.join(extraction.rule_trace)}")
    function_diags = [d for d in report.diagnostics]
    if function_diags:
        print("\ndiagnostics:")
        for diag in function_diags:
            print(f"  {diag.render(args.file if args.file != '-' else '')}")
    for consolidation in report.consolidations:
        print(
            f"\nconsolidated loop @{consolidation.loop_sid}: "
            f"{consolidation.queries_merged} queries → 1"
        )
        print(f"  SQL: {consolidation.sql}")
    if args.explain_rewrites and report.rewrite_plan is not None:
        from .rewrites import render_explain

        print()
        print(render_explain(report.rewrite_plan))
    if args.rewrite and report.rewritten is not None:
        print("\n--- rewritten program ---")
        print(get_frontend(report.frontend).unparse(report.rewritten))
    return 0 if report.status != "failed" else 1


def _cmd_demo(_args) -> int:
    from .workloads import FIND_MAX_SCORE, matoso_catalog

    report = optimize_program(FIND_MAX_SCORE, "findMaxScore", matoso_catalog())
    print("source (paper Figure 2):")
    print(FIND_MAX_SCORE)
    print("extracted SQL (Figure 3d):")
    print(" ", report.variables["scoreMax"].sql)
    print("\nrewritten program:")
    print(unparse_program(report.rewritten))
    return 0


def _cmd_difftest(args) -> int:
    from .difftest import run_difftest

    stats = run_difftest(
        seed=args.seed,
        iters=args.iters,
        budget_s=args.budget_s,
        corpus_dir=args.corpus_dir,
        do_shrink=not args.no_shrink,
        log=print,
    )
    print(stats.summary())
    for finding in stats.findings:
        case = finding.minimized or finding.case
        print(f"\n--- {finding.verdict.kind} (case {stats.seed}:{case.case_id}) ---")
        print(finding.verdict.detail)
        print("program:")
        print(case.source)
        print(f"rows: {case.rows}")
    return 1 if stats.failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EqSQL: extract equivalent SQL from imperative code (SIGMOD'16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="extract SQL from a source file")
    extract.add_argument("file", help="source file ('-' for stdin)")
    extract.add_argument("--function", "-f", required=True)
    extract.add_argument(
        "--frontend",
        default=None,
        choices=list(available_frontends()),
        help="language frontend parsing the file "
        "(default: auto-detect from the file suffix; stdin: minijava)",
    )
    add_extraction_flags(extract)
    extract.add_argument("--rewrite", action="store_true", help="print the rewritten program")
    extract.add_argument(
        "--explain-rewrites",
        action="store_true",
        help="print the per-site alternative space with cost breakdowns "
        "(implies --profile local when no profile is given)",
    )
    extract.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    extract.set_defaults(func=_cmd_extract)

    add_scan_parser(sub)
    add_lint_parser(sub)
    add_analyze_parser(sub)

    demo = sub.add_parser("demo", help="run the Figure 2 walk-through")
    demo.set_defaults(func=_cmd_demo)

    difftest = sub.add_parser(
        "difftest", help="differential equivalence fuzzer (Theorem 1)"
    )
    difftest.add_argument("--seed", type=int, default=0)
    difftest.add_argument("--iters", type=int, default=200)
    difftest.add_argument(
        "--budget-s",
        type=float,
        default=None,
        help="stop after this many seconds even if --iters cases have not run",
    )
    difftest.add_argument(
        "--corpus-dir",
        default=None,
        help="write shrunk failing cases to this directory as JSON repros",
    )
    difftest.add_argument(
        "--no-shrink", action="store_true", help="skip delta-debugging of failures"
    )
    difftest.set_defaults(func=_cmd_difftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
