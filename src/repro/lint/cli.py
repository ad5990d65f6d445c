"""The ``python -m repro lint`` subcommand.

Lives here so the lint layer owns its whole vertical, mirroring
``repro.batch.cli``; ``__main__`` just registers the parser.  Linting
needs no schema: the passes are purely syntactic/dataflow, so the command
works on any directory of sources out of the box.
"""

from __future__ import annotations

from ..batch.cli import add_runner_flags, run_command
from .diagnostics import Severity
from .service import LintScanReport, lint_directory

#: ``--fail-on`` choices; ``none`` disables threshold-based failure.
FAIL_ON_CHOICES = ("error", "warning", "info", "none")


def fail_threshold(name: str) -> Severity | None:
    return None if name == "none" else Severity.parse(name)


def add_lint_parser(sub) -> None:
    """Register the ``lint`` subcommand on an argparse subparsers object."""
    lint = sub.add_parser(
        "lint",
        help="check sources for soundness blockers and anti-patterns",
    )
    add_runner_flags(lint, "lint")
    lint.add_argument(
        "--fail-on",
        default="error",
        choices=FAIL_ON_CHOICES,
        help="exit non-zero when a finding at or above this severity exists "
        "(default: error); parse errors and crashed units always do",
    )
    lint.set_defaults(func=cmd_lint)


def cmd_lint(args) -> int:
    threshold = fail_threshold(args.fail_on)
    return run_command(
        args,
        lint_directory,
        LintScanReport.render_text,
        lambda report: report.exit_code(threshold),
    )
