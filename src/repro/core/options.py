"""Extraction options: one frozen value object instead of kwarg sprawl.

:class:`ExtractOptions` carries every behavioural knob of
:func:`~repro.core.extract_sql` and :func:`~repro.core.optimize_program`.
Being frozen and dict-convertible makes it safe to hash into cache keys and
to ship across process boundaries, which the batch scanner
(:mod:`repro.batch`) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

DIALECTS = ("repro", "postgres", "mysql", "sqlserver", "ansi")


@dataclass(frozen=True)
class ExtractOptions:
    """Options controlling extraction and rewriting.

    ``dialect``            target SQL dialect for rendered queries;
    ``ordering_matters``   ``False`` enables the keyword-search relaxation
                           (Experiment 3): rule T4's unique-key precondition
                           is waived because result order is irrelevant;
    ``allow_temp_tables``  enables the Section 2 fallback of shipping
                           non-query collections as temporary tables;
    ``profile``            name of a deployment profile (see
                           :mod:`repro.rewrites`): when set, extraction also
                           generates the per-site rewrite space, costs it
                           under the profile and records the selected winner
                           on each :class:`~repro.core.VariableExtraction`,
                           and rewriting keeps every loop whose as-written
                           form costs less than its push-down;
    ``frontend``           name of the registered language frontend
                           (:mod:`repro.frontends`) that parses string
                           sources — ``"minijava"`` (the default, full
                           backward compatibility) or ``"python"``; ignored
                           when a pre-parsed :class:`~repro.lang.Program`
                           is passed;
    ``precision``          enables the SSA-based precision layer (constant
                           folding, dead-branch pruning, copy propagation
                           in preprocessing, plus points-to-verified lint
                           downgrades) — on by default; ``False`` restores
                           the purely syntactic pipeline.
    """

    dialect: str = "repro"
    ordering_matters: bool = True
    allow_temp_tables: bool = False
    profile: str | None = None
    frontend: str = "minijava"
    precision: bool = True

    def __post_init__(self) -> None:
        # Function-level import: the registry lives beside the frontends
        # and must not load the whole pipeline just because options does.
        from ..frontends import get_frontend

        get_frontend(self.frontend)  # raises ValueError on unknown names
        if self.dialect not in DIALECTS:
            raise ValueError(
                f"unknown dialect {self.dialect!r}; expected one of {DIALECTS}"
            )
        if self.profile is not None:
            # Function-level import: repro.rewrites pulls in layers that
            # must not load just because options does.
            from ..rewrites.profile import get_profile

            get_profile(self.profile)  # raises ValueError on unknown names

    def to_dict(self) -> dict:
        """A JSON-ready mapping; stable across processes and runs."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExtractOptions":
        if not isinstance(data, dict):
            raise ValueError(f"options spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown option(s): {sorted(unknown)}")
        return cls(**data)

    def replace(self, **changes) -> "ExtractOptions":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)

