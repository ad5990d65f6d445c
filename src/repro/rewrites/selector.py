"""Per-site winner selection over the rewrite space.

``plan_rewrites`` is the top of the tentpole: generate the space
(:mod:`repro.rewrites.alternatives`), cost every member under a
deployment profile (:mod:`repro.rewrites.cost`), and pick the cheapest
per site, recording an explain-style justification that names the
runner-up and the cost delta.  Ties break toward the more declarative
kind (push-down first, as-written last), so profiles with degenerate
costs still select deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import Catalog
from .alternatives import (
    KIND_AS_WRITTEN,
    KIND_PUSHDOWN,
    Alternative,
    Site,
    generate_alternatives,
)
from .cost import AlternativeCostModel, CostBreakdown
from .profile import DeploymentProfile, get_profile

#: Tie-break order: prefer pushing work to the database.
KIND_PREFERENCE = {
    "pushdown": 0,
    "batched": 1,
    "prefetch": 2,
    "hybrid": 3,
    "as-written": 4,
}


@dataclass
class CostedAlternative:
    alternative: Alternative
    cost: CostBreakdown

    @property
    def kind(self) -> str:
        return self.alternative.kind

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.alternative.description,
            "cost_ms": self.cost.to_dict(),
        }


@dataclass
class SiteChoice:
    """One site's costed space and the selected winner."""

    site: Site
    costed: list[CostedAlternative]
    chosen: CostedAlternative
    why: str

    @property
    def as_written_wins(self) -> bool:
        """Whether keeping the loop costs less than pushing it down; the
        verdict ``optimize_program`` applies (ties go to push-down)."""
        cost = {c.kind: c.cost.total_ms for c in self.costed}
        return (
            KIND_PUSHDOWN in cost and cost[KIND_AS_WRITTEN] < cost[KIND_PUSHDOWN]
        )

    def to_dict(self) -> dict:
        return {
            "loop_sid": self.site.loop_sid,
            "variables": list(self.site.variables),
            "chosen": self.chosen.kind,
            "why": self.why,
            "alternatives": [c.to_dict() for c in self.costed],
        }


@dataclass
class RewritePlan:
    """The selector's output for one function under one profile."""

    profile: DeploymentProfile
    function: str
    choices: list[SiteChoice] = field(default_factory=list)

    def choice_for(self, loop_sid: int) -> SiteChoice | None:
        for choice in self.choices:
            if choice.site.loop_sid == loop_sid:
                return choice
        return None

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.name,
            "function": self.function,
            "sites": [choice.to_dict() for choice in self.choices],
        }


def select_alternative(
    site: Site, model: AlternativeCostModel
) -> SiteChoice:
    """Cost every member of ``site``'s space and pick the winner."""
    costed = [
        CostedAlternative(alternative=alt, cost=model.breakdown(site, alt))
        for alt in site.alternatives
    ]
    costed.sort(
        key=lambda c: (c.cost.total_ms, KIND_PREFERENCE.get(c.kind, 99))
    )
    chosen = costed[0]
    if len(costed) == 1:
        why = f"{chosen.kind} is the only alternative for this site"
    else:
        runner_up = costed[1]
        delta = runner_up.cost.total_ms - chosen.cost.total_ms
        trip_delta = runner_up.cost.round_trips - chosen.cost.round_trips
        why = (
            f"{chosen.kind} wins at {chosen.cost.total_ms:.3f} ms estimated; "
            f"runner-up {runner_up.kind} costs {runner_up.cost.total_ms:.3f} ms "
            f"(+{delta:.3f} ms, {trip_delta:+.0f} round trips)"
        )
    return SiteChoice(site=site, costed=costed, chosen=chosen, why=why)


def plan_rewrites(
    report,
    catalog: Catalog,
    profile: str | DeploymentProfile,
    database=None,
    dialect: str = "repro",
) -> RewritePlan:
    """Generate, cost and select: the full Cobra pass for one report."""
    resolved = get_profile(profile)
    model = AlternativeCostModel(resolved, database)
    sites = generate_alternatives(report, catalog, dialect)
    plan = RewritePlan(profile=resolved, function=report.function)
    for site in sites:
        plan.choices.append(select_alternative(site, model))
    return plan
