"""Deterministic text rendering of a rewrite plan (``--explain-rewrites``).

The output is golden-file tested: every number comes from the analytic
cost model (no timings), so the rendering is stable across runs and
machines for a given source + schema + profile.
"""

from __future__ import annotations

from .selector import RewritePlan, SiteChoice


def render_explain(plan: RewritePlan) -> str:
    profile = plan.profile
    cost = profile.cost
    lines = [
        f"rewrite plan for {plan.function!r} under profile {profile.name!r} "
        f"(rtt {cost.round_trip_ms:g} ms, {cost.bytes_per_ms:g} bytes/ms)"
    ]
    if not plan.choices:
        lines.append("  (no extraction sites)")
        return "\n".join(lines)
    for choice in plan.choices:
        lines.extend(_render_choice(choice))
    return "\n".join(lines)


def _render_choice(choice: SiteChoice) -> list[str]:
    site = choice.site
    variables = ", ".join(site.variables)
    lines = [f"  site loop@{site.loop_sid} [{variables}]:"]
    for costed in choice.costed:
        marker = "->" if costed is choice.chosen else "  "
        cost = costed.cost
        lines.append(
            f"    {marker} {costed.kind:<11} {cost.total_ms:>10.3f} ms  "
            f"({cost.round_trips:g} round trip(s): "
            f"network {cost.round_trip_ms:.3f}, transfer {cost.transfer_ms:.3f}, "
            f"server {cost.server_ms:.3f}, client {cost.client_ms:.3f})"
        )
    lines.append(f"    {choice.why}")
    return lines
