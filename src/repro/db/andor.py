"""AND-OR DAG memo structure (Volcano/Cascades, paper Appendix C).

Each *group* (OR-node, the paper's equivalence node) holds alternative ways
of computing the same result; each alternative (AND-node, operation node)
names an operator and child groups.  The physical planner
(:mod:`repro.db.planner`) builds one group per lowering choice point, with
one operation node per sound physical strategy.  Duplicate alternatives
are detected by a structural key, mirroring the framework's
duplicate-derivation detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class AndNode:
    """An operation node: one way of computing a group's result."""

    op: str
    children: list[int] = field(default_factory=list)  # child group ids
    local_cost: float = 0.0
    payload: Any = None

    def key(self) -> tuple:
        return (self.op, tuple(self.children), round(self.local_cost, 9))


@dataclass
class Group:
    """An equivalence node: alternative computations of one result."""

    group_id: int
    label: str = ""
    alternatives: list[AndNode] = field(default_factory=list)
    _keys: set[tuple] = field(default_factory=set)

    def add(self, alternative: AndNode) -> bool:
        """Add an alternative unless an identical derivation exists."""
        key = alternative.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.alternatives.append(alternative)
        return True


@dataclass
class PlanChoice:
    """The optimizer's decision for one group."""

    group_id: int
    cost: float
    alternative: AndNode
    children: list["PlanChoice"] = field(default_factory=list)


class Memo:
    """The group table with memoized best plans."""

    def __init__(self):
        self._groups: dict[int, Group] = {}
        self._best: dict[int, PlanChoice] = {}
        self._next_id = 0

    def new_group(self, label: str = "") -> Group:
        group = Group(group_id=self._next_id, label=label)
        self._groups[group.group_id] = group
        self._next_id += 1
        return group

    def __len__(self) -> int:
        return len(self._groups)

    # ------------------------------------------------------------------

    def optimize(self, group_id: int) -> PlanChoice:
        """Return the cheapest plan for a group (memoized, bottom-up)."""
        cached = self._best.get(group_id)
        if cached is not None:
            return cached
        group = self._groups[group_id]
        if not group.alternatives:
            raise ValueError(f"group {group_id} ({group.label}) has no alternatives")
        best: PlanChoice | None = None
        for alternative in group.alternatives:
            children = [self.optimize(child) for child in alternative.children]
            cost = alternative.local_cost + sum(c.cost for c in children)
            if best is None or cost < best.cost:
                best = PlanChoice(
                    group_id=group_id,
                    cost=cost,
                    alternative=alternative,
                    children=children,
                )
        assert best is not None
        self._best[group_id] = best
        return best
