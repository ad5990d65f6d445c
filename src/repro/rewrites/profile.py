"""Deployment profiles: the environment a rewrite is costed against.

Cobra's observation (PAPERS.md) is that the best among equivalent rewrites
depends on where the application runs: a chatty loop is fine when client
and server share a machine, and catastrophic over a WAN.  A
:class:`DeploymentProfile` captures exactly the parameters that decide
this — network round-trip latency, effective transfer bandwidth, per-row
server and client costs, and coarse table statistics (cardinalities and a
default selectivity).

Two built-ins ship:

``local``  client and server on one machine (the paper's testbed): cheap
           round trips, fast transfer;
``wan``    client far from the server: ~40 ms round trips, slow transfer —
           the setting where per-row query loops dominate everything else.

Profiles are frozen and dict-convertible so they can ride inside
:class:`~repro.core.ExtractOptions` cache keys by name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from ..db import CostParameters

_COST_FIELDS = tuple(f.name for f in fields(CostParameters))


@dataclass(frozen=True)
class DeploymentProfile:
    """Cost-relevant description of one deployment environment.

    ``cost`` holds the network and server parameters; running a program
    through :class:`~repro.db.Connection` with them yields simulated
    timings on the same scale the analytic cost model predicts.
    ``table_rows`` maps table names (case-insensitive) to assumed
    cardinalities; tables not listed get ``default_table_rows``.  It is
    stored as a tuple of pairs so the profile stays hashable.
    """

    name: str
    cost: CostParameters = CostParameters()
    #: Client-side cost of touching one row (iteration, hashing, compare).
    client_row_ms: float = 0.002
    #: Estimated transfer size of one result row.
    row_bytes: float = 40.0
    table_rows: tuple[tuple[str, float], ...] = ()
    default_table_rows: float = 2000.0
    #: Fraction of a table a selection predicate retains.
    selectivity: float = 0.33

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile needs a name")
        numeric = (
            *asdict(self.cost).values(),
            self.client_row_ms, self.row_bytes, self.default_table_rows,
        )
        if any(v < 0 for v in numeric) or self.cost.bytes_per_ms == 0:
            raise ValueError(f"profile {self.name!r} has a negative/zero cost parameter")
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError(f"profile {self.name!r}: selectivity must be in (0, 1]")

    # ------------------------------------------------------------------

    def cardinality(self, table: str) -> float:
        """Assumed row count of ``table`` under this profile."""
        lowered = table.lower()
        for name, rows in self.table_rows:
            if name.lower() == lowered:
                return float(rows)
        return float(self.default_table_rows)

    def with_tables(self, rows: dict[str, float]) -> "DeploymentProfile":
        """A copy with table cardinalities replaced."""
        return replace(self, table_rows=tuple(sorted(rows.items())))

    def with_observed(self, database) -> "DeploymentProfile":
        """A copy whose table cardinalities are read from a live database's
        statistics (``Database.stats``) instead of assumed constants, so
        rewrite costing ranks alternatives against the observed data shape
        rather than the profile's defaults."""
        observed = {
            name: float(database.stats(name).row_count)
            for name in database.table_names()
        }
        return self.with_tables(observed)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A flat JSON-ready mapping: the cost parameters sit beside the
        profile's own fields."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(asdict(data.pop("cost")))
        data["table_rows"] = {name: rows for name, rows in self.table_rows}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentProfile":
        if not isinstance(data, dict):
            raise ValueError(
                f"profile spec must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)} - {"cost"} | set(_COST_FIELDS)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown profile field(s): {sorted(unknown)}")
        payload = {k: v for k, v in data.items() if k not in _COST_FIELDS}
        payload["cost"] = CostParameters(
            **{k: v for k, v in data.items() if k in _COST_FIELDS}
        )
        table_rows = payload.get("table_rows", ())
        if isinstance(table_rows, dict):
            payload["table_rows"] = tuple(sorted(table_rows.items()))
        else:
            payload["table_rows"] = tuple((n, float(r)) for n, r in table_rows)
        return cls(**payload)


LOCAL = DeploymentProfile(name="local")

WAN = DeploymentProfile(
    name="wan",
    cost=CostParameters(
        round_trip_ms=40.0, bytes_per_ms=25_000.0, per_query_overhead_ms=0.3
    ),
)

#: Built-in profiles, addressable by name from ``ExtractOptions.profile``
#: and ``--profile``.
PROFILES: dict[str, DeploymentProfile] = {
    LOCAL.name: LOCAL,
    WAN.name: WAN,
}


def get_profile(name: str | DeploymentProfile) -> DeploymentProfile:
    """Resolve a profile by name (or pass a profile through unchanged)."""
    if isinstance(name, DeploymentProfile):
        return name
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown deployment profile {name!r}; "
            f"expected one of {sorted(PROFILES)}"
        ) from None


def register_profile(profile: DeploymentProfile) -> DeploymentProfile:
    """Make a custom profile addressable by name (e.g. for ``--profile``)."""
    PROFILES[profile.name] = profile
    return profile
