"""DeploymentProfile construction, validation, registry, and options wiring."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    CostParameters,
    DeploymentProfile,
    ExtractOptions,
    get_profile,
    register_profile,
)
from repro.rewrites.profile import LOCAL, PROFILES, WAN


class TestBuiltins:
    def test_builtin_names(self):
        assert set(PROFILES) >= {"local", "wan"}
        assert PROFILES["local"] is LOCAL
        assert PROFILES["wan"] is WAN

    def test_wan_is_chattier_than_local(self):
        """The two built-ins must actually disagree on the decisive axis."""
        assert WAN.cost.round_trip_ms > 10 * LOCAL.cost.round_trip_ms
        assert WAN.cost.bytes_per_ms < LOCAL.cost.bytes_per_ms

    def test_get_profile_by_name_and_passthrough(self):
        assert get_profile("wan") is WAN
        assert get_profile(LOCAL) is LOCAL

    def test_get_profile_unknown_name(self):
        with pytest.raises(ValueError, match="unknown deployment profile"):
            get_profile("datacentre")

    def test_register_profile(self):
        custom = replace(
            LOCAL, name="test-registered", cost=CostParameters(round_trip_ms=5.0)
        )
        try:
            register_profile(custom)
            assert get_profile("test-registered") is custom
        finally:
            PROFILES.pop("test-registered", None)


class TestValidation:
    def test_needs_a_name(self):
        with pytest.raises(ValueError, match="needs a name"):
            DeploymentProfile(name="")

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="negative/zero"):
            DeploymentProfile(
                name="bad", cost=CostParameters(round_trip_ms=-1.0)
            )

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="negative/zero"):
            DeploymentProfile(name="bad", cost=CostParameters(bytes_per_ms=0.0))

    @pytest.mark.parametrize("selectivity", [0.0, -0.5, 1.5])
    def test_rejects_out_of_range_selectivity(self, selectivity):
        with pytest.raises(ValueError, match="selectivity"):
            DeploymentProfile(name="bad", selectivity=selectivity)

    def test_zero_latency_is_allowed(self):
        assert DeploymentProfile(
            name="colocated", cost=CostParameters(round_trip_ms=0.0)
        )


class TestCardinalities:
    def test_default_and_override(self):
        profile = LOCAL.with_tables({"orders": 100.0})
        assert profile.cardinality("orders") == 100.0
        assert profile.cardinality("ORDERS") == 100.0  # case-insensitive
        assert profile.cardinality("unknown") == profile.default_table_rows

    def test_with_tables_does_not_mutate(self):
        LOCAL.with_tables({"orders": 7.0})
        assert LOCAL.cardinality("orders") == LOCAL.default_table_rows


class TestSerialization:
    def test_round_trip(self):
        profile = replace(
            WAN, name="edge", table_rows=(("orders", 50.0), ("tiers", 10.0))
        )
        data = profile.to_dict()
        assert data["table_rows"] == {"orders": 50.0, "tiers": 10.0}
        assert DeploymentProfile.from_dict(data) == profile

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown profile field"):
            DeploymentProfile.from_dict({"name": "x", "latency": 3})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            DeploymentProfile.from_dict(["local"])

    def test_cost_parameters_mirror_profile(self):
        """The flat JSON shape carries the profile's one cost record."""
        data = WAN.to_dict()
        assert "cost" not in data
        assert data["round_trip_ms"] == WAN.cost.round_trip_ms == 40.0
        assert data["bytes_per_ms"] == WAN.cost.bytes_per_ms
        assert data["per_query_overhead_ms"] == WAN.cost.per_query_overhead_ms
        assert DeploymentProfile.from_dict(data).cost == WAN.cost


class TestOptionsWiring:
    def test_options_accept_builtin_profile(self):
        options = ExtractOptions(profile="wan")
        assert options.profile == "wan"
        assert options.to_dict()["profile"] == "wan"

    def test_options_reject_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown deployment profile"):
            ExtractOptions(profile="nope")

    def test_profile_changes_cache_identity(self):
        """Distinct profiles must produce distinct option dicts, or the scan
        cache would serve a plan costed under the wrong environment."""
        assert (
            ExtractOptions(profile="local").to_dict()
            != ExtractOptions(profile="wan").to_dict()
        )
        assert ExtractOptions().to_dict()["profile"] is None
