"""Unit tests for table statistics and cardinality estimation.

Covers statistics collection (row counts, NDV, min/max, NULL accounting,
equi-width histograms), the lazy-build/dirty-marking lifecycle shared with
the hash indexes, the statistics-epoch keying of the plan cache, the
``columnar_mode`` knob, and the rewrite-cost bridge
(``DeploymentProfile.with_observed`` and the estimator-upgraded
``AlternativeCostModel``).
"""

from __future__ import annotations

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    Catalog,
    Col,
    Join,
    Lit,
    Param,
    Select,
    Table,
)
from repro.db import (
    CardinalityEstimator,
    Connection,
    Database,
    EngineError,
    Histogram,
    TableStats,
)
from repro.db.stats import (
    HISTOGRAM_BUCKETS,
    build_sampled_table_stats,
    estimate_ndv,
)


def _make_db(rows: int = 200) -> Database:
    """``rows`` rows of t(id, grp, val, label): grp cycles 0..9, val = id,
    label cycles over four strings."""
    cat = Catalog()
    cat.define("t", ["id", "grp", "val", "label"], key=("id",))
    db = Database(cat)
    db.insert_many(
        "t",
        [
            {"id": i, "grp": i % 10, "val": float(i), "label": f"L{i % 4}"}
            for i in range(rows)
        ],
    )
    return db


class TestTableStats:
    def test_row_count_and_column_coverage(self):
        stats = _make_db(200).stats("t")
        assert isinstance(stats, TableStats)
        assert stats.row_count == 200
        assert set(stats.columns) == {"id", "grp", "val", "label"}

    def test_ndv_and_minmax(self):
        stats = _make_db(200).stats("t")
        grp = stats.column("grp")
        assert grp.ndv == 10
        assert grp.min_value == 0 and grp.max_value == 9
        val = stats.column("val")
        assert val.ndv == 200
        assert val.min_value == 0.0 and val.max_value == 199.0
        assert stats.column("label").ndv == 4

    def test_null_accounting(self):
        db = _make_db(10)
        db.insert("t", {"id": 100, "grp": None, "val": None, "label": None})
        grp = db.stats("t").column("grp")
        assert grp.row_count == 11
        assert grp.null_count == 1
        assert grp.ndv == 10  # NULLs are not distinct values

    def test_numeric_column_gets_histogram(self):
        hist = _make_db(200).stats("t").column("val").histogram
        assert hist is not None
        assert len(hist.counts) == HISTOGRAM_BUCKETS
        assert sum(hist.counts) == hist.total == 200

    def test_string_column_has_no_histogram(self):
        assert _make_db(50).stats("t").column("label").histogram is None

    def test_stats_cached_until_data_changes(self):
        db = _make_db(50)
        first = db.stats("t")
        assert db.stats("t") is first  # cached object, no rebuild
        db.insert("t", {"id": 999, "grp": 0, "val": 999.0, "label": "x"})
        second = db.stats("t")
        assert second is not first
        assert second.row_count == 51
        assert second.column("val").max_value == 999.0

    def test_clear_resets_stats(self):
        db = _make_db(50)
        assert db.stats("t").row_count == 50
        db.clear("t")
        stats = db.stats("t")
        assert stats.row_count == 0
        assert stats.column("val").ndv == 0
        assert stats.column("val").histogram is None

    def test_unknown_table_raises(self):
        with pytest.raises(EngineError):
            _make_db(1).stats("nope")

    def test_to_dict_shape(self):
        data = _make_db(10).stats("t").to_dict()
        assert data["table"] == "t"
        assert data["row_count"] == 10
        assert data["columns"]["grp"]["ndv"] == 10


class TestHistogram:
    def test_fraction_le_boundaries_and_monotonicity(self):
        hist = _make_db(200).stats("t").column("val").histogram
        assert hist.fraction_le(-1.0) == 0.0
        assert hist.fraction_le(199.0) == 1.0
        assert hist.fraction_le(10_000.0) == 1.0
        fractions = [hist.fraction_le(float(v)) for v in range(0, 200, 10)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_uniform_midpoint_is_about_half(self):
        hist = _make_db(200).stats("t").column("val").histogram
        assert 0.4 <= hist.fraction_le(100.0) <= 0.6

    def test_empty_histogram(self):
        assert Histogram(0.0, 0.0, (0,) * 4, 0).fraction_le(1.0) == 0.0


class TestCardinalityEstimator:
    def test_equality_uses_ndv(self):
        db = _make_db(200)
        est = CardinalityEstimator(db)
        # grp has 10 distinct values: σ[grp = 3] ≈ 200/10 rows.
        query = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))
        assert est.estimate(query) == pytest.approx(20.0, rel=0.01)
        assert est.selectivity(query.pred, "t") == pytest.approx(0.1, rel=0.01)

    def test_range_uses_histogram(self):
        est = CardinalityEstimator(_make_db(200))
        query = Select(Table("t"), BinOp("<", Col("val"), Lit(100.0)))
        # Uniform values 0..199: about half the rows fall below 100.
        assert 60 <= est.estimate(query) <= 140

    def test_out_of_range_literal_estimates_zero(self):
        est = CardinalityEstimator(_make_db(200))
        query = Select(Table("t"), BinOp("=", Col("val"), Lit(10_000.0)))
        assert est.estimate(query) == 0.0

    def test_no_predicate_is_full_table(self):
        est = CardinalityEstimator(_make_db(123))
        assert est.estimate(Table("t")) == 123.0
        assert est.selectivity(None, "t") == 1.0

    def test_grouped_aggregate_estimates_group_count(self):
        est = CardinalityEstimator(_make_db(200))
        query = Aggregate(
            Table("t"), (Col("grp"),), (AggItem(AggCall("count", None), "n"),)
        )
        assert est.estimate(query) == pytest.approx(10.0, rel=0.01)

    def test_global_aggregate_estimates_one_row(self):
        est = CardinalityEstimator(_make_db(200))
        query = Aggregate(Table("t"), (), (AggItem(AggCall("count", None), "n"),))
        assert est.estimate(query) == 1.0

    def test_equijoin_divides_by_max_ndv(self):
        est = CardinalityEstimator(_make_db(200))
        join = Join(
            Table("t", "a"),
            Table("t", "b"),
            BinOp("=", Col("grp", "a"), Col("grp", "b")),
        )
        # |L|·|R| / max(NDV) = 200·200/10; order of magnitude is the claim.
        estimate = est.estimate(join)
        assert 1_000 <= estimate <= 20_000

    def test_equijoin_on_zero_ndv_keys_executes(self):
        # Both key columns have NDV 0 (all-NULL key, empty table): the
        # join estimate must not divide by zero on either entry point.
        cat = Catalog()
        cat.define("a", ["id", "k"], key=("id",))
        cat.define("b", ["id", "k"], key=("id",))
        db = Database(cat)
        db.insert_many("a", [{"id": i, "k": None} for i in range(100)])
        join = Join(Table("a"), Table("b"), BinOp("=", Col("k", "a"), Col("k", "b")))
        assert CardinalityEstimator(db).estimate(join) == 0.0
        assert db.execute(join, engine="reference") == []
        assert db.execute(join, engine="both") == []
        assert Connection(db).execute_query(join) == []

    def test_select_selectivity_needs_single_base_table(self):
        est = CardinalityEstimator(_make_db(50))
        over_table = Select(Table("t"), BinOp("=", Col("grp"), Lit(1)))
        assert est.select_selectivity(over_table) == pytest.approx(0.1, rel=0.01)
        over_join = Select(
            Join(Table("t", "a"), Table("t", "b"), None, "cross"),
            BinOp("=", Col("grp", "a"), Lit(1)),
        )
        assert est.select_selectivity(over_join) is None

    def test_degrades_on_unknown_tables(self):
        est = CardinalityEstimator(_make_db(10))
        assert est.table_rows("missing") == 0.0
        assert est.ndv("missing", "x") is None

    def test_unknown_table_is_the_only_swallowed_error(self, monkeypatch):
        db = _make_db(10)
        est = CardinalityEstimator(db)
        assert est.stats("missing") is None

        def broken(name, sample=None):
            raise RuntimeError("statistics bug")

        monkeypatch.setattr(db, "stats", broken)
        with pytest.raises(RuntimeError, match="statistics bug"):
            est.stats("t")

    @pytest.mark.parametrize("rows", [40, 20_000])  # exact and sampled builds
    def test_mixed_and_unhashable_columns_build_stats(self, rows):
        cat = Catalog()
        cat.define("m", ["id", "mixed", "blob"], key=("id",))
        db = Database(cat)
        db.insert_many(
            "m",
            [
                {"id": i, "mixed": i if i % 3 else f"s{i}", "blob": [i]}
                for i in range(rows)
            ],
        )
        est = CardinalityEstimator(db)
        assert est.table_rows("m") == float(rows)
        assert est.ndv("m", "mixed") is not None
        assert est.ndv("m", "blob") is not None


class TestPlanCacheEpochs:
    QUERY = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))

    def test_plan_cached_within_epoch(self):
        db = _make_db(100)
        plan = db.plan(self.QUERY)
        hits = db.plan_cache_hits
        assert db.plan(self.QUERY) is plan
        assert db.plan_cache_hits == hits + 1

    def test_insert_forces_replan(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        misses = db.plan_cache_misses
        db.insert("t", {"id": 1000, "grp": 3, "val": 1.0, "label": "x"})
        db.plan(self.QUERY)
        assert db.plan_cache_misses == misses + 1

    def test_create_index_forces_replan(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        misses = db.plan_cache_misses
        db.create_index("t", "grp")
        db.plan(self.QUERY)
        assert db.plan_cache_misses == misses + 1

    def test_columnar_mode_change_forces_replan(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        misses = db.plan_cache_misses
        db.columnar_mode = "off"
        db.plan(self.QUERY)
        assert db.plan_cache_misses == misses + 1

    def test_columnar_mode_reassign_same_value_keeps_cache(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        hits = db.plan_cache_hits
        db.columnar_mode = "auto"  # unchanged: no invalidation
        db.plan(self.QUERY)
        assert db.plan_cache_hits == hits + 1

    def test_slot_values_in_and_out_of_range_give_two_variants(self):
        """``val`` spans [0, 99]: an equality inside the range estimates
        1/NDV, one outside estimates 0, so the template is re-planned once
        and each later value reuses the variant whose estimate it shares."""
        db = _make_db(100)
        query = Select(Table("t"), BinOp("=", Col("val"), Param("$0")))
        inside = db.plan(query, {"$0": 5.0})
        assert db.plan_cache_replans == 0
        misses = db.plan_cache_misses
        db.plan(query, {"$0": 500.0})
        assert db.plan_cache_replans == 1
        assert db.plan_cache_misses == misses + 1
        assert db.last_plan_search["replanned"] == "estimate changed"
        assert len(db._plan_cache[query][1]) == 2
        hits = db.plan_cache_hits
        assert db.plan(query, {"$0": 7.0}) is inside
        assert "replanned" not in db.last_plan_search
        db.plan(query, {"$0": -3.0})
        assert db.last_plan_search["replanned"] == "estimate changed"
        assert db.plan_cache_hits == hits + 2
        assert db.plan_cache_replans == 1

    def test_epoch_change_is_a_miss_not_a_replan(self):
        db = _make_db(100)
        query = Select(Table("t"), BinOp("=", Col("val"), Param("$0")))
        db.plan(query, {"$0": 5.0})
        db.insert("t", {"id": 1000, "grp": 3, "val": 1.0, "label": "x"})
        misses = db.plan_cache_misses
        db.plan(query, {"$0": 5.0})
        assert db.plan_cache_misses == misses + 1
        assert db.plan_cache_replans == 0

    def test_named_parameters_do_not_reach_the_estimator(self):
        """Only slots are read at plan time: a ``:name`` parameter stays an
        unknown value, so one plan serves every value."""
        db = _make_db(100)
        query = Select(Table("t"), BinOp("=", Col("val"), Param("v")))
        plan = db.plan(query, {"v": 5.0})
        assert db.plan(query, {"v": 500.0}) is plan
        assert db.plan_cache_replans == 0

    def test_columnar_mode_validates(self):
        db = _make_db(1)
        with pytest.raises(EngineError):
            db.columnar_mode = "vectorized"
        assert db.columnar_mode == "auto"


def _wide_db(rows: int) -> Database:
    """t(id, grp, val): grp has 100 distinct values, val is all-distinct,
    and every 10th val is NULL — known ground truth for estimate checks."""
    cat = Catalog()
    cat.define("t", ["id", "grp", "val"], key=("id",))
    db = Database(cat)
    db.insert_many(
        "t",
        [
            {
                "id": i,
                "grp": i % 100,
                "val": None if i % 10 == 0 else float(i),
            }
            for i in range(rows)
        ],
    )
    return db


class TestEstimateNdv:
    def test_all_distinct_sample_estimates_population(self):
        # Every sampled value unique → the population is likely all-distinct.
        assert estimate_ndv(1000, 1000, 50_000) >= 25_000

    def test_constant_sample_estimates_one(self):
        assert estimate_ndv(1, 1000, 50_000) == pytest.approx(1.0, abs=1.0)

    def test_low_cardinality_recovered(self):
        # 100 true values: a 1000-row sample sees all of them, and the
        # estimator must not inflate far beyond what it saw.
        assert 100 <= estimate_ndv(100, 1000, 50_000) <= 200

    def test_degenerate_inputs(self):
        assert estimate_ndv(0, 0, 1000) == 0.0
        assert estimate_ndv(5, 5, 5) == 5.0

    def test_never_exceeds_population(self):
        assert estimate_ndv(999, 1000, 1200) <= 1200


class TestSampledStats:
    N = 20_000
    SAMPLE = 2_000

    def test_explicit_sample_marks_metadata(self):
        stats = _wide_db(self.N).stats("t", sample=self.SAMPLE)
        assert stats.sampled is True
        assert stats.sample_size == self.SAMPLE
        assert stats.row_count == self.N  # row count stays exact

    def test_sample_zero_forces_exact(self):
        stats = _wide_db(self.N).stats("t", sample=0)
        assert stats.sampled is False
        assert stats.column("grp").ndv == 100
        assert stats.column("val").null_count == self.N // 10

    def test_sampled_ndv_within_2x(self):
        db = _wide_db(self.N)
        exact = db.stats("t", sample=0)
        sampled = db.stats("t", sample=self.SAMPLE)
        for column in ("id", "grp", "val"):
            true_ndv = exact.column(column).ndv
            est = sampled.column(column).ndv
            assert true_ndv / 2 <= est <= true_ndv * 2, (column, est, true_ndv)

    def test_sampled_null_count_scaled(self):
        stats = _wide_db(self.N).stats("t", sample=self.SAMPLE)
        true_nulls = self.N // 10
        est = stats.column("val").null_count
        assert true_nulls / 2 <= est <= true_nulls * 2

    def test_sampling_is_deterministic(self):
        db = _wide_db(self.N)
        first = db.stats("t", sample=self.SAMPLE)
        second = db.stats("t", sample=self.SAMPLE)
        assert first is not second  # explicit builds are never cached
        assert first.to_dict() == second.to_dict()

    def test_sample_covering_table_degrades_to_exact(self):
        db = _wide_db(500)
        stats = db.stats("t", sample=10_000)
        assert stats.sampled is False
        assert stats.column("grp").ndv == 100

    def test_explicit_build_leaves_cache_alone(self):
        db = _wide_db(500)
        cached = db.stats("t")
        db.stats("t", sample=100)
        assert db.stats("t") is cached

    def test_auto_policy_samples_above_threshold(self, monkeypatch):
        monkeypatch.setattr("repro.db.stats.STATS_EXACT_MAX", 1_000)
        monkeypatch.setattr("repro.db.stats.STATS_SAMPLE_SIZE", 500)
        db = _wide_db(5_000)
        stats = db.stats("t")
        assert stats.sampled is True
        assert stats.sample_size == 500
        assert stats.row_count == 5_000

    def test_auto_policy_exact_below_threshold(self):
        stats = _wide_db(500).stats("t")
        assert stats.sampled is False

    def test_sampled_histogram_usable_for_ranges(self):
        db = _wide_db(self.N)
        monkey_stats = db.stats("t", sample=self.SAMPLE)
        hist = monkey_stats.column("id").histogram
        assert hist is not None
        # Uniform ids 0..N: the sampled histogram still puts ~half the
        # mass below the midpoint.
        assert 0.3 <= hist.fraction_le(self.N / 2) <= 0.7

    def test_to_dict_carries_sampling_metadata(self):
        data = _wide_db(self.N).stats("t", sample=self.SAMPLE).to_dict()
        assert data["sampled"] is True
        assert data["sample_size"] == self.SAMPLE

    def test_build_sampled_direct(self):
        rows = [{"id": i, "v": i % 7} for i in range(3_000)]
        stats = build_sampled_table_stats("x", rows, ["id", "v"], 300)
        assert stats.row_count == 3_000
        assert stats.sampled is True
        assert 3 <= stats.column("v").ndv <= 14


class TestRewriteCostBridge:
    def test_with_observed_reads_live_row_counts(self):
        from repro.rewrites.profile import LOCAL

        db = _make_db(137)
        profile = LOCAL.with_observed(db)
        assert profile.cardinality("t") == 137.0
        assert profile.cardinality("unknown") == LOCAL.default_table_rows

    def test_estimator_upgrades_selection_selectivity(self):
        from repro.rewrites.cost import AlternativeCostModel
        from repro.rewrites.profile import LOCAL

        db = _make_db(200)
        query = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))
        flat = AlternativeCostModel(LOCAL, database=db)
        assert flat.cardinality(query).rows == pytest.approx(
            200 * LOCAL.selectivity
        )
        observed = AlternativeCostModel(
            LOCAL, database=db, estimator=CardinalityEstimator(db)
        )
        assert observed.cardinality(query).rows == pytest.approx(20.0, rel=0.01)
