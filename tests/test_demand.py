"""Tests for the demand-system module."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interference_lab import (
    DemandSystem,
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    demand_at,
    dense_oracle,
    generate_demand_system,
    global_treatment_effect,
    outcome,
)
from interference_lab.demand import csv_records


def make_system(own, labels, within, background=0.0, prices=None, quantities=None):
    part = Partition(np.asarray(labels))
    n = part.n
    return DemandSystem(
        base_prices=np.ones(n) if prices is None else np.asarray(prices, float),
        base_quantities=np.ones(n) if quantities is None else np.asarray(quantities, float),
        own=np.asarray(own, dtype=float),
        within=np.asarray(within, dtype=float),
        background=background,
        partition=part,
    )


class TestPartition:
    def test_sizes_and_counts(self):
        part = Partition(np.array([0, 0, 1, 2, 2, 2]))
        assert part.n == 6
        assert part.n_clusters == 3
        assert part.sizes().tolist() == [2, 1, 3]

    def test_from_labels_relabels_by_first_appearance(self):
        part = Partition.from_labels([7, 7, 3, 9, 3])
        assert part.cluster_of.tolist() == [0, 0, 1, 2, 1]

    def test_rejects_gap_in_ids(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]))
        with pytest.raises(ValueError, match="contiguous"):
            Partition(np.array([0, 2**62]))

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            Partition(np.array([-1, 0]))
        with pytest.raises(ValueError):
            Partition(np.array([], dtype=np.int64))

    def test_rejects_non_integer_ids(self):
        # Converting them to int64 would make 1.7 cluster 1 and True cluster 1.
        for labels in ([0, 1.7, 1], np.array([True, False])):
            with pytest.raises(ValueError, match="^cluster ids must be integers$"):
                Partition(labels)
        # An empty list is a float array, but the emptiness is what its message names.
        with pytest.raises(ValueError, match="^partition must be a non-empty 1-d label array$"):
            Partition([])


class TestElasticities:
    def test_rejects_nonnegative_own(self):
        with pytest.raises(ValueError):
            make_system([-2.0, 0.0], [0, 0], [0.5])

    def test_rejects_negative_within(self):
        with pytest.raises(ValueError):
            make_system([-2.0, -2.0], [0, 0], [-0.1])

    def test_rejects_within_below_background(self):
        with pytest.raises(ValueError):
            make_system([-2.0, -2.0], [0, 0], [0.01], background=0.05)

    @pytest.mark.parametrize("own,within,background", [
        ([-math.inf, -2.0], [0.5], 0.0), ([-2.0, -2.0], [math.nan], 0.0),
        ([-2.0, -2.0], [math.inf], 0.0), ([-2.0, -2.0], [0.5], math.nan),
        ([-2.0, -2.0], [0.5], math.inf)])
    def test_rejects_non_finite_elasticities(self, own, within, background):
        with pytest.raises(ValueError, match="must be finite"):
            make_system(own, [0, 0], within, background=background)

    @pytest.mark.parametrize("prices,quantities", [([math.inf, 1.0], None),
                                                   (None, [1.0, math.nan])])
    def test_rejects_non_finite_prices_and_quantities(self, prices, quantities):
        with pytest.raises(ValueError, match="must be finite"):
            make_system([-2.0, -2.0], [0, 0], [0.5], prices=prices, quantities=quantities)

    def test_zero_within_allowed_without_background(self):
        system = make_system([-2.0, -2.0], [0, 0], [0.0], background=0.0)
        assert system.background == 0.0

    def test_dense_matrix_layout(self):
        system = make_system([-2.0, -3.0, -1.5], [0, 0, 1], [0.4, 0.0],
                             background=0.1)
        expected = np.array([
            [-2.0, 0.4, 0.1],
            [0.4, -3.0, 0.1],
            [0.1, 0.1, -1.5],
        ])
        np.testing.assert_allclose(system.dense_matrix(), expected)


class TestDemandAt:
    def test_identity_multipliers_return_base_quantities(self):
        system = generate_demand_system(GeneratorConfig(n=50), seed=3)
        np.testing.assert_allclose(demand_at(system, np.ones(50)),
                                   system.base_quantities)

    def test_two_article_closed_form(self):
        # own price down by m: q_T = m^own, q_C = m^beta (unit bases).
        system = make_system([-2.0, -2.0], [0, 0], [0.5])
        q = demand_at(system, np.array([0.9, 1.0]))
        assert q[0] == pytest.approx(0.9 ** -2.0, rel=1e-14)
        assert q[1] == pytest.approx(0.9 ** 0.5, rel=1e-14)

    def test_background_exponent(self):
        system = make_system([-2.0, -2.0], [0, 1], [0.0, 0.0], background=0.2)
        q = demand_at(system, np.array([0.8, 1.0]))
        assert q[1] == pytest.approx(0.8 ** 0.2, rel=1e-14)

    def test_matches_dense_oracle_on_random_systems(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(2, 80))
            cfg = GeneratorConfig(n=n, cluster_size_min=1, cluster_size_max=7)
            system = generate_demand_system(cfg, seed=int(rng.integers(1 << 30)))
            mu = rng.uniform(0.5, 1.5, n)
            fast = demand_at(system, mu)
            slow = dense_oracle(system, mu)
            np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_rejects_bad_multipliers(self):
        system = generate_demand_system(GeneratorConfig(n=10), seed=0)
        with pytest.raises(ValueError):
            demand_at(system, np.ones(9))
        with pytest.raises(ValueError):
            demand_at(system, np.zeros(10))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_multipliers(self, bad):
        system = generate_demand_system(GeneratorConfig(n=10), seed=0)
        mu = np.ones(10)
        mu[3] = bad
        with pytest.raises(ValueError, match=f"must be finite and > 0, not {bad}$"):
            demand_at(system, mu)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            outcome(system, np.full(10, bad), Metric.UNITS)

    def test_dense_oracle_size_cap(self):
        system = generate_demand_system(GeneratorConfig(n=2001), seed=0)
        with pytest.raises(ValueError):
            dense_oracle(system, np.ones(2001))


@settings(max_examples=30, deadline=None)
@given(
    m=st.floats(min_value=0.5, max_value=1.5).filter(lambda x: abs(x - 1) > 1e-3),
    beta=st.floats(min_value=0.0, max_value=0.8),
)
def test_single_cluster_pair_closed_form(m, beta):
    system = make_system([-2.0, -2.0], [0, 0], [beta])
    q = demand_at(system, np.array([m, 1.0]))
    assert q[0] == pytest.approx(m ** -2.0, rel=1e-12)
    assert q[1] == pytest.approx(m ** beta, rel=1e-12)


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(n=200)
        a = generate_demand_system(cfg, seed=5)
        b = generate_demand_system(cfg, seed=5)
        np.testing.assert_array_equal(a.own, b.own)
        np.testing.assert_array_equal(a.partition.cluster_of, b.partition.cluster_of)
        np.testing.assert_array_equal(a.base_prices, b.base_prices)

    def test_cluster_sizes_within_bounds(self):
        cfg = GeneratorConfig(n=500, cluster_size_min=3, cluster_size_max=9)
        system = generate_demand_system(cfg, seed=1)
        sizes = system.partition.sizes()
        # all but the truncated last cluster respect the bounds
        assert (sizes[:-1] >= 3).all() and (sizes <= 9).all()
        assert sizes.sum() == 500

    def test_beta_normalization(self):
        cfg = GeneratorConfig(n=300, within_share=0.3, own_mean=-2.5)
        system = generate_demand_system(cfg, seed=7)
        sizes = system.partition.sizes()
        within = system.within
        mass = within * np.maximum(sizes - 1, 1)
        # an article's total within-cluster substitution mass is size-invariant
        np.testing.assert_allclose(mass[sizes > 1], 0.3 * 2.5, rtol=1e-12)
        assert (within[sizes == 1] == 0.0).all()

    def test_background_normalization(self):
        cfg = GeneratorConfig(n=400, background_share=0.05, own_mean=-2.5)
        system = generate_demand_system(cfg, seed=7)
        assert system.background == pytest.approx(0.05 * 2.5 / 400)

    def test_own_elasticities_in_band(self):
        cfg = GeneratorConfig(n=1000, own_mean=-2.5, own_spread=0.5)
        own = generate_demand_system(cfg, seed=2).own
        assert own.min() >= -3.0 and own.max() <= -2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            generate_demand_system(GeneratorConfig(n=0), seed=0)
        with pytest.raises(ValueError):
            generate_demand_system(GeneratorConfig(within_share=1.2), seed=0)
        with pytest.raises(ValueError):
            generate_demand_system(GeneratorConfig(own_mean=0.5), seed=0)
        with pytest.raises(ValueError):
            generate_demand_system(
                GeneratorConfig(within_share=0.6, background_share=0.5), seed=0)


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        system = generate_demand_system(GeneratorConfig(n=80), seed=9)
        path = tmp_path / "sys.json"
        system.save(path)
        loaded = DemandSystem.load(path)
        np.testing.assert_array_equal(loaded.own, system.own)
        np.testing.assert_array_equal(loaded.base_prices, system.base_prices)
        np.testing.assert_array_equal(loaded.base_quantities, system.base_quantities)
        np.testing.assert_array_equal(loaded.partition.cluster_of,
                                      system.partition.cluster_of)
        assert loaded.background == system.background
        assert loaded.seed == system.seed
        assert loaded.config == system.config

    def test_save_is_byte_stable(self, tmp_path):
        system = generate_demand_system(GeneratorConfig(n=40), seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        system.save(a)
        system.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_schema_fields(self, tmp_path):
        system = generate_demand_system(GeneratorConfig(n=10), seed=1)
        path = tmp_path / "sys.json"
        system.save(path)
        d = json.loads(path.read_text())
        assert set(d) == {"n", "seed", "config", "own", "partition",
                          "within_beta", "background", "base_prices",
                          "base_quantities"}
        assert d["n"] == 10

    @pytest.mark.parametrize("key,entry,message", [
        ("partition", 0.5, "must hold only integers, not 0.5"),
        ("partition", True, "must hold only integers, not True"),
        ("partition", "0", "must hold only integers, not '0'"),
        ("partition", 10**30, "holds a number out of range"),
        ("partition", 2**62, "'partition': cluster ids must be contiguous"),
        ("own", "x", "must hold only numbers, not 'x'"),
        ("own", None, "must hold only numbers, not None"),
        ("within_beta", False, "must hold only numbers, not False"),
        ("base_prices", [1.0], "must hold only numbers, not [1.0]"),
        pytest.param("base_quantities", -10**400, "holds a number out of range",
                     id="base_quantities--10**400"),
    ])
    def test_array_entry_of_the_wrong_type_names_the_key(self, key, entry, message):
        d = generate_demand_system(GeneratorConfig(n=10), seed=1).to_dict()
        d[key][0] = entry
        with pytest.raises(ValueError, match=f"^demand system key '{key}'") as err:
            DemandSystem.from_dict(d)
        assert message in str(err.value)

    @pytest.mark.parametrize("key", ["partition", "own", "base_prices"])
    def test_array_key_that_is_not_an_array_names_the_key(self, key):
        d = generate_demand_system(GeneratorConfig(n=10), seed=1).to_dict()
        d[key] = "12"
        with pytest.raises(ValueError, match=f"key '{key}' must be an array of"):
            DemandSystem.from_dict(d)


class TestOutcomes:
    def test_revenue_uses_realized_prices(self):
        system = make_system([-2.0], [0], [0.0], prices=[10.0], quantities=[5.0])
        mu = np.array([0.8])
        units = outcome(system, mu, Metric.UNITS)
        revenue = outcome(system, mu, Metric.REVENUE)
        assert units == pytest.approx(5.0 * 0.8 ** -2.0)
        assert revenue == pytest.approx(0.8 * 10.0 * units)

    def test_gte_closed_form_two_articles(self):
        system = make_system([-2.0, -2.0], [0, 0], [0.5])
        gte = global_treatment_effect(system, PricePolicy(0.9), Metric.UNITS)
        assert gte == pytest.approx(0.9 ** -1.5 - 1.0, rel=1e-12)

    def test_gte_zero_under_null_policy(self):
        system = generate_demand_system(GeneratorConfig(n=100), seed=8)
        assert global_treatment_effect(system, PricePolicy(1.0),
                                       Metric.REVENUE) == pytest.approx(0.0, abs=1e-12)

    def test_gte_sign_with_elastic_demand(self):
        # |own| > 1 and m < 1: unit demand rises more than price falls.
        system = generate_demand_system(
            dataclasses.replace(GeneratorConfig(), n=500), seed=6)
        assert global_treatment_effect(system, PricePolicy(0.95),
                                       Metric.UNITS) > 0


def test_policy_validation():
    with pytest.raises(ValueError):
        PricePolicy(0.0)
    with pytest.raises(ValueError):
        PricePolicy(-1.0)
    assert PricePolicy().treated_multiplier == 0.95


@pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), -float("inf")])
def test_policy_requires_a_finite_positive_multiplier(multiplier):
    with pytest.raises(ValueError, match="treated_multiplier must be finite and > 0"):
        PricePolicy(multiplier)


def test_math_consistency_units_vs_revenue():
    system = generate_demand_system(GeneratorConfig(n=60), seed=11)
    mu = np.full(60, 0.9)
    q = demand_at(system, mu)
    rev = outcome(system, mu, Metric.REVENUE)
    assert rev == pytest.approx(float((mu * system.base_prices * q).sum()), rel=1e-12)
    assert math.isfinite(rev)


class TestCsvRecords:
    HEADER = ["a", "b"]

    def test_yields_record_numbers_and_skips_blank_records(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(' a , b\n1,"x,y"\n\n2,3\n', encoding="utf-8")
        assert list(csv_records(path, self.HEADER)) == [(2, ["1", "x,y"]), (4, ["2", "3"])]

    def test_streams_records_before_a_later_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        records = csv_records(path, self.HEADER)
        assert next(records) == (2, ["1", "2"])
        with pytest.raises(ValueError, match="malformed row at line 3"):
            next(records)

    @pytest.mark.parametrize("data,message", [
        (b"", "expected header 'a,b'"),
        (b"a,c\n1,2\n", "expected header 'a,b'"),
        (b"a,b\n1,2,3\n", "malformed row at line 2"),
        (b"a,b\n1," + b"x" * 200_000 + b"\n", "field larger than field limit"),
        (b"a,b\n1,\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_errors_are_one_value_error_naming_the_file(self, tmp_path, data, message):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            list(csv_records(path, self.HEADER))
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
