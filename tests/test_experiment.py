"""Tests for randomization, the lift estimator, and Monte-Carlo bias."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interference_lab import (
    ArticleLevel,
    Assignment,
    ClusterLevel,
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    assign,
    coverage_analysis,
    generate_demand_system,
    global_treatment_effect,
    monte_carlo_bias,
    run_experiment,
    sweep_substitution,
)
from interference_lab.experiment import (
    mc_standard_error,
    nearest_rank_quantile,
    strategy_label,
)
from tests.test_demand import make_system


class TestAssign:
    def test_article_split_is_balanced(self):
        rng = np.random.default_rng(0)
        a = assign(ArticleLevel(), 101, rng)
        assert a.treated.sum() == 50

    def test_cluster_split_keeps_clusters_intact(self):
        part = Partition(np.repeat(np.arange(10), 7))
        rng = np.random.default_rng(1)
        a = assign(ClusterLevel(part), 70, rng)
        for c in range(10):
            labels = a.treated[part.cluster_of == c]
            assert labels.all() or not labels.any()
        treated_clusters = sum(a.treated[part.cluster_of == c].any()
                               for c in range(10))
        assert treated_clusters == 5

    def test_assign_is_seed_deterministic(self):
        a = assign(ArticleLevel(), 40, np.random.default_rng(7))
        b = assign(ArticleLevel(), 40, np.random.default_rng(7))
        np.testing.assert_array_equal(a.treated, b.treated)

    def test_errors(self):
        with pytest.raises(ValueError):
            assign(ArticleLevel(), 1, np.random.default_rng(0))
        single = Partition(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            assign(ClusterLevel(single), 4, np.random.default_rng(0))
        part = Partition(np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            assign(ClusterLevel(part), 6, np.random.default_rng(0))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32))
    def test_article_split_is_the_split_over_singleton_clusters(self, n, seed):
        article = assign(ArticleLevel(), n, np.random.default_rng(seed))
        singletons = ClusterLevel(Partition(np.arange(n)))
        cluster = assign(singletons, n, np.random.default_rng(seed))
        np.testing.assert_array_equal(article.treated, cluster.treated)

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            Assignment(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            Assignment(np.array([], dtype=bool))


class TestEstimator:
    def test_closed_form_two_articles(self):
        # own=-2, beta=0.5, m=0.9: lift = m^(own-beta) - 1.
        system = make_system([-2.0, -2.0], [0, 0], [0.5])
        est = run_experiment(system, Assignment(np.array([True, False])),
                             PricePolicy(0.9), Metric.UNITS)
        assert est.lift == pytest.approx(0.9 ** -2.5 - 1.0, rel=1e-12)

    def test_scale_free_under_group_imbalance(self):
        # doubling every base quantity in one group leaves the lift unchanged
        base = make_system([-2.0, -2.0, -2.0], [0, 1, 2], [0.0, 0.0, 0.0],
                           quantities=[1.0, 1.0, 1.0])
        scaled = make_system([-2.0, -2.0, -2.0], [0, 1, 2], [0.0, 0.0, 0.0],
                             quantities=[5.0, 1.0, 1.0])
        a = Assignment(np.array([True, False, False]))
        pol = PricePolicy(0.9)
        lift_base = run_experiment(base, a, pol, Metric.UNITS).lift
        lift_scaled = run_experiment(scaled, a, pol, Metric.UNITS).lift
        assert lift_scaled == pytest.approx(lift_base, rel=1e-12)

    def test_label_swap_symmetry(self):
        # swapping labels and m -> 1/m maps lift to 1/(1+lift) - 1
        system = make_system([-2.0, -2.0], [0, 0], [0.5])
        fwd = run_experiment(system, Assignment(np.array([True, False])),
                             PricePolicy(0.9), Metric.UNITS).lift
        rev = run_experiment(system, Assignment(np.array([False, True])),
                             PricePolicy(1 / 0.9), Metric.UNITS).lift
        assert rev == pytest.approx(1.0 / (1.0 + fwd) - 1.0, rel=1e-12)

    def test_rejects_degenerate_groups(self):
        system = make_system([-2.0, -2.0], [0, 1], [0.0, 0.0])
        pol = PricePolicy(0.9)
        with pytest.raises(ValueError):
            run_experiment(system, Assignment(np.array([True, True])), pol,
                           Metric.UNITS)
        with pytest.raises(ValueError):
            run_experiment(system, Assignment(np.array([False, False])), pol,
                           Metric.UNITS)

    def test_noise_multiplies_quantities(self):
        system = make_system([-2.0, -2.0], [0, 1], [0.0, 0.0])
        a = Assignment(np.array([True, False]))
        pol = PricePolicy(0.9)
        clean = run_experiment(system, a, pol, Metric.UNITS)
        noisy = run_experiment(system, a, pol, Metric.UNITS,
                               noise=np.array([2.0, 1.0]))
        assert noisy.treated_outcome == pytest.approx(2 * clean.treated_outcome)
        assert noisy.treated_base == clean.treated_base


@settings(max_examples=25, deadline=None)
@given(m=st.floats(min_value=0.7, max_value=0.999),
       beta=st.floats(min_value=0.01, max_value=0.9))
def test_interference_inflates_the_estimate(m, beta):
    # price cut + substitution depresses control demand, so lift > GTE
    system = make_system([-2.0, -2.0], [0, 0], [beta])
    lift = run_experiment(system, Assignment(np.array([True, False])),
                          PricePolicy(m), Metric.UNITS).lift
    gte = global_treatment_effect(system, PricePolicy(m), Metric.UNITS)
    assert lift > gte


class TestNearestRankQuantile:
    def test_known_values(self):
        values = np.arange(1.0, 11.0)  # 1..10
        assert nearest_rank_quantile(values, 0.05) == 1.0
        assert nearest_rank_quantile(values, 0.50) == 5.0
        assert nearest_rank_quantile(values, 0.95) == 10.0
        assert nearest_rank_quantile(values, 1.0) == 10.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.floats(0.01, 1.0))
    def test_quantile_is_an_observed_value(self, xs, q):
        values = np.asarray(xs)
        assert nearest_rank_quantile(values, q) in values


@pytest.fixture(scope="module")
def small_system():
    cfg = GeneratorConfig(n=200, within_share=0.3, background_share=0.0)
    return generate_demand_system(cfg, seed=13)


@pytest.fixture(scope="module")
def clean_system():
    cfg = GeneratorConfig(n=300, within_share=0.0, background_share=0.0)
    return generate_demand_system(cfg, seed=23)


class TestMonteCarloBias:
    def test_deterministic_across_worker_counts(self, small_system):
        kwargs = dict(policy=PricePolicy(0.95), metric=Metric.REVENUE, p=40,
                      master_seed=99)
        serial = monte_carlo_bias(small_system, ArticleLevel(), workers=1, **kwargs)
        parallel = monte_carlo_bias(small_system, ArticleLevel(), workers=8, **kwargs)
        assert serial == parallel

    def test_report_quantiles_ordered(self, small_system):
        r = monte_carlo_bias(small_system, ArticleLevel(), PricePolicy(0.95),
                             Metric.REVENUE, p=60, master_seed=5)
        assert r.q05 <= r.q50 <= r.q95
        assert r.p == 60 and r.seed == 5

    def test_article_bias_positive_under_substitution(self, small_system):
        r = monte_carlo_bias(small_system, ArticleLevel(), PricePolicy(0.95),
                             Metric.REVENUE, p=200, master_seed=3)
        assert r.mean_bias > 3 * mc_standard_error(r)

    def test_cluster_randomization_unbiased(self, small_system):
        strat = ClusterLevel(small_system.partition)
        r = monte_carlo_bias(small_system, strat, PricePolicy(0.95),
                             Metric.REVENUE, p=200, master_seed=3)
        assert abs(r.mean_bias) < 3 * mc_standard_error(r)

    def test_absolute_fallback_when_gte_is_zero(self, small_system):
        r = monte_carlo_bias(small_system, ArticleLevel(), PricePolicy(1.0),
                             Metric.REVENUE, p=20, master_seed=1)
        assert r.bias_is_absolute
        assert r.gte == pytest.approx(0.0, abs=1e-12)
        assert r.mean_bias == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("master_seed,entries", [
        (7, [7]), (np.int64(7), [7]), ([2**63 + 1, 0, 2], [2**63 + 1, 0, 2]),
        ((10**26, 1), [10**26, 1])])
    def test_draw_k_assigns_from_the_master_seed_then_k(self, small_system, master_seed,
                                                         entries):
        policy, metric, p = PricePolicy(0.95), Metric.REVENUE, 4
        lifts = [run_experiment(small_system, assign(ArticleLevel(), small_system.n,
                                                     np.random.default_rng([*entries, k])),
                                policy, metric).lift for k in range(p)]
        r = monte_carlo_bias(small_system, ArticleLevel(), policy, metric, p, master_seed)
        assert r.mean_estimate == np.asarray(lifts).mean()
        assert r.seed == entries[0]

    def test_rejects_tiny_p(self, small_system):
        with pytest.raises(ValueError):
            monte_carlo_bias(small_system, ArticleLevel(), PricePolicy(0.95),
                             Metric.REVENUE, p=1, master_seed=0)


class TestSweep:
    def test_row_layout_and_phi_zero_null(self):
        cfg = GeneratorConfig(n=120, background_share=0.0)
        rows = sweep_substitution(cfg, [0.0, 0.4], ["article", "cluster"],
                                  PricePolicy(0.95), Metric.REVENUE, p=80,
                                  seed=17)
        assert [(r.phi, r.strategy) for r in rows] == [
            (0.0, "article"), (0.0, "cluster"),
            (0.4, "article"), (0.4, "cluster")]
        for row in rows[:2]:
            assert abs(row.report.mean_bias) < 3 * mc_standard_error(row.report)
        article_04 = rows[2].report
        assert article_04.mean_bias > 3 * mc_standard_error(article_04)

    def test_rejects_an_unknown_label_before_any_work(self, monkeypatch):
        monkeypatch.setattr("interference_lab.experiment._parallel_map",
                            lambda *a: pytest.fail("pool job started"))
        with pytest.raises(ValueError, match="^unknown strategy 'banana'$"):
            sweep_substitution(GeneratorConfig(n=50), [0.1, 0.2], ["article", "banana"],
                               PricePolicy(0.95), Metric.REVENUE, p=10, seed=0)

    def test_rejects_phi_out_of_range(self):
        with pytest.raises(ValueError):
            sweep_substitution(GeneratorConfig(n=50), [1.5], ["article"],
                               PricePolicy(0.95), Metric.REVENUE, p=10, seed=0)

    def test_rejects_a_late_phi_before_any_work(self, monkeypatch):
        monkeypatch.setattr("interference_lab.experiment.generate_demand_system",
                            lambda *a: pytest.fail("a system was generated"))
        with pytest.raises(ValueError, match=r"^phi values must lie in \[0, 1\)$"):
            sweep_substitution(GeneratorConfig(n=50), [0.1, 1.5], ["article"],
                               PricePolicy(0.95), Metric.REVENUE, p=10, seed=0)


class TestCoverage:
    def test_null_policy_z_is_centered(self, clean_system):
        r = coverage_analysis(clean_system, ArticleLevel(), PricePolicy(1.0),
                              Metric.UNITS, p=200, seed=4, noise_sigma=0.05)
        assert abs(r.mean_z) < 0.3
        assert 0.0 <= r.coverage_rate <= 1.0

    def test_aa_sd_scales_with_noise(self, clean_system):
        low = coverage_analysis(clean_system, ArticleLevel(), PricePolicy(0.99),
                                Metric.UNITS, p=150, seed=4, noise_sigma=0.05)
        high = coverage_analysis(clean_system, ArticleLevel(), PricePolicy(0.99),
                                 Metric.UNITS, p=150, seed=4, noise_sigma=0.2)
        assert high.aa_sd == pytest.approx(4 * low.aa_sd, rel=0.15)

    def test_noiseless_run_is_flagged_undefined(self, clean_system):
        r = coverage_analysis(clean_system, ArticleLevel(), PricePolicy(1.0),
                              Metric.UNITS, p=20, seed=4, noise_sigma=0.0)
        assert not r.defined
        assert r.aa_sd == 0.0
        assert np.isnan(r.coverage_rate) and np.isnan(r.mean_z)

    def test_deterministic_across_worker_counts(self, clean_system):
        kwargs = dict(policy=PricePolicy(0.99), metric=Metric.UNITS, p=64,
                      seed=4, noise_sigma=0.05)
        a = coverage_analysis(clean_system, ArticleLevel(), workers=1, **kwargs)
        b = coverage_analysis(clean_system, ArticleLevel(), workers=8, **kwargs)
        assert a == b

    def test_validation(self, clean_system):
        with pytest.raises(ValueError):
            coverage_analysis(clean_system, ArticleLevel(), PricePolicy(0.95),
                              Metric.UNITS, p=1, seed=0)
        with pytest.raises(ValueError):
            coverage_analysis(clean_system, ArticleLevel(), PricePolicy(0.95),
                              Metric.UNITS, p=10, seed=0, noise_sigma=-0.1)


def test_strategy_labels():
    assert strategy_label(ArticleLevel()) == "article"
    part = Partition(np.array([0, 0, 1, 1]))
    assert strategy_label(ClusterLevel(part)) == "cluster"
