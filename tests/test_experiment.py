"""Tests for randomization, the lift estimator, and Monte-Carlo bias."""

import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    Assignment,
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
    _map_draws,
    _parallel_map,
    mc_standard_error,
    nearest_rank_quantile,
)
from tests.test_demand import make_system


class TestAssign:
    def test_article_split_is_balanced(self):
        rng = np.random.default_rng(0)
        a = assign(Partition(np.arange(101)), rng)
        assert a.treated.sum() == 50

    def test_cluster_split_keeps_clusters_intact(self):
        part = Partition(np.repeat(np.arange(10), 7))
        rng = np.random.default_rng(1)
        a = assign(part, rng)
        for c in range(10):
            labels = a.treated[part.cluster_of == c]
            assert labels.all() or not labels.any()
        treated_clusters = sum(a.treated[part.cluster_of == c].any()
                               for c in range(10))
        assert treated_clusters == 5

    def test_assign_is_seed_deterministic(self):
        a = assign(Partition(np.arange(40)), np.random.default_rng(7))
        b = assign(Partition(np.arange(40)), np.random.default_rng(7))
        np.testing.assert_array_equal(a.treated, b.treated)

    def test_errors(self):
        with pytest.raises(ValueError):
            assign(Partition(np.arange(1)), np.random.default_rng(0))
        single = Partition(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            assign(single, np.random.default_rng(0))
        part = Partition(np.array([0, 0, 1, 1]))
        system = make_system([-2.0] * 6, [0, 0, 1, 1, 2, 2], [0.5] * 3)
        with pytest.raises(ValueError, match="^assignment length does not match the system$"):
            run_experiment(system, assign(part, np.random.default_rng(0)), PricePolicy(0.95),
                           Metric.UNITS)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32))
    def test_article_split_is_the_split_over_singleton_clusters(self, n, seed):
        # The balanced article split as drawn before designs were partitions.
        reference = np.zeros(n, dtype=bool)
        reference[np.random.default_rng(seed).permutation(n)[: n // 2]] = True
        article = assign(Partition(np.arange(n)), np.random.default_rng(seed))
        assert article.treated.tobytes() == reference.tobytes()

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            Assignment(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            Assignment(np.array([], dtype=bool))


class TestEstimator:
    def test_assignment_of_another_length_is_rejected(self):
        system = generate_demand_system(GeneratorConfig(n=40), seed=0)
        with pytest.raises(ValueError, match="^assignment length does not match the system$"):
            run_experiment(system, Assignment(np.array([True, False, True])),
                           PricePolicy(0.95), Metric.REVENUE)

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
        assert 1 + noisy.lift == pytest.approx(2 * (1 + clean.lift), rel=1e-12)


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

    @staticmethod
    def reference(values, q):
        """The ceil(q*p)-th smallest value, by sorting and indexing."""
        s = np.sort(values)
        return float(s[max(math.ceil(q * s.size) - 1, 0)])

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.5, 0.95, 1.0])
    def test_matches_the_reference_at_every_size(self, q):
        values = np.random.default_rng(5).normal(size=2000)
        for size in range(1, 2001):
            assert nearest_rank_quantile(values[:size], q) == self.reference(values[:size], q)

    @given(size=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1), q=st.floats(0, 1),
           k=st.integers(0, 2000))
    @example(size=1000, seed=0, q=0.05, k=0)
    @example(size=1000, seed=0, q=0.5, k=0)
    @example(size=1000, seed=0, q=0.95, k=0)
    def test_matches_the_reference(self, size, seed, q, k):
        values = np.random.default_rng(seed).integers(-20, 20, size).astype(float)
        # At q = k/size, floating-point rounding decides ceil(q*size).
        for q in (q, min(k, size) / size):
            assert nearest_rank_quantile(values, q) == self.reference(values, q)


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
        article = Partition(np.arange(small_system.n))
        serial = monte_carlo_bias(small_system, article, workers=1, **kwargs)
        parallel = monte_carlo_bias(small_system, article, workers=8, **kwargs)
        assert serial == parallel

    def test_chunks_for_the_pool_it_gets(self, small_system, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sent = []

        def counting_map(fn, jobs, workers):
            sent.extend(jobs)
            return _parallel_map(fn, jobs, workers)

        monkeypatch.setattr("interference_lab.experiment._parallel_map", counting_map)
        kwargs = dict(policy=PricePolicy(0.95), metric=Metric.REVENUE, p=40, master_seed=99)
        article = Partition(np.arange(small_system.n))
        pooled = monte_carlo_bias(small_system, article, workers=8, **kwargs)
        assert len(sent) == 8  # four per process of the 2-worker pool, not 4 * 8
        assert pooled == monte_carlo_bias(small_system, article, workers=1, **kwargs)

    def test_report_quantiles_ordered(self, small_system):
        r = monte_carlo_bias(small_system, Partition(np.arange(small_system.n)), PricePolicy(0.95),
                             Metric.REVENUE, p=60, master_seed=5)
        assert r.q05 <= r.q50 <= r.q95
        assert r.p == 60 and r.seed == 5

    def test_article_bias_positive_under_substitution(self, small_system):
        r = monte_carlo_bias(small_system, Partition(np.arange(small_system.n)), PricePolicy(0.95),
                             Metric.REVENUE, p=200, master_seed=3)
        assert r.mean_bias > 3 * mc_standard_error(r)

    def test_cluster_randomization_unbiased(self, small_system):
        strat = small_system.partition
        r = monte_carlo_bias(small_system, strat, PricePolicy(0.95),
                             Metric.REVENUE, p=200, master_seed=3)
        assert abs(r.mean_bias) < 3 * mc_standard_error(r)

    def test_absolute_fallback_when_gte_is_zero(self, small_system):
        r = monte_carlo_bias(small_system, Partition(np.arange(small_system.n)), PricePolicy(1.0),
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
        article = Partition(np.arange(small_system.n))
        lifts = [run_experiment(small_system,
                                assign(article, np.random.default_rng([*entries, k])),
                                policy, metric).lift for k in range(p)]
        r = monte_carlo_bias(small_system, article, policy, metric, p, master_seed)
        assert r.mean_estimate == np.asarray(lifts).mean()
        assert r.seed == entries[0]

    def test_rejects_tiny_p(self, small_system):
        with pytest.raises(ValueError):
            monte_carlo_bias(small_system, Partition(np.arange(small_system.n)), PricePolicy(0.95),
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

    def test_rejects_p_below_2_before_any_work(self, monkeypatch):
        monkeypatch.setattr("interference_lab.experiment.generate_demand_system",
                            lambda *a: pytest.fail("a system was generated"))
        with pytest.raises(ValueError, match="^p must be >= 2$"):
            sweep_substitution(GeneratorConfig(n=50), [0.1, 0.2], ["article"],
                               PricePolicy(0.95), Metric.REVENUE, p=1, seed=0)

    @pytest.mark.parametrize("config,message", [
        (GeneratorConfig(n=50, background_share=0.6),
         r"^phi 0\.5: within_share \+ background_share must be < 1$"),
        # A field other than phi fails for every phi, so its error names none.
        (GeneratorConfig(n=0), r"^n must be >= 1$"),
    ], ids=["late-phi-with-background", "other-field"])
    def test_rejects_an_invalid_config_before_any_work(self, monkeypatch, config, message):
        monkeypatch.setattr("interference_lab.experiment.generate_demand_system",
                            lambda *a: pytest.fail("a system was generated"))
        with pytest.raises(ValueError, match=message):
            sweep_substitution(config, [0.1, 0.5], ["article"], PricePolicy(0.95),
                               Metric.REVENUE, p=10, seed=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_row_is_its_own_monte_carlo_bias(self, workers):
        cfg, phis = GeneratorConfig(n=80, background_share=0.0), [0.1, 0.5]
        policy, metric, p, seed = PricePolicy(0.95), Metric.REVENUE, 12, 17
        rows = sweep_substitution(cfg, phis, ["article", "cluster"], policy, metric, p, seed,
                                  workers=workers)
        expected = []
        for i, phi in enumerate(phis):
            system = generate_demand_system(replace(cfg, within_share=phi), seed)
            for j, strategy in enumerate([Partition(np.arange(system.n)), system.partition]):
                expected.append(monte_carlo_bias(system, strategy, policy, metric, p,
                                                 [seed, i, j]))
        assert [row.report for row in rows] == expected


class TestMapDraws:
    """Tasks batched into one map get the bits of their single-task calls."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_task_of_a_mixed_batch_gets_its_own_lifts(self, small_system, workers):
        # Coverage's A/A and treated runs, then one bias run.
        article = Partition(np.arange(small_system.n))
        tasks = [(small_system, article, Metric.UNITS, [4], PricePolicy(1.0), (0, 0.05)),
                 (small_system, article, Metric.UNITS, [4], PricePolicy(0.95), (2, 0.05)),
                 (small_system, small_system.partition, Metric.UNITS, [4, 1, 2],
                  PricePolicy(0.95), None)]
        batched = _map_draws(tasks, 30, workers)
        assert [lifts.shape for lifts in batched] == [(30,)] * 3
        for lifts, task in zip(batched, tasks):
            np.testing.assert_array_equal(lifts, _map_draws([task], 30, workers)[0])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run,cause", [
        ((PricePolicy(1e-110), None), "the policy is"),
        ((PricePolicy(0.95), (0, 1e300)), "the policy or noise_sigma is")],
        ids=["policy", "noise"])
    def test_a_non_finite_second_task_is_its_own_error(self, small_system, workers, run,
                                                       cause):
        article = Partition(np.arange(small_system.n))
        fine = (small_system, article, Metric.UNITS, [1], PricePolicy(0.95), None)
        bad = (small_system, article, Metric.UNITS, [2], *run)
        errors = []
        for tasks in ([bad], [fine, bad]):
            with pytest.raises(ValueError, match=f"^an experiment estimate is not finite: {cause} "
                               ) as error:
                _map_draws(tasks, 10, workers)
            errors.append(str(error.value))
        assert errors[1] == errors[0]
        assert multiprocessing.active_children() == []


class TestCoverage:
    def test_null_policy_z_is_centered(self, clean_system):
        r = coverage_analysis(clean_system, Partition(np.arange(clean_system.n)), PricePolicy(1.0),
                              Metric.UNITS, p=200, seed=4, noise_sigma=0.05)
        assert abs(r.mean_z) < 0.3
        assert 0.0 <= r.coverage_rate <= 1.0

    def test_aa_sd_scales_with_noise(self, clean_system):
        article = Partition(np.arange(clean_system.n))
        low = coverage_analysis(clean_system, article, PricePolicy(0.99),
                                Metric.UNITS, p=150, seed=4, noise_sigma=0.05)
        high = coverage_analysis(clean_system, article, PricePolicy(0.99),
                                 Metric.UNITS, p=150, seed=4, noise_sigma=0.2)
        assert high.aa_sd == pytest.approx(4 * low.aa_sd, rel=0.15)

    def test_noiseless_run_is_flagged_undefined(self, clean_system):
        r = coverage_analysis(clean_system, Partition(np.arange(clean_system.n)), PricePolicy(1.0),
                              Metric.UNITS, p=20, seed=4, noise_sigma=0.0)
        assert not r.defined
        assert r.aa_sd == 0.0
        assert np.isnan(r.coverage_rate) and np.isnan(r.mean_z)

    def test_deterministic_across_worker_counts(self, clean_system):
        kwargs = dict(policy=PricePolicy(0.99), metric=Metric.UNITS, p=64,
                      seed=4, noise_sigma=0.05)
        article = Partition(np.arange(clean_system.n))
        a = coverage_analysis(clean_system, article, workers=1, **kwargs)
        b = coverage_analysis(clean_system, article, workers=8, **kwargs)
        assert a == b

    def test_validation(self, clean_system):
        article = Partition(np.arange(clean_system.n))
        with pytest.raises(ValueError):
            coverage_analysis(clean_system, article, PricePolicy(0.95),
                              Metric.UNITS, p=1, seed=0)
        with pytest.raises(ValueError):
            coverage_analysis(clean_system, article, PricePolicy(0.95),
                              Metric.UNITS, p=10, seed=0, noise_sigma=-0.1)


def test_strategy_labels():
    # A design carries no label; a sweep row keeps the label it was asked for.
    rows = sweep_substitution(GeneratorConfig(n=20), [0.2], ["cluster", "article"],
                              PricePolicy(0.95), Metric.UNITS, p=2, seed=0)
    assert [row.strategy for row in rows] == ["cluster", "article"]
