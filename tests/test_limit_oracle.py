"""The closed-form large-n limit of the estimator, as an independent oracle.

Demand is log-linear, so with m the treated multiplier, b_i the base metric,
beta_c the within-cluster coefficient, s_c the cluster size and B the
background coefficient, the mean of the ratio-of-relative-lifts estimator
tends to T / C - 1 as the number of randomized units grows, where

- article design: T = sum b_i m^own_i g_i and C = sum b_i g_i, with
  g_i = ((1 + m^beta_c) / 2)^(s_c - 1) m^(B (n - s_c) / 2);
- cluster design: T = sum b_i m^(own_i + beta_c (s_c - 1)) h_i and
  C = sum b_i h_i, with h_i = m^(B (n - s_c) / 2);

and T carries one more factor m for revenue. An article's cluster mates are
each treated with probability near 1/2, independently in the limit, and about
half of the other clusters' articles are treated.

The Monte-Carlo mean sits above the limit by an O(1/n) term. With generator
seed 42, phi 0.3, background 0.05, policy 0.95, p 400 and master seed 7,
n * (mean - limit) ranged over -0.12..+0.15 for n from 500 to 10,000 (both
designs, both metrics), so the bound is 3 Monte-Carlo SEs plus 0.2 / n.
"""

import numpy as np
import pytest

from interference_lab import (
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    coverage_analysis,
    generate_demand_system,
    global_treatment_effect,
    monte_carlo_bias,
)
from interference_lab.demand import base_metric_values
from interference_lab.experiment import _map_draws

K_SE = 3
C_OVER_N = 0.2


def limit_lift(system, policy, metric, design):
    """The large-n limit of the mean estimate under ``design`` ("article" or "cluster")."""
    m = policy.treated_multiplier
    e = system
    c = e.partition.cluster_of
    s = e.partition.sizes()[c]
    beta = e.within[c]
    b = base_metric_values(system, metric)
    h = m ** (e.background * (system.n - s) / 2)
    if design == "article":
        h = h * ((1 + m ** beta) / 2) ** (s - 1)
        t = b * m ** e.own * h
    else:
        t = b * m ** (e.own + beta * (s - 1)) * h
    if metric is Metric.REVENUE:
        t = t * m
    return float(t.sum() / (b * h).sum() - 1)


@pytest.fixture(scope="module")
def system():
    return generate_demand_system(GeneratorConfig(n=2000, within_share=0.3), seed=42)


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("design", ["article", "cluster"])
def test_mean_estimate_tends_to_the_limit(system, design, metric):
    policy, p = PricePolicy(0.95), 400
    strategy = Partition(np.arange(system.n)) if design == "article" else system.partition
    report = monte_carlo_bias(system, strategy, policy, metric, p, master_seed=7)
    limit = limit_lift(system, policy, metric, design)
    se = report.sd_estimate / np.sqrt(p)
    assert abs(report.mean_estimate - limit) <= K_SE * se + C_OVER_N / system.n
    # The limit is no restatement of the GTE: the background and, in the article
    # design, the split clusters put it well away from the GTE.
    assert abs(limit - global_treatment_effect(system, policy, metric)) > 100 * se


@pytest.mark.parametrize("metric", list(Metric))
def test_cluster_limit_is_the_gte_without_background(metric):
    system = generate_demand_system(
        GeneratorConfig(n=2000, within_share=0.3, background_share=0.0), seed=42)
    policy = PricePolicy(0.95)
    assert limit_lift(system, policy, metric, "cluster") == pytest.approx(
        global_treatment_effect(system, policy, metric), rel=1e-12, abs=1e-15)


def test_limit_predicts_criterion_9_mean_z():
    """Criterion 9's strong system: the A/A interval misses by (limit - GTE) / aa_sd."""
    policy, metric, sigma, p = PricePolicy(0.99), Metric.UNITS, 0.05, 1000
    strong = generate_demand_system(
        GeneratorConfig(n=2000, within_share=0.5, background_share=0.0), seed=21)
    report = coverage_analysis(strong, Partition(np.arange(strong.n)), policy, metric, p=p,
                               seed=77, noise_sigma=sigma)
    # The treated run's draws, to size the Monte-Carlo SE of mean_z.
    [treated] = _map_draws([(strong, Partition(np.arange(strong.n)), metric, [77], policy,
                             (2, sigma))], p, 1)
    z = (treated - report.gte) / report.aa_sd
    assert z.mean() == pytest.approx(report.mean_z, rel=1e-12)
    predicted = (limit_lift(strong, policy, metric, "article") - report.gte) / report.aa_sd
    bound = K_SE * z.std(ddof=1) / np.sqrt(p) + C_OVER_N / strong.n / report.aa_sd
    assert abs(report.mean_z - predicted) <= bound
