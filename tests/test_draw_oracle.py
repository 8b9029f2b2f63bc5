"""Oracle tests for the per-draw arithmetic of the Monte-Carlo experiments.

The boolean-mask bodies of ``run_experiment`` and ``demand_at`` and the two
per-draw loops that the index gathers and the single draw function replaced
are kept here as references. The gathers visit the same elements in the same
order, so every sum must come out with the same bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interference_lab import (
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    assign,
    generate_demand_system,
    run_experiment,
)
from interference_lab.demand import base_metric_values, metric_values
from interference_lab.experiment import _Experiment


def reference_demand_at(system, mu):
    e = system
    c = e.partition.cluster_of
    logs = np.log(mu)
    cluster_logsum = np.bincount(c, weights=logs, minlength=e.partition.n_clusters)
    total_logsum = logs.sum()
    exponent = (
        e.own * logs
        + e.within[c] * (cluster_logsum[c] - logs)
        + e.background * (total_logsum - cluster_logsum[c])
    )
    return system.base_quantities * np.exp(exponent)


def reference_run_experiment(system, t, policy, metric, noise=None):
    mu = np.where(t, policy.treated_multiplier, 1.0)
    q = reference_demand_at(system, mu)
    if noise is not None:
        q = q * noise
    values = metric_values(system, mu, q, metric)
    bases = base_metric_values(system, metric)
    treated_outcome = float(values[t].sum())
    control_outcome = float(values[~t].sum())
    treated_base = float(bases[t].sum())
    control_base = float(bases[~t].sum())
    return (treated_outcome / treated_base) / (control_outcome / control_base) - 1.0


def reference_estimate_chunk(system, strategy, policy, metric, master, ks):
    out = []
    for k in ks:
        rng = np.random.default_rng(list(master) + [int(k)])
        a = assign(strategy, rng)
        out.append(run_experiment(system, a, policy, metric))
    return out


def reference_coverage_chunk(system, strategy, policy, metric, seed, sigma, ks):
    out = []
    for k in ks:
        aa_rng = np.random.default_rng([seed, int(k), 0])
        aa_noise = np.exp(np.random.default_rng([seed, int(k), 1]).normal(0.0, sigma, system.n))
        aa = run_experiment(system, assign(strategy, aa_rng),
                            PricePolicy(1.0), metric, noise=aa_noise)
        tr_rng = np.random.default_rng([seed, int(k), 2])
        tr_noise = np.exp(np.random.default_rng([seed, int(k), 3]).normal(0.0, sigma, system.n))
        tr = run_experiment(system, assign(strategy, tr_rng),
                            policy, metric, noise=tr_noise)
        out.append((aa, tr))
    return out


def bits(lift):
    return float(lift).hex()


# Odd and even n, small and past numpy's 128-element pairwise-sum blocks.
sizes = st.integers(4, 60) | st.integers(500, 3000)
multipliers = st.sampled_from([1e-3, 0.95, 1.7])
metrics = st.sampled_from([Metric.UNITS, Metric.REVENUE])


def draw_system(n, seed):
    config = GeneratorConfig(n=n, cluster_size_min=1, cluster_size_max=max(2, min(20, n // 2)))
    return generate_demand_system(config, seed)


def draw_strategy(system, level):
    return Partition(np.arange(system.n)) if level == "article" else system.partition


@settings(max_examples=150, deadline=None)
@given(n=sizes, system_seed=st.integers(0, 2**16), draw_seed=st.integers(0, 2**16),
       level=st.sampled_from(["article", "cluster"]), metric=metrics,
       multiplier=multipliers, noisy=st.booleans())
def test_run_experiment_matches_mask_reference_bit_for_bit(n, system_seed, draw_seed, level,
                                                           metric, multiplier, noisy):
    system = draw_system(n, system_seed)
    rng = np.random.default_rng(draw_seed)
    a = assign(draw_strategy(system, level), rng)
    noise = np.exp(rng.normal(0.0, 0.05, n)) if noisy else None
    policy = PricePolicy(multiplier)
    assert bits(run_experiment(system, a, policy, metric, noise=noise)) == \
        bits(reference_run_experiment(system, a, policy, metric, noise=noise))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 300), system_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       level=st.sampled_from(["article", "cluster"]), metric=metrics,
       multiplier=multipliers, ks=st.lists(st.integers(0, 999), min_size=1, max_size=5))
def test_draw_chunk_keeps_the_per_draw_seeds(n, system_seed, seed, level, metric, multiplier,
                                             ks):
    system = draw_system(n, system_seed)
    strategy, policy = draw_strategy(system, level), PricePolicy(multiplier)
    ks = np.asarray(ks)
    assert _Experiment(system, strategy, metric, [seed, 1], policy, None).lifts(ks) == \
        reference_estimate_chunk(system, strategy, policy, metric, [seed, 1], ks)
    aa = _Experiment(system, strategy, metric, [seed], PricePolicy(1.0), (0, 0.05)).lifts(ks)
    treated = _Experiment(system, strategy, metric, [seed], policy, (2, 0.05)).lifts(ks)
    assert list(zip(aa, treated)) == \
        reference_coverage_chunk(system, strategy, policy, metric, seed, 0.05, ks)
