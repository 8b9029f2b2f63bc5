"""Randomized pricing experiments on simulated demand systems.

Assignments are balanced random splits at the article- or the cluster-level.
The experiment estimator is the ratio of relative lifts,
(Y_T / Y_T0) / (Y_C / Y_C0) - 1, which is scale-free under group imbalance.
Monte Carlo over assignments quantifies interference bias against the exact
global treatment effect; the coverage analysis reproduces the false-positive
mechanism of naive A/A-calibrated intervals.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, replace

import numpy as np

from .demand import (
    DemandSystem,
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    base_metric_values,
    demand_at,
    generate_demand_system,
    global_treatment_effect,
    metric_values,
)

GTE_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class ArticleLevel:
    """Balanced random split over individual articles."""

    name = "article"


@dataclass(frozen=True)
class ClusterLevel:
    """Balanced random split over clusters; whole clusters share a label."""

    partition: Partition
    name = "cluster"


RandomizationStrategy = ArticleLevel | ClusterLevel


@dataclass(frozen=True)
class Assignment:
    """Per-article treatment labels (True = Treatment)."""

    treated: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.treated, dtype=bool)
        object.__setattr__(self, "treated", t)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("assignment must be a non-empty 1-d boolean vector")

    @property
    def n(self) -> int:
        return int(self.treated.size)

    def treated_indices(self) -> np.ndarray:
        return np.flatnonzero(self.treated)

    def control_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.treated)


@dataclass(frozen=True)
class Estimate:
    lift: float
    treated_outcome: float
    control_outcome: float
    treated_base: float
    control_base: float


@dataclass(frozen=True)
class BiasReport:
    """Monte-Carlo distribution of estimates against the exact GTE.

    When |gte| < 1e-12 the relative fields (mean_bias, relative_sd) hold
    absolute values instead, flagged by ``bias_is_absolute``.
    """

    gte: float
    mean_estimate: float
    mean_bias: float
    sd_estimate: float
    relative_sd: float
    q05: float
    q50: float
    q95: float
    p: int
    seed: int
    bias_is_absolute: bool = False


@dataclass(frozen=True)
class CoverageReport:
    """Naive-interval calibration of A/A-based variance against the true GTE.

    ``defined`` is False when the A/A spread is exactly zero (e.g. noiseless
    runs), in which case coverage_rate and mean_z are NaN.
    """

    aa_sd: float
    coverage_rate: float
    mean_z: float
    gte: float
    p: int
    seed: int
    noise_sigma: float
    defined: bool = True


@dataclass(frozen=True)
class SweepRow:
    phi: float
    strategy: str
    report: BiasReport


def assign(strategy: RandomizationStrategy, n: int, rng: np.random.Generator) -> Assignment:
    """Draw a balanced random assignment for n articles."""
    if n < 2:
        raise ValueError("need at least 2 articles to randomize")
    treated = np.zeros(n, dtype=bool)
    if isinstance(strategy, ArticleLevel):
        perm = rng.permutation(n)
        treated[perm[: n // 2]] = True
    elif isinstance(strategy, ClusterLevel):
        part = strategy.partition
        if part.n != n:
            raise ValueError("cluster partition does not cover the article space")
        k = part.n_clusters
        if k < 2:
            raise ValueError("cluster-level randomization needs >= 2 clusters")
        perm = rng.permutation(k)
        treated_clusters = np.zeros(k, dtype=bool)
        treated_clusters[perm[: k // 2]] = True
        treated = treated_clusters[part.cluster_of]
    else:
        raise TypeError(f"unknown randomization strategy: {strategy!r}")
    return Assignment(treated)


def run_experiment(system: DemandSystem, assignment: Assignment, policy: PricePolicy,
                   metric: Metric, noise: np.ndarray | None = None) -> Estimate:
    """Evaluate one experiment; cross-group interference is fully present.

    ``noise`` optionally multiplies realized quantities article-wise
    (observation noise for the coverage analysis); baselines stay noise-free.
    """
    if assignment.n != system.n:
        raise ValueError("assignment length does not match the system")
    t = assignment.treated
    if not t.any() or t.all():
        raise ValueError("both treatment groups must be non-empty")
    mu = np.where(t, policy.treated_multiplier, 1.0)
    q = demand_at(system, mu)
    if noise is not None:
        q = q * noise
    values = metric_values(system, mu, q, metric)
    bases = base_metric_values(system, metric)
    treated_outcome = float(values[t].sum())
    control_outcome = float(values[~t].sum())
    treated_base = float(bases[t].sum())
    control_base = float(bases[~t].sum())
    lift = (treated_outcome / treated_base) / (control_outcome / control_base) - 1.0
    return Estimate(lift, treated_outcome, control_outcome, treated_base, control_base)


def _seed_list(master_seed) -> list[int]:
    if isinstance(master_seed, (int, np.integer)):
        return [int(master_seed)]
    return [int(s) for s in master_seed]


def _estimate_chunk(system, strategy, policy, metric, master, ks) -> list[float]:
    out = []
    for k in ks:
        rng = np.random.default_rng(_seed_list(master) + [int(k)])
        a = assign(strategy, system.n, rng)
        out.append(run_experiment(system, a, policy, metric).lift)
    return out


def _parallel_map(fn, jobs, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_star, [(fn, job) for job in jobs]))


def _star(packed):
    fn, job = packed
    return fn(*job)


def _map_draws(chunk_fn, args: tuple, p: int, workers: int) -> list:
    """Results of draws 0..p-1, in order: ``chunk_fn(*args, ks)`` over chunks ks."""
    chunks = np.array_split(np.arange(p), max(1, min(workers * 4, p)))
    parts = _parallel_map(chunk_fn, [(*args, ks) for ks in chunks], workers)
    return [x for part in parts for x in part]


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*p)-th smallest value."""
    s = np.sort(values)
    idx = max(math.ceil(q * s.size) - 1, 0)
    return float(s[idx])


def _bias_report(estimates: np.ndarray, gte: float, seed: int) -> BiasReport:
    mean_est = float(estimates.mean())
    sd = float(estimates.std(ddof=1))
    absolute = abs(gte) < GTE_ABS_FLOOR
    denom = 1.0 if absolute else abs(gte)
    return BiasReport(
        gte=gte,
        mean_estimate=mean_est,
        mean_bias=(mean_est - gte) / denom,
        sd_estimate=sd,
        relative_sd=sd / denom,
        q05=nearest_rank_quantile(estimates, 0.05),
        q50=nearest_rank_quantile(estimates, 0.50),
        q95=nearest_rank_quantile(estimates, 0.95),
        p=int(estimates.size),
        seed=seed,
        bias_is_absolute=absolute,
    )


def monte_carlo_bias(system: DemandSystem, strategy: RandomizationStrategy,
                     policy: PricePolicy, metric: Metric, p: int, master_seed,
                     workers: int = 1) -> BiasReport:
    """Distribution of experiment estimates over p random assignments.

    Permutation k draws its RNG from (master_seed, k), so the result is
    bit-identical for any worker count.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    estimates = np.asarray(_map_draws(_estimate_chunk, (system, strategy, policy, metric,
                                                         master_seed), p, workers))
    gte = global_treatment_effect(system, policy, metric)
    seed = _seed_list(master_seed)[0]
    return _bias_report(estimates, gte, seed)


def mc_standard_error(report: BiasReport) -> float:
    """Monte-Carlo standard error of mean_bias (same units as mean_bias)."""
    denom = 1.0 if report.bias_is_absolute else abs(report.gte)
    return report.sd_estimate / math.sqrt(report.p) / denom


def strategy_label(strategy: RandomizationStrategy) -> str:
    return strategy.name


def sweep_substitution(config: GeneratorConfig, phis, strategies, policy: PricePolicy,
                       metric: Metric, p: int, seed: int,
                       workers: int = 1) -> list[SweepRow]:
    """One BiasReport per (phi, strategy); a fresh system per phi.

    ``strategies`` entries are either strategy instances or the labels
    "article"/"cluster"; "cluster" uses the fresh system's ground-truth
    partition. Rows come out in (phi, strategy) order.
    """
    rows = []
    for i, phi in enumerate(phis):
        if not 0 <= phi < 1:
            raise ValueError("phi values must lie in [0, 1)")
        system = generate_demand_system(replace(config, within_share=float(phi)), seed)
        for j, strat in enumerate(strategies):
            if strat == "article":
                strat = ArticleLevel()
            elif strat == "cluster":
                strat = ClusterLevel(system.partition)
            report = monte_carlo_bias(system, strat, policy, metric, p,
                                      master_seed=[seed, i, j], workers=workers)
            rows.append(SweepRow(phi=float(phi), strategy=strategy_label(strat),
                                 report=report))
    return rows


def _coverage_chunk(system, strategy, policy, metric, seed, sigma, ks) -> list[tuple]:
    null_policy = PricePolicy(1.0)
    out = []
    for k in ks:
        aa_rng = np.random.default_rng([seed, int(k), 0])
        aa_noise = np.exp(np.random.default_rng([seed, int(k), 1]).normal(0.0, sigma, system.n))
        aa = run_experiment(system, assign(strategy, system.n, aa_rng),
                            null_policy, metric, noise=aa_noise).lift
        tr_rng = np.random.default_rng([seed, int(k), 2])
        tr_noise = np.exp(np.random.default_rng([seed, int(k), 3]).normal(0.0, sigma, system.n))
        tr = run_experiment(system, assign(strategy, system.n, tr_rng),
                            policy, metric, noise=tr_noise).lift
        out.append((aa, tr))
    return out


def coverage_analysis(system: DemandSystem, strategy: RandomizationStrategy,
                      policy: PricePolicy, metric: Metric, p: int, seed: int,
                      noise_sigma: float = 0.05, workers: int = 1) -> CoverageReport:
    """Calibrate naive intervals from A/A spread and test them against the GTE.

    The pure simulator has no sampling noise, so seeded lognormal observation
    noise (sigma ``noise_sigma``) multiplies realized quantities in both the
    null-policy (A/A) and the treated runs. aa_sd is the standard deviation of
    null-policy estimates; coverage_rate is the share of treated estimates
    whose +/- 1.96 * aa_sd interval contains the true GTE.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    aa, treated = np.asarray(_map_draws(_coverage_chunk, (system, strategy, policy, metric,
                                                          seed, noise_sigma), p, workers)).T
    gte = global_treatment_effect(system, policy, metric)
    aa_sd = float(aa.std(ddof=1))
    if aa_sd == 0.0:
        return CoverageReport(aa_sd=0.0, coverage_rate=float("nan"),
                              mean_z=float("nan"), gte=gte, p=p, seed=seed,
                              noise_sigma=noise_sigma, defined=False)
    covered = np.abs(treated - gte) <= 1.96 * aa_sd
    return CoverageReport(
        aa_sd=aa_sd,
        coverage_rate=float(covered.mean()),
        mean_z=float(((treated - gte) / aa_sd).mean()),
        gte=gte,
        p=p,
        seed=seed,
        noise_sigma=noise_sigma,
    )
