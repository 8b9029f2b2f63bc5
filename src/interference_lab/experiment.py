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
import contextvars
import math
from contextlib import contextmanager
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
DEFAULT_NOISE_SIGMA = 0.05  # lognormal observation noise of the coverage analysis


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
    if isinstance(strategy, ArticleLevel):
        k, unit_of = n, None
    elif isinstance(strategy, ClusterLevel):
        part = strategy.partition
        if part.n != n:
            raise ValueError("cluster partition does not cover the article space")
        k, unit_of = part.n_clusters, part.cluster_of
        if k < 2:
            raise ValueError("cluster-level randomization needs >= 2 clusters")
    else:
        raise TypeError(f"unknown randomization strategy: {strategy!r}")
    treated = np.zeros(k, dtype=bool)
    treated[rng.permutation(k)[: k // 2]] = True
    return Assignment(treated if unit_of is None else treated[unit_of])


def run_experiment(system: DemandSystem, assignment: Assignment, policy: PricePolicy,
                   metric: Metric, noise: np.ndarray | None = None) -> Estimate:
    """Evaluate one experiment; cross-group interference is fully present.

    ``noise`` optionally multiplies realized quantities article-wise
    (observation noise for the coverage analysis); baselines stay noise-free.
    """
    if assignment.n != system.n:
        raise ValueError("assignment length does not match the system")
    it, ic = np.flatnonzero(assignment.treated), np.flatnonzero(~assignment.treated)
    if it.size == 0 or ic.size == 0:
        raise ValueError("both treatment groups must be non-empty")
    mu = np.ones(system.n)
    mu[it] = policy.treated_multiplier
    q = demand_at(system, mu)
    if noise is not None:
        q = q * noise
    values = metric_values(system, mu, q, metric)
    bases = base_metric_values(system, metric)
    # Index gathers keep numpy's pairwise summation; dot products or bincounts round otherwise.
    treated_outcome = float(values[it].sum())
    control_outcome = float(values[ic].sum())
    treated_base = float(bases[it].sum())
    control_base = float(bases[ic].sum())
    lift = (treated_outcome / treated_base) / (control_outcome / control_base) - 1.0
    return Estimate(lift, treated_outcome, control_outcome, treated_base, control_base)


def _draw_chunk(system, strategy, metric, master, experiments, ks) -> list[tuple]:
    """Lifts of draws ks, one per experiment ``(policy, stream, sigma)`` in each.

    Without a stream, draw k assigns from the RNG seeded ``[*master, k]``. With
    stream s, it assigns from ``[*master, k, s]`` and multiplies realized
    quantities by lognormal noise of sigma ``sigma`` drawn from ``[*master, k, s + 1]``.
    """
    out = []
    # ``_map_draws`` checks the lifts; the error state must be set here, in the worker.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            lifts = []
            for policy, stream, sigma in experiments:
                seed, noise = [*master, int(k)], None
                if stream is not None:
                    noise_rng = np.random.default_rng(seed + [stream + 1])
                    noise = np.exp(noise_rng.normal(0.0, sigma, system.n))
                    seed.append(stream)
                a = assign(strategy, system.n, np.random.default_rng(seed))
                lifts.append(run_experiment(system, a, policy, metric, noise=noise).lift)
            out.append(tuple(lifts))
    return out


# The process pool of the outermost ``_pool`` block open in this thread, if any.
_active_pool: contextvars.ContextVar = contextvars.ContextVar("_active_pool", default=None)


@contextmanager
def _pool(workers: int):
    """Run the block with one pool of ``workers`` processes for every ``_parallel_map``.

    Re-entrant: a block inside another reuses the outer block's pool, so
    each outermost call (``monte_carlo_bias``, ``coverage_analysis``,
    ``sweep_substitution``, ``frontier``) starts its workers at most once.
    With ``workers`` <= 1 no pool is opened. When the outermost block exits,
    normally or by an exception, pending jobs are cancelled and the workers
    are joined, so no worker process outlives it.
    """
    if workers <= 1 or _active_pool.get() is not None:
        yield
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    token = _active_pool.set(pool)
    try:
        yield
    finally:
        _active_pool.reset(token)
        pool.shutdown(wait=True, cancel_futures=True)


def _parallel_map(fn, jobs):
    """``fn(*job)`` for each job, in order.

    While a ``_pool`` block holds a pool, every job is sent to it at once and
    the result is ``pool.map``'s lazy iterator, so the caller can use the
    first results while later jobs still run. Otherwise the jobs run here and
    the result is a list.
    """
    pool = _active_pool.get()
    if pool is None:
        return [fn(*job) for job in jobs]
    return pool.map(fn, *zip(*jobs))


def _map_draws(system, strategy, metric, master, experiments, p: int,
               workers: int) -> np.ndarray:
    """Lifts of draws 0..p-1 of each experiment, one row per experiment."""
    if p < 2:
        raise ValueError("p must be >= 2")
    chunks = np.array_split(np.arange(p), max(1, min(workers * 4, p)))
    jobs = [(system, strategy, metric, master, experiments, ks) for ks in chunks]
    with _pool(workers):
        lifts = np.asarray([x for part in _parallel_map(_draw_chunk, jobs) for x in part])
    if not np.isfinite(lifts).all():
        cause = ("the policy or noise_sigma is" if any(sigma for _, _, sigma in experiments)
                 else "the policy is")
        raise ValueError(f"an experiment estimate is not finite: {cause} out of "
                         "floating-point range for this system")
    return lifts.T


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*p)-th smallest value."""
    s = np.sort(values)
    idx = max(math.ceil(q * s.size) - 1, 0)
    return float(s[idx])


def _bias_report(estimates: np.ndarray, gte: float, seed: int) -> BiasReport:
    # Finite estimates can still sum or square past the float range.
    with np.errstate(over="ignore"):
        mean_est = float(estimates.mean())
        sd = float(estimates.std(ddof=1))
    absolute = abs(gte) < GTE_ABS_FLOOR
    denom = 1.0 if absolute else abs(gte)
    summary = {"mean_estimate": mean_est, "mean_bias": (mean_est - gte) / denom,
               "sd_estimate": sd, "relative_sd": sd / denom}
    overflow = [name for name, value in summary.items() if not math.isfinite(value)]
    if overflow:
        raise ValueError(f"the Monte-Carlo summary overflows ({', '.join(overflow)} not "
                         "finite): the policy is out of floating-point range for this system")
    return BiasReport(
        gte=gte,
        **summary,
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
    gte = global_treatment_effect(system, policy, metric)
    # An object array keeps each entry's value; numpy would turn [2**63 + 1, 0] into floats.
    master = [int(s) for s in np.array(master_seed, dtype=object, ndmin=1)]
    (estimates,) = _map_draws(system, strategy, metric, master, [(policy, None, None)],
                              p, workers)
    return _bias_report(estimates, gte, master[0])


def mc_standard_error(report: BiasReport) -> float:
    """Monte-Carlo standard error of mean_bias (same units as mean_bias)."""
    return report.relative_sd / math.sqrt(report.p)


def strategy_label(strategy: RandomizationStrategy) -> str:
    return strategy.name


def sweep_substitution(config: GeneratorConfig, phis, strategies, policy: PricePolicy,
                       metric: Metric, p: int, seed: int,
                       workers: int = 1) -> list[SweepRow]:
    """One BiasReport per (phi, strategy); a fresh system per phi.

    ``strategies`` holds the labels "article" and "cluster"; "cluster" uses
    the fresh system's ground-truth partition. An unknown label, or a phi
    outside [0, 1), is rejected before any work. Rows come out in (phi,
    strategy) order, and all of them share one pool of ``workers`` processes.
    """
    for label in strategies:
        if label not in ("article", "cluster"):
            raise ValueError(f"unknown strategy '{label}'")
    rows = []
    with _pool(workers):
        # Every phi is checked before the first system; the pool starts no worker before a job.
        if not all(0 <= phi < 1 for phi in phis):
            raise ValueError("phi values must lie in [0, 1)")
        for i, phi in enumerate(phis):
            system = generate_demand_system(replace(config, within_share=float(phi)), seed)
            for j, label in enumerate(strategies):
                strat = ArticleLevel() if label == "article" else ClusterLevel(system.partition)
                report = monte_carlo_bias(system, strat, policy, metric, p,
                                          master_seed=[seed, i, j], workers=workers)
                rows.append(SweepRow(phi=float(phi), strategy=label, report=report))
    return rows


def coverage_analysis(system: DemandSystem, strategy: RandomizationStrategy,
                      policy: PricePolicy, metric: Metric, p: int, seed: int,
                      noise_sigma: float = DEFAULT_NOISE_SIGMA,
                      workers: int = 1) -> CoverageReport:
    """Calibrate naive intervals from A/A spread and test them against the GTE.

    The pure simulator has no sampling noise, so seeded lognormal observation
    noise (sigma ``noise_sigma``) multiplies realized quantities in both the
    null-policy (A/A) and the treated runs. aa_sd is the standard deviation of
    null-policy estimates; coverage_rate is the share of treated estimates
    whose +/- 1.96 * aa_sd interval contains the true GTE.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, not {noise_sigma}")
    gte = global_treatment_effect(system, policy, metric)
    runs = [(PricePolicy(1.0), 0, noise_sigma), (policy, 2, noise_sigma)]
    aa, treated = _map_draws(system, strategy, metric, [seed], runs, p, workers)
    aa_sd = float(aa.std(ddof=1))
    defined = aa_sd != 0.0
    coverage_rate = mean_z = float("nan")
    if defined:
        coverage_rate = float((np.abs(treated - gte) <= 1.96 * aa_sd).mean())
        mean_z = float(((treated - gte) / aa_sd).mean())
    return CoverageReport(aa_sd=aa_sd, coverage_rate=coverage_rate, mean_z=mean_z, gte=gte,
                          p=p, seed=seed, noise_sigma=noise_sigma, defined=defined)
