"""Randomized pricing experiments on simulated demand systems.

A design is the ``Partition`` randomized over: an assignment is a balanced
random split of its clusters, and the article design is the singleton
partition ``Partition(np.arange(n))``. The experiment estimator is the ratio
of relative lifts, (Y_T / Y_T0) / (Y_C / Y_C0) - 1, which is scale-free under
group imbalance.
Monte Carlo over assignments quantifies interference bias against the exact
global treatment effect; the coverage analysis reproduces the false-positive
mechanism of naive A/A-calibrated intervals.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
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


def assign(partition: Partition, rng: np.random.Generator) -> Assignment:
    """Draw a balanced random split of the clusters; whole clusters share a label."""
    k, unit_of = partition.n_clusters, partition.cluster_of
    if k < 2:
        raise ValueError("randomization needs >= 2 units (articles or clusters)")
    treated = np.zeros(k, dtype=bool)
    treated[rng.permutation(k)[: k // 2]] = True
    return Assignment(treated[unit_of])


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
    return Estimate(lift)


def _draw_chunk(system, partition, metric, master, policy, noise, ks) -> list[float]:
    """Lifts of draws ks of one experiment; ``noise`` is None or ``(stream, sigma)``.

    Without noise, draw k splits ``partition`` with the RNG seeded ``[*master, k]``.
    With noise, it splits from ``[*master, k, stream]`` and multiplies realized
    quantities by lognormal noise of sigma ``sigma`` drawn from ``[*master, k, stream + 1]``.
    """
    out = []
    # ``_map_draws`` checks the lifts; the error state must be set here, in the worker.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            seed, factor = [*master, int(k)], None
            if noise is not None:
                stream, sigma = noise
                noise_rng = np.random.default_rng(seed + [stream + 1])
                factor = np.exp(noise_rng.normal(0.0, sigma, system.n))
                seed.append(stream)
            a = assign(partition, np.random.default_rng(seed))
            out.append(run_experiment(system, a, policy, metric, noise=factor).lift)
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on, which taskset or a cgroup can narrow."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_map(fn, jobs, workers: int) -> list:
    """``fn(*job)`` for each job, in order, on a pool of ``workers`` processes.

    The pool has at most ``usable_cpus()`` processes, which start at the first
    job under the fork start method; with ``workers`` <= 1, or no jobs, there
    is no pool. Each command makes at most one call, so it starts at most one
    pool. When the call returns or raises, pending jobs are cancelled and no
    worker outlives it.
    """
    if workers <= 1 or not jobs:
        return [fn(*job) for job in jobs]
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, usable_cpus()))
    try:
        return list(pool.map(fn, *zip(*jobs)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _check_p(p: int) -> None:
    if p < 2:
        raise ValueError("p must be >= 2")


def _map_draws(tasks: list[tuple], p: int, workers: int) -> list[np.ndarray]:
    """Lifts of draws 0..p-1 of each task, one vector per task.

    A task is one experiment ``(system, partition, metric, master, policy, noise)``,
    as ``_draw_chunk`` takes it; the chunks of every task go to one ``_parallel_map``.
    """
    _check_p(p)
    # Four chunks per process of the pool, which ``_parallel_map`` caps at ``usable_cpus()``.
    chunks = np.array_split(np.arange(p), max(1, min(4 * min(workers, usable_cpus()), p)))
    parts = iter(_parallel_map(_draw_chunk, [(*task, ks) for task in tasks for ks in chunks],
                               workers))
    out = [np.asarray([x for _ in chunks for x in next(parts)]) for _ in tasks]
    for lifts, (*_, noise) in zip(out, tasks):
        if not np.isfinite(lifts).all():
            cause = "the policy or noise_sigma is" if noise and noise[1] else "the policy is"
            raise ValueError(f"an experiment estimate is not finite: {cause} out of "
                             "floating-point range for this system")
    return out


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*p)-th smallest value (the smallest at q = 0)."""
    return float(np.quantile(values, q, method="inverted_cdf"))


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


def _bias_reports(tasks: list[tuple], p: int, workers: int) -> list[BiasReport]:
    """One BiasReport per ``_map_draws`` task, its seed ``master[0]``, from one ``_map_draws``."""
    gtes = [global_treatment_effect(system, policy, metric)
            for system, _, metric, _, policy, _ in tasks]
    return [_bias_report(estimates, gte, master[0]) for estimates, gte, (_, _, _, master, _, _)
            in zip(_map_draws(tasks, p, workers), gtes, tasks)]


def monte_carlo_bias(system: DemandSystem, partition: Partition,
                     policy: PricePolicy, metric: Metric, p: int, master_seed,
                     workers: int = 1) -> BiasReport:
    """Distribution of experiment estimates over p random splits of ``partition``.

    Permutation k draws its RNG from (master_seed, k), so the result is
    bit-identical for any worker count.
    """
    # An object array keeps each entry's value; numpy would turn [2**63 + 1, 0] into floats.
    master = [int(s) for s in np.array(master_seed, dtype=object, ndmin=1)]
    return _bias_reports([(system, partition, metric, master, policy, None)], p, workers)[0]


def mc_standard_error(report: BiasReport) -> float:
    """Monte-Carlo standard error of mean_bias (same units as mean_bias)."""
    return report.relative_sd / math.sqrt(report.p)


def sweep_substitution(config: GeneratorConfig, phis, strategies, policy: PricePolicy,
                       metric: Metric, p: int, seed: int,
                       workers: int = 1) -> list[SweepRow]:
    """One BiasReport per (phi, strategy); a fresh system per phi.

    ``strategies`` holds the labels "article" and "cluster", which randomize
    over the fresh system's singleton and ground-truth partitions. An unknown
    label, a phi outside [0, 1) or with an invalid config, or p < 2 is
    rejected before any work.
    Rows come out in (phi, strategy) order; the draws of every row go to one
    map over ``workers`` processes.
    """
    for label in strategies:
        if label not in ("article", "cluster"):
            raise ValueError(f"unknown strategy '{label}'")
    if not all(0 <= phi < 1 for phi in phis):
        raise ValueError("phi values must lie in [0, 1)")
    replace(config, within_share=0.0).validate()  # the fields other than phi
    configs = [replace(config, within_share=float(phi)) for phi in phis]
    for cfg in configs:
        try:
            cfg.validate()
        except ValueError as exc:
            raise ValueError(f"phi {cfg.within_share}: {exc}") from None
    _check_p(p)
    systems = [generate_demand_system(cfg, seed) for cfg in configs]
    tasks = [(system, Partition(np.arange(system.n)) if label == "article" else system.partition,
              metric, [seed, i, j], policy, None) for i, system in enumerate(systems)
             for j, label in enumerate(strategies)]
    reports = iter(_bias_reports(tasks, p, workers))
    return [SweepRow(phi=cfg.within_share, strategy=label, report=next(reports))
            for cfg in configs for label in strategies]


def coverage_analysis(system: DemandSystem, partition: Partition,
                      policy: PricePolicy, metric: Metric, p: int, seed: int,
                      noise_sigma: float = DEFAULT_NOISE_SIGMA,
                      workers: int = 1) -> CoverageReport:
    """Calibrate naive intervals from A/A spread and test them against the GTE.

    Both runs randomize over ``partition``. The pure simulator has no sampling
    noise, so seeded lognormal observation noise (sigma ``noise_sigma``)
    multiplies realized quantities in both the null-policy (A/A) and the
    treated runs. aa_sd is the standard deviation of null-policy estimates;
    coverage_rate is the share of treated estimates whose +/- 1.96 * aa_sd
    interval contains the true GTE.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, not {noise_sigma}")
    gte = global_treatment_effect(system, policy, metric)
    aa, treated = _map_draws([(system, partition, metric, [seed], arm, (stream, noise_sigma))
                              for arm, stream in [(PricePolicy(1.0), 0), (policy, 2)]], p, workers)
    aa_sd = float(aa.std(ddof=1))
    defined = aa_sd != 0.0
    coverage_rate = mean_z = float("nan")
    if defined:
        coverage_rate = float((np.abs(treated - gte) <= 1.96 * aa_sd).mean())
        mean_z = float(((treated - gte) / aa_sd).mean())
    return CoverageReport(aa_sd=aa_sd, coverage_rate=coverage_rate, mean_z=mean_z, gte=gte,
                          p=p, seed=seed, noise_sigma=noise_sigma, defined=defined)
