"""Acceptance suite: one test (plus labeled sub-clauses) per release criterion.

Each criterion prints a single PASS/FAIL line on the real terminal, bypassing
pytest's capture, so a ``pytest -v`` log shows the verdicts inline.

Three sub-clauses (4b, 5b, 7b) were first written as statements that are
false for this model family: a cluster variance penalty, a singleton
modularity of -0.375, and an estimate spread that rises with coarsening.
Each now asserts the property that the documented model and the standard
modularity formula imply, with bounds taken from Monte-Carlo standard
errors; each docstring quotes the original statement and says why it is
false.
"""

import csv
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from interference_lab import (
    Assignment,
    GeneratorConfig,
    MetaExperimentInput,
    Metric,
    Partition,
    PricePolicy,
    assign,
    cli,
    compare,
    coverage_analysis,
    demand_at,
    dense_oracle,
    exposure_share,
    frontier,
    generate_demand_system,
    generate_sessions,
    global_treatment_effect,
    louvain,
    modularity,
    monte_carlo_bias,
    run_experiment,
    sweep_substitution,
)
from interference_lab.experiment import mc_standard_error
from tests.test_clustering import best_partition_q, two_triangles

WORKERS = os.cpu_count() or 1


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def _announce(label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[acceptance] {label}: FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"\n[acceptance] {label}: PASS", flush=True)

    return _announce


# --------------------------------------------------------------------------
# criterion 1: structured demand evaluation agrees with the dense oracle
# --------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence(announce):
    with announce("criterion 1 (oracle equivalence, 100 systems)"):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 101))
            cfg = GeneratorConfig(n=n, cluster_size_min=1, cluster_size_max=8)
            system = generate_demand_system(cfg, seed=int(rng.integers(1 << 30)))
            mu = rng.uniform(0.5, 1.5, n)
            fast = demand_at(system, mu)
            slow = dense_oracle(system, mu)
            worst = max(worst, float(np.max(np.abs(fast / slow - 1.0))))
        elapsed = time.time() - start
        assert worst < 1e-12
        assert elapsed < 5.0


# --------------------------------------------------------------------------
# criterion 2: closed-form two-article bias case
# --------------------------------------------------------------------------

def test_criterion_02_closed_form_bias(announce):
    with announce("criterion 2 (two-article closed-form bias)"):
        from tests.test_demand import make_system

        system = make_system([-2.0, -2.0], [0, 0], [0.5])
        policy = PricePolicy(0.9)
        est = run_experiment(system, Assignment(np.array([True, False])),
                             policy, Metric.UNITS).lift
        gte = global_treatment_effect(system, policy, Metric.UNITS)
        bias = (est - gte) / abs(gte)
        assert est == pytest.approx(0.9 ** -2.5 - 1.0, abs=1e-6)    # 0.301345
        assert gte == pytest.approx(0.9 ** -1.5 - 1.0, abs=1e-6)    # 0.171220
        assert bias == pytest.approx(
            (0.9 ** -2.5 - 0.9 ** -1.5) / (0.9 ** -1.5 - 1.0), abs=1e-6)  # 0.7600
        assert bias == pytest.approx(0.7600, abs=5e-4)


# --------------------------------------------------------------------------
# criterion 3: no interference, no bias
# --------------------------------------------------------------------------

def test_criterion_03_no_interference_nullity(announce):
    with announce("criterion 3 (nullity without interference)"):
        cfg = GeneratorConfig(n=1000, within_share=0.0, background_share=0.0)
        system = generate_demand_system(cfg, seed=11)
        policy, metric = PricePolicy(0.95), Metric.REVENUE
        for strategy in (Partition(np.arange(system.n)), system.partition):
            report = monte_carlo_bias(system, strategy, policy, metric,
                                      p=1000, master_seed=101, workers=WORKERS)
            assert abs(report.mean_bias) < 3 * mc_standard_error(report)


# --------------------------------------------------------------------------
# criterion 4: substitution sweep (bias grows with phi; clustering removes it)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def substitution_sweep():
    """Default-size sweep, shared between criterion 4's sub-tests.

    Cluster-level unbiasedness requires a fully within-cluster interference
    structure, so the sweep runs the default configuration with the
    cross-cluster background disabled.
    """
    cfg = GeneratorConfig(background_share=0.0)  # n=10000 default
    start = time.time()
    rows = sweep_substitution(cfg, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                              ["article", "cluster"], PricePolicy(0.95),
                              Metric.REVENUE, p=1000, seed=42, workers=WORKERS)
    elapsed = time.time() - start
    article = [r.report for r in rows if r.strategy == "article"]
    cluster = [r.report for r in rows if r.strategy == "cluster"]
    return article, cluster, elapsed


def test_criterion_04a_bias_growth_and_cluster_unbiasedness(
        substitution_sweep, announce):
    with announce("criterion 4a (bias growth; cluster unbiasedness; runtime)"):
        article, cluster, elapsed = substitution_sweep
        biases = [r.mean_bias for r in article]
        assert all(b2 > b1 for b1, b2 in zip(biases, biases[1:]))
        assert max(biases) >= 1.0
        for report in cluster:
            assert abs(report.mean_bias) < 3 * mc_standard_error(report)
        assert elapsed < 600.0


def test_criterion_04a_bias_reaches_100pct_without_a_near_zero_gte(
        substitution_sweep, announce):
    """4a's ``max(bias) >= 1`` comes from phi = 0.6, where the revenue GTE is
    about 0.00035, so a near-zero denominator alone could meet it. The
    large-n limit of the estimator gives a bias of 2.05 at phi = 0.4, where
    the GTE is 0.026; the claim must hold on some row whose |GTE| >= 0.02.
    """
    with announce("criterion 4a (bias >= 100% where |GTE| >= 0.02)"):
        article, _, _ = substitution_sweep
        assert any(r.mean_bias >= 1.0 for r in article if abs(r.gte) >= 0.02)


def relative_sd_standard_error(report) -> float:
    """Monte-Carlo standard error of ``report.relative_sd``.

    relative_sd is a sample sd s over p draws divided by the exact |GTE|,
    which carries no Monte-Carlo error. For normal estimates
    Var(s) = s^2 / (2(p - 1)) to first order, so SE(s) = s / sqrt(2(p - 1)).
    Each estimate is a ratio of sums over thousands of articles; on the
    criterion 4 sweep (phi = 0.1 and 0.6, both designs) its excess kurtosis
    was measured within +/-0.2, where the normal-theory SE holds to about 5%.
    """
    return report.relative_sd / np.sqrt(2.0 * (report.p - 1))


def test_criterion_04b_cluster_variance_penalty_as_stated(
        substitution_sweep, announce):
    """Cluster randomization pays no variance penalty in this model family.

    Originally stated: "cluster relative_sd exceeds article relative_sd at
    every phi". That is false here. The generator draws own elasticities,
    prices and quantities independently per article, and an article's
    within-cluster substitution mass does not depend on its cluster's size,
    so nothing varies at the cluster level. The heterogeneity spread of a
    balanced cluster split therefore equals that of a balanced article split
    in expectation over those independent per-article draws; the original
    text said "exactly", but for any one drawn system the two differ.
    Article splits add interference dispersion on top: each cluster's
    treated share varies from draw to draw, and with it the demand that
    treated articles take from their control neighbours. The variance cost
    of cluster randomization (Ugander et al., KDD 2013) needs outcomes that
    are correlated within a cluster, which this generator does not produce.
    The original text also claimed that finer randomization is never less
    noisy; that is false too: criterion 7b's gamma = 50 partition, which
    splits true clusters into pieces, is noisier than article randomization.

    Asserted instead, with SE from ``relative_sd_standard_error``:
    cluster spread <= article spread within 3 SE at every phi; the
    article/cluster ratio exceeds 1 by more than 3 SE wherever the article
    bias is >= 100%, and is larger at the largest phi than at the smallest;
    without any interference (phi = 0, no background) the two designs agree
    within 3 SE.
    """
    with announce("criterion 4b (no cluster variance penalty; article "
                  "spread inflated by interference)"):
        article, cluster, _ = substitution_sweep

        def diff_se(a, c):
            # the two arms use independent master seeds, so SEs add in quadrature
            return np.hypot(relative_sd_standard_error(a),
                            relative_sd_standard_error(c))

        def ratio_and_se(a, c):
            # delta method: relative SE of a ratio of independent estimates
            ratio = a.relative_sd / c.relative_sd
            rel = np.hypot(relative_sd_standard_error(a) / a.relative_sd,
                           relative_sd_standard_error(c) / c.relative_sd)
            return ratio, ratio * rel

        for art, clu in zip(article, cluster):
            assert clu.relative_sd - art.relative_sd <= 3 * diff_se(art, clu)

        ratios = [ratio_and_se(art, clu) for art, clu in zip(article, cluster)]
        strong = [r for r, art in zip(ratios, article) if art.mean_bias >= 1.0]
        assert strong
        for ratio, se in strong:
            assert ratio - 1.0 > 3 * se
        (first, first_se), (last, last_se) = ratios[0], ratios[-1]
        assert last - first > 3 * np.hypot(first_se, last_se)

        null_cfg = GeneratorConfig(within_share=0.0, background_share=0.0)
        rows = sweep_substitution(null_cfg, [0.0], ["article", "cluster"],
                                  PricePolicy(0.95), Metric.REVENUE, p=1000,
                                  seed=42, workers=WORKERS)
        art, clu = (r.report for r in rows)
        assert abs(art.relative_sd - clu.relative_sd) < 3 * diff_se(art, clu)


# --------------------------------------------------------------------------
# criterion 5: modularity unit values and near-optimal greedy clustering
# --------------------------------------------------------------------------

def test_criterion_05a_modularity_values_and_optimality(announce):
    with announce("criterion 5a (modularity values; near-optimal clustering)"):
        g = two_triangles()
        assert modularity(g, Partition(np.array([0, 0, 0, 1, 1, 1]))) == \
            pytest.approx(0.5, abs=1e-12)
        assert modularity(g, Partition(np.zeros(6, dtype=np.int64))) == \
            pytest.approx(0.0, abs=1e-12)
        # singleton partition: 6 nodes of degree 2, Q = -6 * (2/12)^2 = -1/6
        assert modularity(g, Partition(np.arange(6))) == \
            pytest.approx(-1 / 6, abs=1e-12)

        part = louvain(g, gamma=1.0, seed=0)
        assert part.n_clusters == 2
        assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)

        from tests.test_clustering import TestLouvain

        TestLouvain().test_near_optimal_on_small_graphs()


def test_criterion_05b_singleton_value_as_stated(announce):
    """Singleton modularity is -gamma * sum_i (k_i / 2m)^2; here -gamma / 6.

    Originally stated: "Q(singletons) = -0.375 on two disjoint triangles".
    That value contradicts the formula Q = sum_c [w_c/m - gamma (d_c/2m)^2]
    (Newman & Girvan 2004) used by ``modularity``: every triangle node has
    degree 2 and 2m = 12, so Q(singletons) = -6 * (2/12)^2 = -1/6, which is
    also what ``networkx.community.modularity`` gives and what criterion 5a
    asserts on the same call. -0.375 = -6 * (3/12)^2 presumes degree 3,
    and no degree convention gives it together with the criterion's own
    Q(all-in-one) = 0 and Q(triangles) = 0.5: degree 3 with 2m = 12 would
    make those -1.25 and -0.125.

    Asserted instead: Q(all-in-one) = 1 - gamma, which at gamma = 1 fixes
    the convention sum_i k_i = 2m, and the singleton value that convention
    implies, computed from the graph's strengths, at gamma = 0.5, 1 and 2.
    """
    with announce("criterion 5b (singleton modularity -gamma/6; "
                  "all-in-one 1 - gamma)"):
        g = two_triangles()
        k, m = g.strengths(), g.total_weight
        assert k.sum() == pytest.approx(2 * m, abs=1e-12)
        for gamma in (0.5, 1.0, 2.0):
            singleton = -gamma * float(((k / (2 * m)) ** 2).sum())
            assert singleton == pytest.approx(-gamma / 6, abs=1e-12)
            assert modularity(g, Partition(np.arange(6)), gamma) == \
                pytest.approx(singleton, abs=1e-12)
            assert modularity(g, Partition(np.zeros(6, dtype=np.int64)), gamma) == \
                pytest.approx(1 - gamma, abs=1e-12)


# --------------------------------------------------------------------------
# criterion 6: exposure shares
# --------------------------------------------------------------------------

def test_criterion_06_exposure_properties(announce):
    with announce("criterion 6 (exposure shares)"):
        # fully pure sessions + cluster randomization: no session crosses arms
        pure_part = Partition(np.repeat(np.arange(10), 10))
        pure = generate_sessions(pure_part, 5000, 2, 4, purity=1.0, seed=61)
        a = assign(pure_part, np.random.default_rng(62))
        assert exposure_share(pure, a).share_both == 0.0

        # two independent uniform views under a balanced article split: 1/2
        part = Partition(np.repeat(np.arange(10), 10))
        mixed = generate_sessions(part, 100_000, 2, 2, purity=0.0, seed=63)
        a = assign(Partition(np.arange(100)), np.random.default_rng(64))
        assert exposure_share(mixed, a).share_both == pytest.approx(0.5, abs=0.02)

        # calibration scenario: 50 clusters of 20, 3 views, purity 0.75,
        # cluster randomization -> about one session in three sees both arms
        calib_part = Partition(np.repeat(np.arange(50), 20))
        calib = generate_sessions(calib_part, 100_000, 3, 3, purity=0.75, seed=65)
        a = assign(calib_part, np.random.default_rng(66))
        assert exposure_share(calib, a).share_both == pytest.approx(1 / 3, abs=0.05)


# --------------------------------------------------------------------------
# criterion 7: resolution frontier
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frontier_runs():
    """Five seeded frontier sweeps over a coarse-to-fine resolution grid.

    The demand systems carry a positive cross-cluster background; session
    purity 0.8 makes the inferred partitions imperfect so that coarser
    resolutions heal more of the true substitution structure.
    """
    cfg = GeneratorConfig(n=2000, cluster_size_min=20, cluster_size_max=40,
                          within_share=0.5, background_share=0.1,
                          quantity_min=1.0, quantity_max=1000.0)
    gammas = [0.6, 20.0, 50.0]
    runs = []
    for s in range(5):
        system = generate_demand_system(cfg, seed=100 + s)
        sessions = generate_sessions(system.partition, 12_000, 2, 5,
                                     purity=0.8, seed=200 + s)
        points = frontier(system, sessions, gammas, PricePolicy(0.9),
                          Metric.UNITS, p=500, seed=300 + s, workers=WORKERS,
                          exposure_draws=16)
        assert all(pt.defined for pt in points)
        runs.append(points)  # sorted by gamma ascending
    return runs


def test_criterion_07a_frontier_bias_and_exposure(frontier_runs, announce):
    with announce("criterion 7a (frontier: bias/exposure fall with coarsening)"):
        mean_bias = np.mean([[pt.mean_bias for pt in run]
                             for run in frontier_runs], axis=0)
        mean_share = np.mean([[pt.share_both for pt in run]
                              for run in frontier_runs], axis=0)
        # rows are gamma-ascending; coarsening = moving left
        assert mean_bias[0] < mean_bias[1] < mean_bias[2]
        assert mean_share[0] < mean_share[1] < mean_share[2]
        # bias is reduced but never eliminated: > 3 MC SE at every point
        for run in frontier_runs:
            for pt in run:
                mc_se = pt.relative_sd / np.sqrt(500)
                assert pt.mean_bias > 3 * mc_se


def test_criterion_07b_variance_rise_as_stated(frontier_runs, announce):
    """The spread peaks where the inferred partition splits true clusters.

    Originally stated: "relative_sd increases as gamma (and cluster count)
    falls". That is false here, for the reason given in criterion 4b: the
    generator's heterogeneity is independent per article, so a coarser
    balanced split is not noisier. The original text went on to claim that
    coarsening lowers the spread; that is false too. At gamma = 20 and
    gamma = 0.6 the true clusters stay nearly whole and the spreads agree
    within error. At gamma = 50 Louvain splits each true cluster into a few
    pieces, so the treated share of a true cluster swings between draws
    and with it the substitution between arms: the spread there exceeds
    that of article randomization on the same systems.

    Asserted instead: coarsening from gamma = 20 to gamma = 0.6 does not
    raise the mean spread by more than 3 paired SE, and the spread at
    gamma = 50 exceeds the spread at gamma = 20 by more than 3 paired SE.
    """
    with announce("criterion 7b (spread flat under coarsening; peaks where "
                  "true clusters are split)"):
        # rows are runs, columns gamma = 0.6, 20, 50
        relsd = np.array([[pt.relative_sd for pt in run]
                          for run in frontier_runs])

        def paired(d):
            # Each run is an independent replicate (its own system, sessions,
            # inferred partitions and Monte-Carlo seeds), so the mean of the
            # per-run differences has standard error sd(d) / sqrt(runs). This
            # carries the Monte-Carlo error of each relative_sd as well as
            # the run-to-run variation of the inferred partitions.
            return d.mean(), d.std(ddof=1) / np.sqrt(d.size)

        coarsen, se = paired(relsd[:, 0] - relsd[:, 1])
        assert coarsen <= 3 * se
        oversplit, se = paired(relsd[:, 2] - relsd[:, 1])
        assert oversplit > 3 * se


# --------------------------------------------------------------------------
# criterion 8: meta-experiment arithmetic
# --------------------------------------------------------------------------

def test_criterion_08_meta_experiment_arithmetic(announce):
    with announce("criterion 8 (meta-experiment bias arithmetic)"):
        first = compare(MetaExperimentInput("first", 0.41, 0.05, 0.61))
        second = compare(MetaExperimentInput("second", 0.35, 0.08, 0.62))
        assert first.relative_bias == pytest.approx(0.488, abs=0.001)
        assert second.relative_bias == pytest.approx(0.771, abs=0.001)
        # rounded headline figures: +50% and +77%, within 2 points
        assert abs(first.relative_bias - 0.50) < 0.02
        assert abs(second.relative_bias - 0.77) < 0.02
        assert first.sigma_distance == pytest.approx(7.84, abs=0.01)
        assert second.sigma_distance == pytest.approx(6.615, abs=0.01)
        # "roughly 6 sigma" within the +/-2 sigma convention ambiguity
        assert 4.0 <= second.sigma_distance <= 8.0
        assert 4.0 <= first.sigma_distance <= 10.0


# --------------------------------------------------------------------------
# criterion 9: naive-interval coverage and the false-positive mechanism
# --------------------------------------------------------------------------

def test_criterion_09_coverage_false_positives(announce):
    with announce("criterion 9 (naive coverage; false-positive mechanism)"):
        policy, metric, sigma = PricePolicy(0.99), Metric.UNITS, 0.05

        clean_cfg = GeneratorConfig(n=2000, within_share=0.0,
                                    background_share=0.0)
        clean = generate_demand_system(clean_cfg, seed=21)
        r0 = coverage_analysis(clean, Partition(np.arange(clean.n)), policy, metric,
                               p=1000, seed=77, noise_sigma=sigma,
                               workers=WORKERS)
        assert r0.coverage_rate == pytest.approx(0.95, abs=0.03)

        strong_cfg = GeneratorConfig(n=2000, within_share=0.5,
                                     background_share=0.0)
        strong = generate_demand_system(strong_cfg, seed=21)
        r5 = coverage_analysis(strong, Partition(np.arange(strong.n)), policy, metric,
                               p=1000, seed=77, noise_sigma=sigma,
                               workers=WORKERS)
        assert r5.coverage_rate < 0.5
        assert r5.mean_z > 2.0


# --------------------------------------------------------------------------
# criterion 10: worker count never changes output bytes
# --------------------------------------------------------------------------

def test_criterion_10_cli_determinism(announce, tmp_path):
    with announce("criterion 10 (byte-identical CLI output, 1 vs 8 workers)"):
        meta_in = tmp_path / "meta_in.csv"
        meta_in.write_text("label,est_clustered,ci_halfwidth,est_article\n"
                           "a,0.41,0.05,0.61\n")

        def outputs(workers: int) -> dict[str, bytes]:
            d = tmp_path / f"w{workers}"
            d.mkdir()
            system = d / "sys.json"
            commands = {
                "gen": ["gen", "--n", "80", "--cluster-size-min", "3",
                        "--cluster-size-max", "6", "--out", system],
                "simulate": ["simulate", "--system", system, "--p", "24",
                             "--out", d / "bias.csv"],
                "sweep": ["sweep", "--n", "60", "--phis", "0.2,0.4",
                          "--phi-bg", "0", "--p", "16", "--out", d / "sweep.csv"],
                "cluster": ["cluster", "--system", system, "--n-sessions",
                            "1500", "--out", d / "part.csv"],
                "exposure": ["exposure", "--system", system, "--n-sessions",
                             "800", "--out", d / "exposure.csv"],
                "frontier": ["frontier", "--system", system, "--n-sessions",
                             "1500", "--gammas", "0.8,2", "--p", "16",
                             "--exposure-draws", "4", "--out", d / "frontier.csv"],
                "meta": ["meta", "--in", meta_in, "--out", d / "meta.csv"],
                "coverage": ["coverage", "--system", system, "--p", "32",
                             "--metric", "units", "--out", d / "coverage.csv"],
            }
            produced = {}
            for name, argv in commands.items():
                argv = [str(a) for a in argv]
                argv += ["--seed", "5", "--workers", str(workers)]
                assert cli.main(argv) == 0, name
                out = argv[argv.index("--out") + 1]
                produced[name] = Path(out).read_bytes()
            return produced

        serial, parallel = outputs(1), outputs(8)
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name] == parallel[name], name
