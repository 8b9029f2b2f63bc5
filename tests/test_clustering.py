"""Tests for modularity, the greedy optimizer, and the resolution frontier."""

import itertools
import multiprocessing
import os
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from interference_lab import (
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    SessionGraph,
    assign,
    build_graph,
    exposure_share,
    frontier,
    generate_demand_system,
    generate_sessions,
    louvain,
    modularity,
    monte_carlo_bias,
)
from interference_lab import clustering
from interference_lab.clustering import _louvain


def two_triangles() -> SessionGraph:
    return SessionGraph(n=6, edges={(0, 1): 1, (0, 2): 1, (1, 2): 1,
                                    (3, 4): 1, (3, 5): 1, (4, 5): 1})


def set_partitions(items):
    """All set partitions of ``items`` (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def best_partition_q(graph: SessionGraph, gamma: float = 1.0) -> float:
    best = -np.inf
    for blocks in set_partitions(range(graph.n)):
        labels = np.empty(graph.n, dtype=np.int64)
        for cid, block in enumerate(blocks):
            labels[block] = cid
        best = max(best, modularity(graph, Partition.from_labels(labels), gamma))
    return best


def spy_on_levels(monkeypatch) -> list[tuple[int, bool]]:
    """(k, whether it returned None) of each later ``_local_move`` call."""
    calls = []
    local_move = clustering._local_move

    def spy(*args):
        comm = local_move(*args)
        calls.append((args[3], comm is None))
        return comm

    monkeypatch.setattr(clustering, "_local_move", spy)
    return calls


def split_level(calls, n_gammas: int) -> int | None:
    """The k of the level where one ``_louvain`` call's gammas differ; None if they never do.

    Within one run of levels each has fewer nodes than the last, so after the
    call that gave up, a call whose k is not below the one before starts a
    gamma's resume: there must be one per gamma, each at the level that gave up.
    """
    gave_up = [i for i, (_, none) in enumerate(calls) if none]
    if not gave_up:
        return None
    [i] = gave_up
    starts = [k for (before, _), (k, _) in zip(calls[i:], calls[i + 1:]) if k >= before]
    assert starts == [calls[i][0]] * n_gammas
    return calls[i][0]


class TestModularity:
    def test_two_triangles_true_partition(self):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert modularity(two_triangles(), part) == pytest.approx(0.5, abs=1e-12)

    def test_two_triangles_all_in_one(self):
        part = Partition(np.zeros(6, dtype=np.int64))
        assert modularity(two_triangles(), part) == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_singletons(self):
        part = Partition(np.arange(6))
        # every node has degree 2, so Q = -6 * (2/12)^2 = -1/6
        assert modularity(two_triangles(), part) == pytest.approx(-1 / 6, abs=1e-12)

    def test_resolution_scales_degree_penalty(self):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        g = two_triangles()
        q1 = modularity(g, part, gamma=1.0)
        q2 = modularity(g, part, gamma=2.0)
        # intra term is 1; the penalty doubles from 0.5 to 1.0
        assert q2 == pytest.approx(2 * q1 - 1.0, abs=1e-12)

    def test_validation(self):
        g = two_triangles()
        with pytest.raises(ValueError):
            modularity(g, Partition(np.zeros(6, dtype=np.int64)), gamma=0.0)
        with pytest.raises(ValueError):
            modularity(g, Partition(np.zeros(5, dtype=np.int64)))
        with pytest.raises(ValueError):
            modularity(SessionGraph(n=3, edges={}),
                       Partition(np.zeros(3, dtype=np.int64)))


class TestLouvain:
    def test_recovers_two_triangles(self):
        for seed in range(5):
            part = louvain(two_triangles(), gamma=1.0, seed=seed)
            assert part.n_clusters == 2
            assert len({int(c) for c in part.cluster_of[:3]}) == 1
            assert len({int(c) for c in part.cluster_of[3:]}) == 1

    def test_never_below_singleton_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            edges = {}
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < 0.4:
                    edges[(i, j)] = int(rng.integers(1, 4))
            if not edges:
                continue
            g = SessionGraph(n=n, edges=edges)
            part = louvain(g, gamma=1.0, seed=3)
            singles = Partition(np.arange(n))
            assert modularity(g, part) >= modularity(g, singles) - 1e-12

    def test_near_optimal_on_small_graphs(self):
        fixed_graphs = [
            two_triangles(),
            SessionGraph(n=4, edges={(0, 1): 3, (2, 3): 3, (1, 2): 1}),
            SessionGraph(n=5, edges={(0, 1): 1, (1, 2): 1, (2, 3): 1,
                                     (3, 4): 1, (0, 4): 1}),
            SessionGraph(n=7, edges={(0, 1): 2, (0, 2): 2, (1, 2): 2,
                                     (3, 4): 1, (5, 6): 4, (2, 3): 1}),
            SessionGraph(n=8, edges={(0, 1): 1, (1, 2): 1, (0, 2): 1,
                                     (3, 4): 1, (4, 5): 1, (3, 5): 1,
                                     (6, 7): 2, (0, 6): 1}),
        ]
        for g in fixed_graphs:
            part = louvain(g, gamma=1.0, seed=1)
            assert modularity(g, part) >= best_partition_q(g) - 0.05

    def test_planted_partition_recovery(self):
        part = Partition(np.repeat(np.arange(5), 12))
        sessions = generate_sessions(part, 4000, 2, 4, purity=0.9, seed=7)
        from interference_lab import build_graph

        g = build_graph(sessions, n=60)
        found = louvain(g, gamma=1.0, seed=7)
        assert found.n_clusters == 5
        # every found cluster is exactly one planted cluster
        for c in range(found.n_clusters):
            members = np.flatnonzero(found.cluster_of == c)
            assert len({int(part.cluster_of[m]) for m in members}) == 1

    def test_deterministic_per_seed(self):
        g = two_triangles()
        a = louvain(g, gamma=1.0, seed=42)
        b = louvain(g, gamma=1.0, seed=42)
        np.testing.assert_array_equal(a.cluster_of, b.cluster_of)

    def test_high_resolution_shatters(self):
        g = two_triangles()
        part = louvain(g, gamma=50.0, seed=0)
        assert part.n_clusters == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            louvain(two_triangles(), gamma=-1.0)
        with pytest.raises(ValueError):
            louvain(SessionGraph(n=3, edges={}))

    def test_stops_at_a_level_with_no_edge_between_communities(self, monkeypatch):
        # Level 1 merges the triangle and the pair; the level it would aggregate
        # to has no edge between two nodes, so local moving runs once.
        sizes = []
        local_move = clustering._local_move
        monkeypatch.setattr(clustering, "_local_move",
                            lambda *a: sizes.append(a[3]) or local_move(*a))
        graph = SessionGraph(n=200, edges={(0, 1): 1, (1, 2): 1, (0, 2): 1, (150, 199): 2})
        part = louvain(graph, gamma=1.0, seed=3)
        assert sizes == [200]
        labels = np.arange(200)
        labels[[1, 2]], labels[199] = 0, 150
        np.testing.assert_array_equal(part.cluster_of, Partition.from_labels(labels).cluster_of)

    def test_a_repeated_gamma_resumes_once(self, monkeypatch):
        # Imported here because test_graph_oracle imports this module's spy helpers.
        from tests.test_graph_oracle import CLIQUE_AND_PAIR, N
        graph = build_graph(CLIQUE_AND_PAIR, n=N)
        gammas = (200.0, 50.0, 200.0)
        levels = spy_on_levels(monkeypatch)
        parts = _louvain(graph, gammas, 3)
        # The shared level gives up, then gamma 200 and gamma 50 resume once each.
        assert len(levels) == 4
        assert split_level(levels, 2) == N
        monkeypatch.undo()
        for gamma, part in zip(gammas, parts):
            np.testing.assert_array_equal(part.cluster_of, louvain(graph, gamma, 3).cluster_of)

    def test_no_sort_key_outlives_the_setup_of_a_level(self, monkeypatch):
        # The edge-sized array that a level sorts and the order it sorts into are
        # freed before the first pass draws its visit order, so the visits hold
        # only the neighbour lists and the per-node state.
        keys = []
        argsort = np.argsort

        def recorded(a, *args, **kwargs):
            order = argsort(a, *args, **kwargs)
            keys.extend([weakref.ref(a), weakref.ref(order)])
            return order

        class Checked:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.passes = 0

            def permutation(self, k):
                assert len(keys) == 2 and all(key() is None for key in keys)
                self.passes += 1
                return self.rng.permutation(k)

        system = generate_demand_system(GeneratorConfig(n=60), seed=4)
        graph = build_graph(generate_sessions(system.partition, 400, 2, 4, 0.9, 5), system.n)
        args = (graph.src, graph.dst, graph.w, graph.n, graph.total_weight, (1.0,))
        expected = clustering._local_move(*args, np.random.default_rng(6))
        monkeypatch.setattr(np, "argsort", recorded)
        rng = Checked(6)
        np.testing.assert_array_equal(clustering._local_move(*args, rng), expected)
        assert rng.passes >= 2

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        graph = two_triangles()
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            louvain(graph, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            modularity(graph, Partition.from_labels(np.zeros(6, dtype=np.int64)), gamma)


class TestFrontier:
    def test_rows_sorted_and_defined(self):
        cfg = GeneratorConfig(n=120, cluster_size_min=5, cluster_size_max=10,
                              within_share=0.4, background_share=0.05)
        system = generate_demand_system(cfg, seed=31)
        sessions = generate_sessions(system.partition, 3000, 2, 4,
                                     purity=0.85, seed=32)
        points = frontier(system, sessions, gammas=[2.0, 0.5], policy=PricePolicy(0.9),
                          metric=Metric.UNITS, p=40, seed=33, exposure_draws=8)
        assert [pt.resolution for pt in points] == [0.5, 2.0]
        for pt in points:
            assert pt.defined
            assert pt.n_clusters >= 2
            assert pt.avg_cluster_size == pytest.approx(120 / pt.n_clusters)
            assert 0.0 <= pt.share_both <= 1.0

    def test_single_cluster_point_flagged(self):
        # a tiny dense graph at a minuscule resolution collapses to one cluster
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4,
                              within_share=0.3, background_share=0.05)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 800, 2, 4,
                                     purity=0.5, seed=42)
        points = frontier(system, sessions, gammas=[1e-6], policy=PricePolicy(0.9),
                          metric=Metric.UNITS, p=10, seed=43, exposure_draws=4)
        (pt,) = points
        assert not pt.defined
        assert pt.n_clusters == 1
        assert np.isnan(pt.mean_bias) and np.isnan(pt.share_both)

    def test_deterministic_across_worker_counts(self):
        cfg = GeneratorConfig(n=60, cluster_size_min=4, cluster_size_max=8,
                              within_share=0.3, background_share=0.05)
        system = generate_demand_system(cfg, seed=51)
        sessions = generate_sessions(system.partition, 1500, 2, 4,
                                     purity=0.9, seed=52)
        kwargs = dict(gammas=[0.8, 2.0], policy=PricePolicy(0.9),
                      metric=Metric.UNITS, p=24, seed=53, exposure_draws=4)
        assert (frontier(system, sessions, workers=1, **kwargs)
                == frontier(system, sessions, workers=8, **kwargs))

    def test_pooled_louvain_calls_match_serial(self):
        # Unsorted gammas, one small enough to leave a single cluster; NaN
        # fields of the undefined point compare equal through assert_equal.
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4,
                              within_share=0.3, background_share=0.05)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 800, 2, 4, purity=0.5, seed=42)
        kwargs = dict(gammas=[4.0, 1e-6, 1.5], policy=PricePolicy(0.9),
                      metric=Metric.UNITS, p=10, seed=43, exposure_draws=4)
        rows = {w: [astuple(pt) for pt in frontier(system, sessions, workers=w, **kwargs)]
                for w in (1, 2, 3)}
        assert [r[0] for r in rows[1]] == [1e-6, 1.5, 4.0]
        assert [r[-1] for r in rows[1]] == [False, True, True]
        np.testing.assert_equal(rows[2], rows[1])
        np.testing.assert_equal(rows[3], rows[1])

    def test_a_repeated_gamma_is_a_replicate_row(self):
        system = generate_demand_system(GeneratorConfig(n=300), 5)
        sessions = generate_sessions(system.partition, 900, 2, 5, 0.8, 5)
        gammas, seed, draws = [1.0, 4.0, 1.0], 5, 6
        points = frontier(system, sessions, gammas, PricePolicy(), Metric.REVENUE, p=4,
                          seed=seed, exposure_draws=draws)
        assert [pt.resolution for pt in points] == [1.0, 1.0, 4.0]
        first, repeat, _ = points
        assert (first.n_clusters, first.modularity) == (repeat.n_clusters, repeat.modularity)
        assert first.share_both != repeat.share_both
        graph = build_graph(sessions, n=system.n)
        for point, idx in zip(points, [0, 2, 1]):
            part = louvain(graph, point.resolution, seed)
            shares = [exposure_share(sessions,
                                     assign(part, np.random.default_rng([seed, idx, 1, d])))
                      .share_both for d in range(draws)]
            assert point.share_both == float(np.mean(shares))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_defined_row_is_its_own_monte_carlo_bias(self, workers):
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4,
                              within_share=0.3, background_share=0.05)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 800, 2, 4, purity=0.5, seed=42)
        graph = build_graph(sessions, n=system.n)
        gammas, policy, metric, p, seed = [4.0, 1e-6, 1.5], PricePolicy(0.9), Metric.UNITS, 10, 43
        rows = {pt.resolution: pt for pt in frontier(system, sessions, gammas, policy, metric,
                                                     p, seed, workers=workers, exposure_draws=4)}
        assert [rows[gamma].defined for gamma in gammas] == [True, False, True]
        for idx, gamma in enumerate(gammas):
            if rows[gamma].defined:
                part = louvain(graph, gamma, seed)
                report = monte_carlo_bias(system, part, policy, metric, p, [seed, idx, 2])
                assert (rows[gamma].mean_bias, rows[gamma].relative_sd) == (
                    report.mean_bias, report.relative_sd)

    @pytest.mark.parametrize("gammas,split_level_size", [((50.0, 10.0), 60), ((2.0, 0.8), None)],
                             ids=["split-at-level-1", "never-split"])
    def test_shared_louvain_rows_match_separate_calls(self, gammas, split_level_size,
                                                      monkeypatch):
        cfg = GeneratorConfig(n=60, cluster_size_min=4, cluster_size_max=8,
                              within_share=0.3, background_share=0.05)
        system = generate_demand_system(cfg, seed=51)
        sessions = generate_sessions(system.partition, 1500, 2, 4, purity=0.9, seed=52)
        graph = build_graph(sessions, n=system.n)
        levels = spy_on_levels(monkeypatch)
        _louvain(graph, tuple(sorted(gammas)), 53)
        assert split_level(levels, len(gammas)) == split_level_size
        kwargs = dict(gammas=list(gammas), policy=PricePolicy(0.9), metric=Metric.UNITS,
                      p=10, seed=53, exposure_draws=4)
        rows = {w: [astuple(pt) for pt in frontier(system, sessions, workers=w, **kwargs)]
                for w in (1, 2, 3)}
        for gamma, row in zip(sorted(gammas), rows[1]):
            part = louvain(graph, gamma, 53)
            assert row[:4] == (gamma, part.n_clusters, system.n / part.n_clusters,
                               modularity(graph, part, gamma))
        np.testing.assert_equal(rows[2], rows[1])
        np.testing.assert_equal(rows[3], rows[1])

    def test_louvain_runs_here_before_any_worker_starts(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append((os.getpid(), multiprocessing.active_children()))
            return _louvain(*args)

        monkeypatch.setattr(clustering, "_louvain", spy)
        cfg = GeneratorConfig(n=60, cluster_size_min=4, cluster_size_max=8,
                              within_share=0.3, background_share=0.05)
        system = generate_demand_system(cfg, seed=51)
        sessions = generate_sessions(system.partition, 1500, 2, 4, purity=0.9, seed=52)
        # The gammas split at level 1: one shared call, then one per gamma.
        frontier(system, sessions, gammas=[50.0, 10.0], policy=PricePolicy(0.9),
                 metric=Metric.UNITS, p=10, seed=53, workers=2, exposure_draws=4)
        assert calls == [(os.getpid(), [])] * 3

    def test_rejects_p_below_2_before_any_work(self, monkeypatch):
        monkeypatch.setattr("interference_lab.clustering.build_graph",
                            lambda *a: pytest.fail("the graph was built"))
        monkeypatch.setattr("interference_lab.clustering._louvain",
                            lambda *a: pytest.fail("Louvain started"))
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 100, 2, 4, purity=0.5, seed=42)
        with pytest.raises(ValueError, match="^p must be >= 2$"):
            frontier(system, sessions, gammas=[1.0], policy=PricePolicy(0.9),
                     metric=Metric.UNITS, p=1, seed=43, workers=2)

    def test_an_exposure_draw_count_that_no_array_can_hold_fails_before_louvain(
            self, monkeypatch):
        monkeypatch.setattr("interference_lab.clustering._louvain",
                            lambda *a: pytest.fail("Louvain started"))
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 100, 2, 4, purity=0.5, seed=42)
        with pytest.raises((ValueError, MemoryError),
                           match=r"^exposure_draws 100000000000000000000: "):
            frontier(system, sessions, gammas=[1.0], policy=PricePolicy(0.9),
                     metric=Metric.UNITS, p=4, seed=43, exposure_draws=10**20)

    def test_rejects_no_gammas_before_the_graph(self, monkeypatch):
        monkeypatch.setattr("interference_lab.clustering.build_graph",
                            lambda *a: pytest.fail("graph built"))
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 100, 2, 4, purity=0.5, seed=42)
        with pytest.raises(ValueError, match="^gammas must be non-empty$"):
            frontier(system, sessions, gammas=[], policy=PricePolicy(0.9),
                     metric=Metric.UNITS, p=10, seed=43)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_bad_gamma_before_any_work(self, gamma, monkeypatch):
        monkeypatch.setattr("interference_lab.clustering._louvain",
                            lambda *a: pytest.fail("Louvain started"))
        cfg = GeneratorConfig(n=12, cluster_size_min=3, cluster_size_max=4)
        system = generate_demand_system(cfg, seed=41)
        sessions = generate_sessions(system.partition, 100, 2, 4, purity=0.5, seed=42)
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            frontier(system, sessions, gammas=[1.0, gamma], policy=PricePolicy(0.9),
                     metric=Metric.UNITS, p=10, seed=43, workers=2)
