"""Modularity and greedy (Louvain-style) modularity maximization.

Q(partition) = sum_c [ w_c / m - gamma * (d_c / 2m)^2 ] with w_c the
intra-cluster edge weight, d_c the total weighted degree of cluster c, m the
total edge weight, and gamma the resolution parameter (gamma = 1 is standard
modularity). ``frontier`` sweeps gamma and reports the bias / variance /
exposure trade-off of cluster-randomizing on the inferred partitions. Bias
and exposure fall as gamma coarsens the partition; the estimate spread does
not rise with coarsening, but peaks at resolutions whose inferred partition
splits true clusters (see ``frontier``).

Both read the graph's ``src``/``dst``/``w`` edge arrays. A Louvain level is
such an edge list, with self-loops holding each node's internal weight.
Weights are integer counts, so no move decision depends on summation order.
Local moving skips a node whose last visit found no move until a community
it read gains or loses a node, since until then its inputs and so its
verdict are unchanged; partitions are those of visiting every node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# exposure_share is not called here; perfbench/tests/test_tracing.py checks this binding.
from .clickstream import (  # noqa: F401
    Session,
    SessionGraph,
    _covered_csr,
    _exposure,
    build_graph,
    exposure_share,
)
from .demand import DemandSystem, Metric, Partition, PricePolicy
from .experiment import (
    BiasReport,
    ClusterLevel,
    assign,
    monte_carlo_bias,
)

GAIN_EPS = 1e-12


@dataclass(frozen=True)
class FrontierPoint:
    """One resolution on the bias/variance/exposure frontier.

    ``defined`` is False when the resolution produced fewer than 2 clusters,
    leaving the bias fields NaN. ``share_both_sd`` is the spread of the
    exposure share across the assignment draws.
    """

    resolution: float
    n_clusters: int
    avg_cluster_size: float
    modularity: float
    share_both: float
    share_both_sd: float
    mean_bias: float
    relative_sd: float
    defined: bool = True


def modularity(graph: SessionGraph, partition: Partition, gamma: float = 1.0) -> float:
    """Resolution-parametrized modularity of a partition of the co-view graph."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    m = graph.total_weight
    if m <= 0:
        raise ValueError("modularity is undefined on an empty graph")
    if partition.n != graph.n:
        raise ValueError("partition does not cover the graph's nodes")
    c = partition.cluster_of
    k = partition.n_clusters
    same = c[graph.src] == c[graph.dst]
    intra = np.bincount(c[graph.src[same]], graph.w[same], minlength=k)
    degree = np.bincount(c, graph.strengths(), minlength=k)
    return float((intra / m - gamma * (degree / (2.0 * m)) ** 2).sum())


def _local_move(src: np.ndarray, dst: np.ndarray, w: np.ndarray, k: int, m: float,
                gamma: float, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """One local-moving phase over a level's k nodes; returns (community per node, any_move).

    Passes skip stable nodes without changing any move. A visit's verdict
    depends only on the node's community, its neighbours' communities (which
    give ``links``), ``sigma_tot`` of the communities those name, ``d_i``,
    ``m`` and ``gamma``. Weights are integer counts and ``links`` is summed in
    a fixed order, so the same inputs give the same verdict. A node whose
    visit found no move is stable until a community it read (its own or a
    neighbour's) gains or loses a node; a neighbour's move is such a change,
    since the neighbour leaves a community the node read. Each pass still
    draws its permutation, so the RNG stream, the pass count and every move
    are those of visiting every node.
    """
    strength = (np.bincount(src, w, minlength=k) + np.bincount(dst, w, minlength=k)).tolist()
    # CSR adjacency over both directions of every edge except self-loops
    link = src != dst
    tail = np.concatenate([src[link], dst[link]])
    order = np.argsort(tail, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=k))]).tolist()
    # One int object per node, shared by the lists below; fresh ints per
    # list entry would cost 32 bytes each.
    node = np.arange(k, dtype=object)
    nbr = node[np.concatenate([dst[link], src[link]])[order]].tolist()
    nbr_w = np.concatenate([w[link], w[link]])[order].tolist()
    comm = node.tolist()
    sigma_tot = strength.copy()
    two_m2 = 2.0 * m * m
    stable = [False] * k
    # watchers[c]: nodes found stable while reading sigma_tot[c]
    watchers: list[list[int]] = [[] for _ in range(k)]

    any_move = False
    while True:
        moved_this_pass = False
        for i in node[rng.permutation(k)].tolist():
            if stable[i]:
                continue
            current = comm[i]
            d_i = strength[i]
            # weight from i into each neighboring community
            links: dict[int, float] = {}
            for j, w_ij in zip(nbr[ptr[i]:ptr[i + 1]], nbr_w[ptr[i]:ptr[i + 1]]):
                links[comm[j]] = links.get(comm[j], 0.0) + w_ij
            base_in = links.get(current, 0.0)
            best_comm, best_gain = current, 0.0
            # ascending candidate order breaks near-ties toward the lowest id
            for cand in sorted(links):
                if cand == current:
                    continue
                gain = (links[cand] - base_in) / m - gamma * d_i * (
                    sigma_tot[cand] - (sigma_tot[current] - d_i)
                ) / two_m2
                if gain > best_gain + GAIN_EPS:
                    best_comm, best_gain = cand, gain
            if best_comm != current and best_gain > GAIN_EPS:
                sigma_tot[current] -= d_i
                sigma_tot[best_comm] += d_i
                comm[i] = best_comm
                moved_this_pass = True
                any_move = True
                for c in (current, best_comm):
                    for j in watchers[c]:
                        stable[j] = False
                    watchers[c] = []
            else:
                stable[i] = True
                watchers[current].append(i)
                for c in links:
                    if c != current:
                        watchers[c].append(i)
        if not moved_this_pass:
            break
    return np.array(comm), any_move


def louvain(graph: SessionGraph, gamma: float = 1.0, seed: int = 0) -> Partition:
    """Greedy modularity maximization with local moving and aggregation.

    Moves are accepted only for a strict gain (> 1e-12); ties break toward
    the lowest candidate community id; node visit order is shuffled per seed.
    The returned partition never scores below the singleton partition.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    m = graph.total_weight
    if m <= 0:
        raise ValueError("louvain requires a graph with positive total weight")
    rng = np.random.default_rng(seed)

    src, dst, w, k = graph.src, graph.dst, graph.w, graph.n
    membership = np.arange(graph.n)
    while True:
        comm, moved = _local_move(src, dst, w, k, m, gamma, rng)
        if not moved:
            break
        # membership maps original node -> current-level node; comm now maps
        # current-level node -> aggregated node, so compose them.
        labels, comm = np.unique(comm, return_inverse=True)
        membership = comm[membership]
        k = labels.size
        if k <= 1:
            break
        lo, hi = np.minimum(comm[src], comm[dst]), np.maximum(comm[src], comm[dst])
        pairs, pair_of = np.unique(lo * k + hi, return_inverse=True)
        src, dst, w = pairs // k, pairs % k, np.bincount(pair_of, w)
    return Partition.from_labels(membership)


def frontier(system: DemandSystem, sessions: list[Session], gammas, policy: PricePolicy,
             metric: Metric, p: int, seed: int, workers: int = 1,
             exposure_draws: int = 32) -> list[FrontierPoint]:
    """Bias/variance/exposure trade-off across clustering resolutions.

    Per gamma: cluster the co-view graph, average the exposure share over
    ``exposure_draws`` cluster-level assignments, and Monte-Carlo the bias of
    cluster-randomizing on the inferred partition. Rows are sorted by gamma.

    With the generator's per-article heterogeneity, ``relative_sd`` does not
    rise as gamma falls: partitions that keep true clusters whole spread
    alike. It peaks where the inferred partition splits true clusters into
    a few pieces each, since a true cluster's treated share then swings
    between draws, and with it the substitution between arms.
    """
    graph = build_graph(sessions, n=system.n)
    indptr, article = _covered_csr(sessions, system.n)
    points = []
    for idx, gamma in sorted(enumerate(gammas), key=lambda t: t[1]):
        part = louvain(graph, gamma, seed)
        q = modularity(graph, part, gamma)
        k = part.n_clusters
        if k < 2:
            points.append(FrontierPoint(
                resolution=float(gamma), n_clusters=k,
                avg_cluster_size=system.n / k, modularity=q,
                share_both=float("nan"), share_both_sd=float("nan"),
                mean_bias=float("nan"), relative_sd=float("nan"), defined=False))
            continue
        strategy = ClusterLevel(part)
        shares = []
        for d in range(exposure_draws):
            rng = np.random.default_rng([seed, idx, 1, d])
            treated = assign(strategy, system.n, rng).treated
            shares.append(_exposure(indptr, article, treated).share_both)
        shares = np.asarray(shares)
        report: BiasReport = monte_carlo_bias(system, strategy, policy, metric, p,
                                              master_seed=[seed, idx, 2], workers=workers)
        points.append(FrontierPoint(
            resolution=float(gamma),
            n_clusters=k,
            avg_cluster_size=system.n / k,
            modularity=q,
            share_both=float(shares.mean()),
            share_both_sd=float(shares.std(ddof=1)) if shares.size > 1 else 0.0,
            mean_bias=report.mean_bias,
            relative_sd=report.relative_sd,
        ))
    return points
