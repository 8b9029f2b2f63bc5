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
Local moving never visits a node without a neighbour, which can only stay, and
skips a node whose visit found no move until a community it read gains or
loses a node; partitions are those of visiting every node. The levels stop at
one that moves no node, leaves one community or leaves no edge between two.

Local moving takes a tuple of gammas and gives up at the first visit where
their verdicts differ. ``_louvain`` returns one partition per gamma: it runs
the levels its gammas share once, then resumes each distinct gamma from the
start of the first level where they differ. ``louvain`` is the one-gamma case.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .clickstream import Clickstream, Session, SessionGraph, build_graph, exposure_share
from .demand import DemandSystem, Metric, Partition, PricePolicy
from .experiment import _Experiment, _bias_reports, _check_p, assign

GAIN_EPS = 1e-12
DEFAULT_EXPOSURE_DRAWS = 32  # cluster-level assignments averaged per frontier gamma


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


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, not {gamma}")


def modularity(graph: SessionGraph, partition: Partition, gamma: float = 1.0) -> float:
    """Resolution-parametrized modularity of a partition of the co-view graph."""
    _check_gamma(gamma)
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
                gammas: tuple, rng: np.random.Generator) -> np.ndarray | None:
    """One local-moving phase over a level's k nodes for every resolution in ``gammas``.

    Returns the community per node, as for each gamma alone, or None at the
    first visit where the gammas' verdicts differ (never with one gamma).

    Passes visit the nodes with a neighbour in the order of a permutation of
    all k nodes, and skip stable ones. A node without a neighbour can only
    stay, and no node can join it, so it is stable from the start. A visit's
    verdict depends only on the node's community, its neighbours' communities
    (which give ``links``), ``sigma_tot`` of the communities those name,
    ``d_i``, ``m`` and ``gamma``; weights are integer counts and ``links`` is
    summed in a fixed order, so the same inputs give the same verdict. A visit
    that finds no move marks the node stable until a community it read (its own
    or a neighbour's) gains or loses a node. A pass without a move leaves every
    node stable, so the RNG stream and every move are those of visiting every
    node. A level whose edges are all self-loops would run no pass, not one
    without a move, but ``_louvain`` stops before it builds one. The visits keep
    only the neighbour lists and per-node state: the edge-sized sort keys go first.
    """
    strength = (np.bincount(src, w, minlength=k) + np.bincount(dst, w, minlength=k)).tolist()
    # CSR adjacency over both directions of every edge except self-loops
    link = src != dst
    tail = np.concatenate([src[link], dst[link]])
    order = np.argsort(tail, kind="stable")
    degree = np.bincount(tail, minlength=k)
    del tail
    ptr = np.concatenate([[0], np.cumsum(degree)]).tolist()
    # One int object per node, shared by the lists below; fresh ints per
    # list entry would cost 32 bytes each.
    node = np.arange(k, dtype=object)
    nbr = node[np.concatenate([dst[link], src[link]])[order]].tolist()
    nbr_w = np.concatenate([w[link], w[link]])[order].tolist()
    del order
    comm = node.tolist()
    sigma_tot = strength.copy()
    two_m2 = 2.0 * m * m
    stable = (degree == 0).tolist()
    # watchers[c]: nodes found stable while reading sigma_tot[c]
    watchers: defaultdict[int, list[int]] = defaultdict(list)

    while not all(stable):
        perm = rng.permutation(k)
        for i in node[perm[degree[perm] > 0]].tolist():
            if stable[i]:
                continue
            current = comm[i]
            d_i = strength[i]
            # weight from i into each neighboring community
            links: dict[int, float] = {}
            for j, w_ij in zip(nbr[ptr[i]:ptr[i + 1]], nbr_w[ptr[i]:ptr[i + 1]]):
                links[comm[j]] = links.get(comm[j], 0.0) + w_ij
            base_in = links.setdefault(current, 0.0)
            rest = sigma_tot[current] - d_i
            # ascending candidate order breaks near-ties toward the lowest id; staying
            # scores -gamma d_i^2 / 2m^2 <= 0 as a candidate, so it never beats best_gain
            cands = sorted(links)
            verdict = None
            for gamma in gammas:
                gamma_d = gamma * d_i
                best_comm, best_gain = current, 0.0
                for c in cands:
                    gain = (links[c] - base_in) / m - gamma_d * (sigma_tot[c] - rest) / two_m2
                    if gain > best_gain + GAIN_EPS:
                        best_comm, best_gain = c, gain
                if verdict not in (None, best_comm):
                    return None
                verdict = best_comm
            if best_comm != current:
                sigma_tot[current] -= d_i
                sigma_tot[best_comm] += d_i
                comm[i] = best_comm
                for c in (current, best_comm):
                    for j in watchers.pop(c, ()):
                        stable[j] = False
            else:
                stable[i] = True
                for c in links:
                    watchers[c].append(i)
    return np.array(comm)


def _louvain(graph: SessionGraph, gammas: tuple[float, ...], seed: int,
             state: tuple | None = None) -> list[Partition]:
    """Each gamma's ``louvain`` partition, in the order of ``gammas``.

    The levels run for all gammas together, from the first level or ``state``.
    At the first visit where their verdicts differ, each distinct gamma resumes once
    from the src, dst, w, k, membership and RNG state at the start of that level.
    """
    m = graph.total_weight
    if m <= 0:
        raise ValueError("louvain requires a graph with positive total weight")
    rng = np.random.default_rng(seed)
    src, dst, w, k, membership, rng.bit_generator.state = state or (
        graph.src, graph.dst, graph.w, graph.n, np.arange(graph.n), rng.bit_generator.state)
    while True:
        start = (src, dst, w, k, membership, rng.bit_generator.state)
        comm = _local_move(src, dst, w, k, m, gammas, rng)
        if comm is None:
            alone = {g: _louvain(graph, (g,), seed, start)[0] for g in dict.fromkeys(gammas)}
            return [alone[g] for g in gammas]
        # membership maps original node -> current-level node; comm now maps
        # current-level node -> aggregated node, so compose them.
        labels, comm = np.unique(comm, return_inverse=True)
        membership = comm[membership]
        # A move never enters an empty community, so a level moved a node
        # exactly when it left fewer communities than nodes.
        if not 1 < labels.size < k:
            break
        k = labels.size
        lo, hi = np.minimum(comm[src], comm[dst]), np.maximum(comm[src], comm[dst])
        if (lo == hi).all():  # no edge joins two communities, so no node could move
            break
        pairs, pair_of = np.unique(lo * k + hi, return_inverse=True)
        src, dst, w = pairs // k, pairs % k, np.bincount(pair_of, w)
    # Split each cluster into its connected pieces: splitting pieces A and B
    # that share no edge raises Q by 2 gamma d_A d_B / (2m)^2. Min-label
    # propagation with pointer jumping labels a node by its piece's lowest node.
    same = membership[graph.src] == membership[graph.dst]
    a, b = graph.src[same], graph.dst[same]
    piece = np.arange(graph.n)
    while True:
        low = piece.copy()
        np.minimum.at(low, a, piece[b])
        np.minimum.at(low, b, piece[a])
        low = low[low]
        if (low == piece).all():
            return [Partition.from_labels(piece)] * len(gammas)
        piece = low


def louvain(graph: SessionGraph, gamma: float = 1.0, seed: int = 0) -> Partition:
    """Greedy modularity maximization with local moving and aggregation.

    Moves are accepted only for a strict gain (> 1e-12); ties break toward
    the lowest candidate community id; node visit order is shuffled per seed.
    The returned partition never scores below the singleton partition, and
    each of its clusters is connected.
    """
    _check_gamma(gamma)
    return _louvain(graph, (gamma,), seed)[0]


def frontier(system: DemandSystem, sessions: Clickstream | Iterable[Session], gammas,
             policy: PricePolicy, metric: Metric, p: int, seed: int, workers: int = 1,
             exposure_draws: int = DEFAULT_EXPOSURE_DRAWS) -> list[FrontierPoint]:
    """Bias/variance/exposure trade-off across clustering resolutions.

    Per gamma: cluster the co-view graph, average the exposure share over
    ``exposure_draws`` cluster-level assignments, and Monte-Carlo the bias of
    cluster-randomizing on the inferred partition. Rows are sorted by gamma. One
    ``_louvain`` call in this process shares the levels where the gammas' moves
    agree; then one map over ``workers`` processes runs the Monte-Carlo draws of
    every gamma with >= 2 clusters. A draw is seeded by its index and its
    gamma's position in ``gammas``, so no row depends on the worker count, and a
    repeated gamma is a replicate: same partition, fresh draws.

    With the generator's per-article heterogeneity, ``relative_sd`` does not
    rise as gamma falls: partitions that keep true clusters whole spread
    alike. It peaks where the inferred partition splits true clusters into
    a few pieces each, since a true cluster's treated share then swings
    between draws, and with it the substitution between arms.
    """
    sessions = Clickstream.of(sessions, system.n)
    if exposure_draws < 1:
        raise ValueError(f"exposure_draws must be >= 1, not {exposure_draws}")
    try:  # one buffer for every gamma, so a count that no array can hold fails before Louvain
        shares = np.empty(exposure_draws)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"exposure_draws {exposure_draws}: too many draws ({exc})") from None
    _check_p(p)
    order = sorted(enumerate(gammas), key=lambda t: t[1])
    if not order:
        raise ValueError("gammas must be non-empty")
    for _, gamma in order:
        _check_gamma(gamma)
    graph = build_graph(sessions, system.n)
    points, experiments = [], []
    for (idx, gamma), part in zip(order, _louvain(graph, tuple(g for _, g in order), seed)):
        k = part.n_clusters
        share_both = share_both_sd = float("nan")
        if k >= 2:
            for d in range(exposure_draws):
                treated = assign(part, np.random.default_rng([seed, idx, 1, d]))
                shares[d] = exposure_share(sessions, treated).share_both
            share_both = float(shares.mean())
            share_both_sd = float(shares.std(ddof=1)) if shares.size > 1 else 0.0
            experiments.append(_Experiment(system, part, metric, [seed, idx, 2], policy))
        points.append(FrontierPoint(
            resolution=float(gamma), n_clusters=k, avg_cluster_size=system.n / k,
            modularity=modularity(graph, part, gamma), share_both=share_both,
            share_both_sd=share_both_sd, mean_bias=float("nan"), relative_sd=float("nan"),
            defined=k >= 2))
    defined = [i for i, point in enumerate(points) if point.defined]
    for i, report in zip(defined, _bias_reports(experiments, p, workers)):
        points[i] = replace(points[i], mean_bias=report.mean_bias, relative_sd=report.relative_sd)
    return points
