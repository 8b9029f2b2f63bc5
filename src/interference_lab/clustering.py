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
verdict are unchanged; partitions are those of visiting every node. A phase
stops once every node is stable, and the levels stop at one that moves no
node (it leaves as many communities as nodes) or leaves one community.

Local moving takes a tuple of gammas and gives up at the first visit where
their verdicts differ. ``frontier`` runs the levels its gammas share once,
then each gamma alone from the start of the first level where they differ;
``louvain`` is the one-gamma case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# exposure_share is not called here; perfbench/tests/test_tracing.py checks this binding.
from .clickstream import (  # noqa: F401
    Session,
    SessionGraph,
    _csr,
    _exposure,
    _graph,
    exposure_share,
)
from .demand import DemandSystem, Metric, Partition, PricePolicy
from .experiment import (
    ClusterLevel,
    _parallel_map,
    _pool,
    assign,
    monte_carlo_bias,
)

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

    Passes skip stable nodes without changing any move. A visit's verdict
    depends only on the node's community, its neighbours' communities (which
    give ``links``), ``sigma_tot`` of the communities those name, ``d_i``,
    ``m`` and ``gamma``. Weights are integer counts and ``links`` is summed in
    a fixed order, so the same inputs give the same verdict. A node whose
    visit found no move is stable until a community it read (its own or a
    neighbour's) gains or loses a node; a neighbour's move is such a change,
    since the neighbour leaves a community the node read. Each pass still
    draws its permutation, so the RNG stream, the pass count and every move
    are those of visiting every node. Passes stop once every node is stable:
    a pass without a move marks each node it visits stable, and a node that
    moves stays unstable through its pass.
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

    while not all(stable):
        for i in node[rng.permutation(k)].tolist():
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
                    for j in watchers[c]:
                        stable[j] = False
                    watchers[c] = []
            else:
                stable[i] = True
                for c in links:
                    watchers[c].append(i)
    return np.array(comm)


def _louvain(graph: SessionGraph, gammas: tuple[float, ...], seed: int,
             state: tuple | None = None) -> tuple[Partition | None, tuple | None]:
    """Louvain levels for all ``gammas`` together, from the first level or ``state``.

    Returns (partition, None) if the gammas agree to the end, else (None, the
    src, dst, w, k, membership and RNG state at the start of the first level
    where they differ), from which each gamma resumes alone as in ``louvain``.
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
            return None, start
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
            return Partition.from_labels(piece), None
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


def frontier(system: DemandSystem, sessions: list[Session], gammas, policy: PricePolicy,
             metric: Metric, p: int, seed: int, workers: int = 1,
             exposure_draws: int = DEFAULT_EXPOSURE_DRAWS) -> list[FrontierPoint]:
    """Bias/variance/exposure trade-off across clustering resolutions.

    Per gamma: cluster the co-view graph, average the exposure share over
    ``exposure_draws`` cluster-level assignments, and Monte-Carlo the bias of
    cluster-randomizing on the inferred partition. Rows are sorted by gamma.
    One pool of ``workers`` processes serves the whole call. One Louvain job
    runs the levels all gammas share, then one job per gamma the rest, so a
    gamma's exposure draws (in this process) and Monte-Carlo draws (in the
    pool) run while later gammas' Louvain jobs still run.
    Each job is a pure function of its arguments, so the rows are the same
    for any worker count.

    With the generator's per-article heterogeneity, ``relative_sd`` does not
    rise as gamma falls: partitions that keep true clusters whole spread
    alike. It peaks where the inferred partition splits true clusters into
    a few pieces each, since a true cluster's treated share then swings
    between draws, and with it the substitution between arms.
    """
    return _frontier(system, *_csr(sessions, system.n), gammas, policy, metric, p, seed,
                     workers, exposure_draws)


def _frontier(system: DemandSystem, indptr: np.ndarray, article: np.ndarray, gammas,
              policy: PricePolicy, metric: Metric, p: int, seed: int, workers: int,
              exposure_draws: int) -> list[FrontierPoint]:
    """``frontier`` on the CSR sessions (``indptr``, ``article``)."""
    if exposure_draws < 1:
        raise ValueError(f"exposure_draws must be >= 1, not {exposure_draws}")
    order = sorted(enumerate(gammas), key=lambda t: t[1])
    for _, gamma in order:
        _check_gamma(gamma)
    graph = _graph(indptr, article, system.n)
    points = []
    with _pool(workers):
        # One job runs the levels all gammas share, then one job per gamma the rest;
        # each gamma's Monte-Carlo chunks queue behind the Louvain jobs still running.
        ((shared, state),) = _parallel_map(_louvain, [(graph, tuple(g for _, g in order), seed)])
        parts = [shared] * len(order) if state is None else (part for part, _ in _parallel_map(
            _louvain, [(graph, (gamma,), seed, state) for _, gamma in order]))
        for (idx, gamma), part in zip(order, parts):
            q = modularity(graph, part, gamma)
            k = part.n_clusters
            share_both = share_both_sd = mean_bias = relative_sd = float("nan")
            if k >= 2:
                strategy = ClusterLevel(part)
                shares = []
                for d in range(exposure_draws):
                    rng = np.random.default_rng([seed, idx, 1, d])
                    treated = assign(strategy, system.n, rng).treated
                    shares.append(_exposure(indptr, article, treated).share_both)
                shares = np.asarray(shares)
                report = monte_carlo_bias(system, strategy, policy, metric, p,
                                          master_seed=[seed, idx, 2], workers=workers)
                share_both = float(shares.mean())
                share_both_sd = float(shares.std(ddof=1)) if shares.size > 1 else 0.0
                mean_bias, relative_sd = report.mean_bias, report.relative_sd
            points.append(FrontierPoint(
                resolution=float(gamma), n_clusters=k, avg_cluster_size=system.n / k,
                modularity=q, share_both=share_both, share_both_sd=share_both_sd,
                mean_bias=mean_bias, relative_sd=relative_sd, defined=k >= 2))
    return points
