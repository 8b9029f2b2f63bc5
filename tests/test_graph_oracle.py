"""Oracle tests for the array-based co-view graph layer.

The per-edge and per-session loops that the array code replaced are kept here
as references; every weight is an integer count, so results must be equal.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interference_lab import (
    Assignment,
    Partition,
    Session,
    SessionGraph,
    build_graph,
    exposure_share,
    louvain,
    modularity,
)

N = 40
# Short sessions (including single views) mixed with sessions of 30+ views.
views = (st.frozensets(st.integers(0, N - 1), min_size=1, max_size=4)
         | st.frozensets(st.integers(0, N - 1), min_size=30, max_size=N))
session_lists = st.lists(views, min_size=1, max_size=20).map(
    lambda vs: [Session(f"s{i}", v) for i, v in enumerate(vs)])
label_vectors = st.lists(st.integers(0, 6), min_size=N, max_size=N)


def reference_edges(sessions):
    weights = Counter()
    for s in sessions:
        for i, j in itertools.combinations(sorted(s.viewed), 2):
            weights[(i, j)] += 1
    return dict(weights)


def reference_exposure(sessions, treated):
    both = t_only = c_only = 0
    for s in sessions:
        labels = {bool(treated[a]) for a in s.viewed}
        if len(labels) == 2:
            both += 1
        elif True in labels:
            t_only += 1
        else:
            c_only += 1
    count = len(sessions)
    return both / count, t_only / count, c_only / count


def reference_louvain(graph, gamma, seed):
    """Dict-of-dicts local moving and aggregation."""
    rng = np.random.default_rng(seed)
    m = graph.total_weight
    nbrs = [dict() for _ in range(graph.n)]
    for (i, j), w in graph.edges.items():
        nbrs[i][j] = float(w)
        nbrs[j][i] = float(w)
    self_w = [0.0] * graph.n
    membership = np.arange(graph.n)
    while True:
        n_nodes = len(nbrs)
        strength = [2.0 * self_w[i] + sum(nbrs[i].values()) for i in range(n_nodes)]
        comm = list(range(n_nodes))
        sigma_tot = list(strength)
        any_move, moved = False, True
        while moved:
            moved = False
            for i in rng.permutation(n_nodes):
                current, d_i = comm[i], strength[i]
                links = {}
                for j, w in nbrs[i].items():
                    links[comm[j]] = links.get(comm[j], 0.0) + w
                base_in = links.get(current, 0.0)
                best_comm, best_gain = current, 0.0
                for cand in sorted(links):
                    if cand == current:
                        continue
                    gain = (links[cand] - base_in) / m - gamma * d_i * (
                        sigma_tot[cand] - (sigma_tot[current] - d_i)) / (2.0 * m * m)
                    if gain > best_gain + 1e-12:
                        best_comm, best_gain = cand, gain
                if best_comm != current:
                    sigma_tot[current] -= d_i
                    sigma_tot[best_comm] += d_i
                    comm[i] = best_comm
                    moved = any_move = True
        if not any_move:
            break
        relabel = {c: new for new, c in enumerate(sorted(set(comm)))}
        new_comm = np.array([relabel[c] for c in comm])
        k = len(relabel)
        new_self = [0.0] * k
        new_nbrs = [dict() for _ in range(k)]
        for i in range(n_nodes):
            ci = new_comm[i]
            new_self[ci] += self_w[i]
            for j, w in nbrs[i].items():
                cj = new_comm[j]
                if j < i and ci == cj:
                    new_self[ci] += w
                elif ci != cj:
                    new_nbrs[ci][cj] = new_nbrs[ci].get(cj, 0.0) + w
        nbrs, self_w = new_nbrs, new_self
        membership = new_comm[membership]
        if k <= 1:
            break
    return Partition.from_labels(membership)


@settings(max_examples=60, deadline=None)
@given(sessions=session_lists)
def test_build_graph_matches_pair_loop(sessions):
    g = build_graph(sessions, n=N)
    expected = reference_edges(sessions)
    assert g.edges == expected
    assert g.total_weight == sum(expected.values())
    strength = np.zeros(N)
    for (i, j), w in expected.items():
        strength[i] += w
        strength[j] += w
    np.testing.assert_array_equal(g.strengths(), strength)


@settings(max_examples=60, deadline=None)
@given(sessions=session_lists, treated=st.lists(st.booleans(), min_size=N, max_size=N))
def test_exposure_share_matches_per_session_labels(sessions, treated):
    r = exposure_share(sessions, Assignment(np.array(treated)))
    assert (r.share_both, r.share_treated_only, r.share_control_only) == \
        reference_exposure(sessions, treated)
    assert r.session_count == len(sessions)


def test_exposure_share_names_the_uncovered_session():
    sessions = [Session("first", frozenset({0, 1})), Session("second", frozenset({1, 7}))]
    with pytest.raises(ValueError, match="session second: article 7"):
        exposure_share(sessions, Assignment(np.array([True, False, True])))


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(st.integers(-3, 9), min_size=1, max_size=60))
def test_from_labels_numbers_by_first_appearance(labels):
    first_seen = {}
    for lab in labels:
        first_seen.setdefault(lab, len(first_seen))
    assert Partition.from_labels(labels).cluster_of.tolist() == [first_seen[x] for x in labels]


# Sparse graphs with several communities give local moving near-ties to break.
sparse_session_lists = st.lists(st.frozensets(st.integers(0, N - 1), min_size=2, max_size=4),
                                min_size=5, max_size=40).map(
    lambda vs: [Session(f"s{i}", v) for i, v in enumerate(vs)])


@settings(max_examples=60, deadline=None)
@given(sessions=sparse_session_lists, seed=st.integers(0, 2**16),
       gamma=st.sampled_from([0.5, 1.0, 4.0]))
def test_louvain_matches_dict_reference(sessions, seed, gamma):
    g = build_graph(sessions, n=N)
    assume(g.total_weight > 0)
    np.testing.assert_array_equal(louvain(g, gamma, seed).cluster_of,
                                  reference_louvain(g, gamma, seed).cluster_of)


@settings(max_examples=40, deadline=None)
@given(sessions=session_lists, labels=label_vectors,
       gamma=st.sampled_from([0.5, 1.0, 4.0]))
def test_modularity_matches_networkx(sessions, labels, gamma):
    nx = pytest.importorskip("networkx")
    g = build_graph(sessions, n=N)
    assume(g.total_weight > 0)
    part = Partition.from_labels(labels)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(N))
    nxg.add_weighted_edges_from((i, j, w) for (i, j), w in g.edges.items())
    communities = [set(np.flatnonzero(part.cluster_of == c).tolist())
                   for c in range(part.n_clusters)]
    expected = nx.community.modularity(nxg, communities, resolution=gamma)
    assert modularity(g, part, gamma) == pytest.approx(expected, abs=1e-12)



# 39 co-view edges on 40 articles, shrunk from a hypothesis-style random draw.
DISCONNECTED_EDGES = [
    (0, 15), (0, 28), (2, 10), (2, 12), (2, 27), (2, 33), (4, 10), (4, 15), (4, 16), (4, 18),
    (4, 29), (4, 33), (5, 6), (5, 27), (5, 33), (7, 23), (9, 10), (9, 26), (10, 16), (10, 31),
    (11, 22), (12, 16), (15, 18), (15, 25), (15, 31), (15, 33), (16, 22), (16, 29), (17, 26),
    (18, 33), (19, 35), (22, 25), (22, 29), (22, 31), (23, 29), (25, 31), (25, 32), (25, 33),
    (32, 33)]


def test_louvain_can_return_a_disconnected_cluster():
    """Louvain clusters are not always connected (Traag et al. 2019, arXiv:1810.08473).

    At gamma 0.5 and seed 13638 the cluster {0, 5, 6, 27, 28} is two pieces,
    {0, 28} and {5, 6, 27}, with no co-view edge between them.
    The dict reference does the same, so the algorithm is at fault, not the
    array code; splitting the cluster into its pieces raises Q.
    """
    nx = pytest.importorskip("networkx")
    g = SessionGraph(N, edges={e: 1 for e in DISCONNECTED_EDGES})
    nxg = nx.Graph()
    nxg.add_nodes_from(range(N))
    nxg.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
    part = louvain(g, 0.5, 13638)
    np.testing.assert_array_equal(part.cluster_of, reference_louvain(g, 0.5, 13638).cluster_of)
    disconnected = [c for c in range(part.n_clusters)
                    if not nx.is_connected(nxg.subgraph(np.flatnonzero(part.cluster_of == c)))]
    members = [np.flatnonzero(part.cluster_of == c).tolist() for c in disconnected]
    assert members == [[0, 5, 6, 27, 28]]
    split = part.cluster_of.copy()
    split[[5, 6, 27]] = part.n_clusters
    assert modularity(g, Partition(split), 0.5) > modularity(g, part, 0.5)
