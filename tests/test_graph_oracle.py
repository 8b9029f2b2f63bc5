"""Oracle tests for the array-based co-view graph layer.

The per-edge and per-session loops that the array code replaced are kept here
as references; every weight is an integer count, so results must be equal.
"""

import csv
import io
import itertools
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    Assignment,
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    Session,
    SessionGraph,
    assign,
    build_graph,
    exposure_share,
    frontier,
    generate_demand_system,
    generate_sessions,
    louvain,
    modularity,
    read_sessions,
)
from interference_lab import clickstream
from interference_lab.clickstream import write_sessions
from interference_lab.clustering import _louvain
from interference_lab.demand import csv_records
from tests.test_clustering import split_level, spy_on_levels

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
    return reference_split(graph, membership)


def reference_split(graph, labels):
    """Each cluster split into its connected pieces by breadth-first search.

    A piece is labelled by its lowest node, then renumbered by first appearance.
    """
    nbrs = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        if labels[i] == labels[j]:
            nbrs[i].append(j)
            nbrs[j].append(i)
    piece = [-1] * graph.n
    for start in range(graph.n):
        if piece[start] < 0:
            piece[start] = start
            queue = [start]
            for i in queue:
                for j in nbrs[i]:
                    if piece[j] < 0:
                        piece[j] = start
                        queue.append(j)
    return Partition.from_labels(piece)


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


# A 10-article clique and one co-viewed pair: m = 46, so the pair's articles
# merge at gamma 50 (2 m > gamma) but not at gamma 200, on level 1.
CLIQUE_AND_PAIR = [Session("clique", frozenset(range(30, 40))),
                   Session("pair", frozenset({0, 1}))]
# Padding the article space leaves most nodes without a neighbour.
article_counts = st.sampled_from([N, 20 * N])


@settings(max_examples=60, deadline=None)
@given(sessions=sparse_session_lists, seed=st.integers(0, 2**16),
       gamma=st.sampled_from([0.5, 1.0, 4.0]), n=article_counts)
# Level 2 holds the clique, the pair and the unviewed articles, none with a neighbour.
@example(sessions=CLIQUE_AND_PAIR, seed=3, gamma=1.0, n=N)
@example(sessions=CLIQUE_AND_PAIR, seed=3, gamma=1.0, n=20 * N)
def test_louvain_matches_dict_reference(sessions, seed, gamma, n):
    g = build_graph(sessions, n=n)
    assume(g.total_weight > 0)
    np.testing.assert_array_equal(louvain(g, gamma, seed).cluster_of,
                                  reference_louvain(g, gamma, seed).cluster_of)


# Duplicates, sets that agree through the last level, and sets that differ.
gamma_sets = st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 50.0, 200.0]),
                      min_size=2, max_size=4).map(tuple)


@settings(max_examples=80, deadline=None)
@given(sessions=sparse_session_lists, seed=st.integers(0, 2**16), gammas=gamma_sets,
       n=article_counts)
@example(sessions=CLIQUE_AND_PAIR, seed=3, gammas=(50.0, 200.0), n=N)
@example(sessions=CLIQUE_AND_PAIR, seed=3, gammas=(200.0, 50.0, 200.0), n=N)
@example(sessions=CLIQUE_AND_PAIR, seed=3, gammas=(1.0, 1.0), n=N)
@example(sessions=CLIQUE_AND_PAIR, seed=3, gammas=(4.0, 16.0), n=N)
@example(sessions=CLIQUE_AND_PAIR, seed=3, gammas=(50.0, 200.0), n=20 * N)
def test_shared_levels_match_separate_louvain_calls(sessions, seed, gammas, n):
    g = build_graph(sessions, n=n)
    assume(g.total_weight > 0)
    for gamma, part in zip(gammas, _louvain(g, gammas, seed)):
        np.testing.assert_array_equal(part.cluster_of, louvain(g, gamma, seed).cluster_of)


def test_shared_levels_stop_at_the_start_of_the_first_level_that_differs(monkeypatch):
    g = build_graph(CLIQUE_AND_PAIR, n=N)
    levels = spy_on_levels(monkeypatch)
    # One gamma, or repeats of one, never differ; (4, 16) agree to the end.
    for gammas, split in [((50.0, 200.0), N), ((50.0,), None), ((1.0, 1.0), None),
                          ((4.0, 16.0), None)]:
        levels.clear()
        parts = _louvain(g, gammas, 3)
        assert split_level(levels, len(gammas)) == split
        for gamma, part in zip(gammas, parts):
            np.testing.assert_array_equal(part.cluster_of, louvain(g, gamma, 3).cluster_of)


def test_shared_levels_resume_from_an_aggregated_level(monkeypatch):
    system = generate_demand_system(GeneratorConfig(n=2000), 1)
    g = build_graph(generate_sessions(system.partition, 6000, 2, 5, 0.9, 1), n=2000)
    gammas = (0.5, 1.0, 4.0)
    levels = spy_on_levels(monkeypatch)
    parts = _louvain(g, gammas, 1)
    # The gammas share level 1 and first differ on level 2's 177 nodes.
    assert split_level(levels, len(gammas)) == 177
    for gamma, part in zip(gammas, parts):
        np.testing.assert_array_equal(part.cluster_of, louvain(g, gamma, 1).cluster_of)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
def test_louvain_matches_dict_reference_on_synthesized_graphs(gamma, seed):
    """Graphs big enough for local moving to run many passes.

    On these graphs a third to a half of all node visits find the node
    stable and skip it, a case the 40-article graphs above rarely reach.
    """
    system = generate_demand_system(GeneratorConfig(n=2000), seed)
    g = build_graph(generate_sessions(system.partition, 6000, 2, 5, 0.9, seed), n=2000)
    np.testing.assert_array_equal(louvain(g, gamma, seed).cluster_of,
                                  reference_louvain(g, gamma, seed).cluster_of)


def test_frontier_share_both_is_the_mean_exposure_share():
    system = generate_demand_system(GeneratorConfig(n=300), 5)
    sessions = generate_sessions(system.partition, 900, 2, 5, 0.8, 5)
    gammas, seed, draws = [4.0, 0.5], 5, 6
    points = frontier(system, sessions, gammas, PricePolicy(), Metric.REVENUE, p=4,
                      seed=seed, exposure_draws=draws)
    graph = build_graph(sessions, n=system.n)
    for idx, gamma in enumerate(gammas):
        part = louvain(graph, gamma, seed)
        shares = [exposure_share(sessions, assign(part, np.random.default_rng([seed, idx, 1, d])))
                  .share_both for d in range(draws)]
        (point,) = [pt for pt in points if pt.resolution == gamma]
        assert point.share_both == float(np.mean(shares))
        assert point.share_both_sd == float(np.std(shares, ddof=1))


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


@settings(max_examples=60, deadline=None)
@given(sessions=sparse_session_lists, seed=st.integers(0, 2**16),
       gamma=st.sampled_from([0.5, 1.0, 4.0]))
@example(sessions=[Session(f"e{i}", frozenset(e)) for i, e in enumerate(DISCONNECTED_EDGES)],
         seed=13638, gamma=0.5)
def test_louvain_clusters_are_connected(sessions, seed, gamma):
    """Every Louvain cluster is connected (Traag et al. 2019, arXiv:1810.08473).

    Local moving and aggregation alone can leave a cluster in pieces: on the
    example, gamma 0.5 and seed 13638 gave the cluster {0, 5, 6, 27, 28},
    two pieces {0, 28} and {5, 6, 27} with no co-view edge between them.
    The breadth-first split of the dict reference must agree.
    """
    nx = pytest.importorskip("networkx")
    g = build_graph(sessions, n=N)
    assume(g.total_weight > 0)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(N))
    nxg.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
    part = louvain(g, gamma, seed)
    np.testing.assert_array_equal(part.cluster_of, reference_louvain(g, gamma, seed).cluster_of)
    for c in range(part.n_clusters):
        assert nx.is_connected(nxg.subgraph(np.flatnonzero(part.cluster_of == c).tolist()))


def _read_csr(path, n_articles=None):
    """(ids, indptr, article) of ``read_sessions``."""
    sessions = read_sessions(path, n_articles)
    return sessions.ids, sessions.indptr, sessions.article


def reference_read_sessions(path, n_articles=None):
    """The dict-of-sets reader that the CSR reader replaced: [(id, article set)]."""
    path = Path(path)
    grouped = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip() for h in header] != ["session_id", "article_id"]:
            raise ValueError(f"{path}: expected header 'session_id,article_id'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row at line {lineno}")
            sid, raw = row
            try:
                article = int(raw)
            except ValueError:
                raise ValueError(
                    f"{path}: non-integer article_id at line {lineno}"
                ) from None
            if article < 0 or (n_articles is not None and article >= n_articles):
                raise ValueError(f"{path}: unknown article id {article} at line {lineno}")
            grouped.setdefault(sid, set()).add(article)
    return list(grouped.items())


# Quoted ids with commas and quotes, and article ids written as int() accepts them.
csv_session_ids = st.sampled_from(["a", "b", "s,1", 'q"x', " 7", "7", ""])
csv_article_ids = st.builds(lambda a, form: form.format(a), st.integers(0, N - 1),
                            st.sampled_from(["{}", " {}", "+{}", "{} ", "0{}"]))
# None stands for a blank line; a small id pool gives duplicate rows.
csv_rows = st.lists(st.one_of(st.tuples(csv_session_ids, csv_article_ids), st.none()),
                    max_size=40)
bad_lines = st.sampled_from(["a", "a,1,2", "a,x1", "a,1.0", f"a,{N}", "a,-1", "a,"])


def clickstream_text(rows):
    out = io.StringIO()
    out.write("session_id,article_id\n")
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        if row is None:
            out.write("\n")
        else:
            writer.writerow(row)
    return out.getvalue()


def read_all_three(text, n_articles):
    """Outcome of ``_read_csr``, ``read_sessions`` and the reference on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clicks.csv"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for reader in (_read_csr, read_sessions, reference_read_sessions):
            try:
                outcomes.append(reader(path, n_articles))
            except ValueError as exc:
                outcomes.append(exc)
        return outcomes


@settings(max_examples=80, deadline=None)
@given(rows=csv_rows, declared=st.booleans())
def test_csr_reader_matches_dict_of_sets_reader(rows, declared):
    (ids, indptr, article), sessions, expected = read_all_three(
        clickstream_text(rows), N if declared else None)
    assert ids == [sid for sid, _ in expected]
    assert [article[a:b].tolist() for a, b in zip(indptr, indptr[1:])] == \
        [sorted(v) for _, v in expected]
    assert list(sessions) == [Session(sid, frozenset(v)) for sid, v in expected]


@settings(max_examples=60, deadline=None)
@given(rows=csv_rows, bad=bad_lines, at=st.integers(0, 40))
def test_csr_reader_rejects_malformed_rows_like_dict_of_sets_reader(rows, bad, at):
    lines = clickstream_text(rows).splitlines(keepends=True)
    at = min(at + 1, len(lines))
    outcomes = read_all_three("".join(lines[:at] + [bad + "\n"] + lines[at:]), N)
    assert all(isinstance(o, ValueError) for o in outcomes)
    assert len({str(o) for o in outcomes}) == 1
    assert f"line {at + 1}" in str(outcomes[0])


def test_csr_reader_bounds_undeclared_ids_by_int64(tmp_path):
    path = tmp_path / "clicks.csv"
    path.write_text(f"session_id,article_id\na,1\na,{2**63 - 1}\nb,{2**63}\n")
    with pytest.raises(ValueError, match=f"unknown article id {2**63} at line 4$"):
        _read_csr(path)
    path.write_text(f"session_id,article_id\na,{2**63 - 1}\nb,1\na,0\n")
    ids, indptr, article = _read_csr(path)
    assert ids == ["a", "b"]
    assert indptr.tolist() == [0, 2, 3]
    assert article.tolist() == [0, 2**63 - 1, 1]


def test_csr_reader_on_empty_and_header_only_files(tmp_path):
    path = tmp_path / "clicks.csv"
    for text, ids in [("", []), ("session_id,article_id\n", []),
                      ("session_id,article_id\n\n\n", [])]:
        path.write_text(text)
        got, indptr, article = _read_csr(path)
        assert got == ids
        assert indptr.tolist() == [0]
        assert article.tolist() == []


class TestArrayParser:
    """``_read_csr`` parses plain files as arrays and every other file with the row loop."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        """Paths whose rows ``csv_records`` read: the row loop ran for each."""
        paths = []

        def records(path, header):
            paths.append(path)
            return csv_records(path, header)

        monkeypatch.setattr(clickstream, "csv_records", records)
        return paths

    @staticmethod
    def outcome(reader, path, n_articles):
        """[(id, sorted articles)] of ``reader``, or the text of its error."""
        try:
            result = reader(path, n_articles)
        except csv.Error as exc:  # the reference lets the csv module's errors through
            return f"{path}: {exc}"
        except ValueError as exc:
            return str(exc)
        if reader is _read_csr:
            ids, indptr, article = result
            return [(sid, article[a:b].tolist())
                    for sid, a, b in zip(ids or [], indptr, indptr[1:])]
        return [(sid, sorted(viewed)) for sid, viewed in result]

    def same_as_reference(self, tmp_path, text, n_articles=N):
        path = tmp_path / "clicks.csv"
        path.write_bytes(text.encode("utf-8"))
        got = self.outcome(_read_csr, path, n_articles)
        assert got == self.outcome(reference_read_sessions, path, n_articles)
        return got

    # Plain ids: any ASCII but a comma, a quote, a line end or NUL; digit ids too.
    plain_ids = st.one_of(
        st.text(st.sampled_from([chr(c) for c in range(1, 128) if chr(c) not in ',"\r\n']),
                max_size=6),
        st.integers(0, 10**20).map(str))
    plain_articles = st.builds(lambda a, zeros: "0" * zeros + str(a),
                               st.integers(0, N - 1), st.integers(0, 16))

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(plain_ids, plain_articles), max_size=40),
           declared=st.booleans(), block=st.sampled_from([1, 7, 64, clickstream._BLOCK]))
    def test_plain_files_take_the_array_parser(self, rows, declared, block):
        text = "session_id,article_id\n" + "".join(f"{sid},{a}\n" for sid, a in rows)
        n_articles = N if declared else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clicks.csv"
            path.write_text(text, encoding="ascii")
            expected = self.outcome(reference_read_sessions, path, n_articles)
            with mock.patch.object(clickstream, "_BLOCK", block), \
                    mock.patch.object(clickstream, "csv_records",
                                      side_effect=AssertionError("the row loop ran")):
                assert self.outcome(_read_csr, path, n_articles) == expected

    def test_a_field_at_the_csv_limit_is_plain(self, tmp_path, spy):
        sid = "x" * csv.field_size_limit()
        assert self.same_as_reference(tmp_path, f"session_id,article_id\n{sid},3\na,1\n") \
            == [(sid, [3]), ("a", [1])]
        assert spy == []

    @pytest.mark.parametrize("text", [
        'session_id,article_id\n"a",1\nb,"2"\n',
        "session_id,article_id\r\na,1\r\nb,2\r\n",
        "session_id,article_id\na\rb,1\n",
        "\ufeffsession_id,article_id\na,1\n",
        "session_id,article_id\nä,1\n",
        "session_id,article_id\na\0b,1\n",
        "session_id,article_id\na,1\n\nb,2\n",
        "session_id,article_id\na,1\nb,1,2\n",
        "session_id,article_id\na,1\nb,2",
        "session_id,article_id\na,+7\n",
        "session_id,article_id\na, 7\n",
        "session_id,article_id\na,7 \n",
        "session_id,article_id\na,0000000000000000007\n",
        f"session_id,article_id\na,1\nb,{N}\n",
        " session_id , article_id\na,1\n",
        f"session_id,article_id\na,1\n{'x' * (csv.field_size_limit() + 1)},2\n",
    ], ids=["quote", "crlf", "cr-in-id", "bom", "non-ascii", "nul", "blank-line",
            "extra-field", "no-final-newline", "plus", "leading-space", "trailing-space",
            "19-digits", "id-not-below-n", "padded-header", "oversized-field"])
    def test_other_files_take_the_row_loop(self, tmp_path, spy, text):
        self.same_as_reference(tmp_path, text)
        assert spy == [tmp_path / "clicks.csv"]

    def test_a_lowered_csv_limit_holds_for_the_header_too(self, tmp_path, spy):
        limit = csv.field_size_limit(9)
        try:
            got = self.same_as_reference(tmp_path, "session_id,article_id\na,1\n")
        finally:
            csv.field_size_limit(limit)
        assert got.endswith("field larger than field limit (9)")
        assert spy == [tmp_path / "clicks.csv"]

    def test_an_empty_file_is_empty_under_a_lowered_csv_limit(self, tmp_path, spy):
        # The header would exceed the limit, so the empty check must come first.
        path = tmp_path / "clicks.csv"
        path.write_bytes(b"")
        limit = csv.field_size_limit(9)
        try:
            sessions = read_sessions(path)
        finally:
            csv.field_size_limit(limit)
        assert (sessions.ids, sessions.indptr.tolist(), sessions.article.tolist()) == ([], [0], [])
        assert spy == []

    def test_sessions_spanning_blocks_match_the_row_loop(self, tmp_path, monkeypatch, spy):
        sessions = generate_sessions(Partition(np.arange(N) % 5), 300, 1, 6, 0.5, seed=4)
        path = tmp_path / "clicks.csv"
        write_sessions(sessions, path)
        # Even rows, then odd rows: most sessions recur far apart, not only at a block cut.
        lines = path.read_text().splitlines(keepends=True)
        body = lines[1:]
        path.write_text(lines[0] + "".join(body[0::2] + body[1::2]))
        monkeypatch.setattr(clickstream, "_BLOCK", 50)
        ids, indptr, article = _read_csr(path, N)
        assert spy == []
        monkeypatch.setattr(clickstream, "_read_plain", lambda path, limit: None)
        row_ids, row_indptr, row_article = _read_csr(path, N)
        assert spy == [path]
        assert ids == row_ids
        assert indptr.tolist() == row_indptr.tolist()
        assert article.tolist() == row_article.tolist()


def reference_generate_sessions(partition, n_sessions, views_min, views_max, purity, seed):
    """The frozenset comprehension that ``generate_sessions`` replaced, same RNG calls."""
    rng = np.random.default_rng(seed)
    n = partition.n
    k = partition.n_clusters
    members = np.argsort(partition.cluster_of, kind="stable")
    sizes = partition.sizes()
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    counts = rng.integers(views_min, views_max + 1, n_sessions)
    total = int(counts.sum())
    home = np.repeat(rng.integers(0, k, n_sessions), counts)
    stay = rng.random(total) < purity
    in_cluster = offsets[home] + (rng.random(total) * sizes[home]).astype(np.int64)
    anywhere = rng.integers(0, n, total)
    views = np.where(stay, members[in_cluster], anywhere)

    ends = np.cumsum(counts).tolist()
    return [Session(session_id=f"s{i}", viewed=frozenset(views[start:end].tolist()))
            for i, (start, end) in enumerate(zip([0] + ends, ends))]


view_bounds = st.tuples(st.integers(1, 6), st.integers(1, 6)).map(sorted)


@settings(max_examples=80, deadline=None)
@given(labels=label_vectors, n_sessions=st.integers(1, 300), bounds=view_bounds,
       purity=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32),
       treated=st.lists(st.booleans(), min_size=N, max_size=N))
@example(labels=[0] * N, n_sessions=1, bounds=[6, 6], purity=1.0, seed=0,
         treated=[True, False] * (N // 2))
def test_generate_matches_frozenset_reference(labels, n_sessions, bounds, purity, seed,
                                              treated):
    part = Partition.from_labels(labels)
    args = (part, n_sessions, *bounds, purity, seed)
    expected = reference_generate_sessions(*args)
    sessions = generate_sessions(*args)
    assert list(sessions) == expected

    indptr, article = sessions.indptr, sessions.article
    assert [article[a:b].tolist() for a, b in zip(indptr, indptr[1:])] == \
        [sorted(s.viewed) for s in expected]
    got, want = build_graph(sessions, N), build_graph(expected, N)
    for attr in ("src", "dst", "w"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    assignment = Assignment(np.array(treated))
    assert exposure_share(sessions, assignment) == exposure_share(expected, assignment)
