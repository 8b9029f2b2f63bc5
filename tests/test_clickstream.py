"""Tests for session synthesis, the co-view graph, and exposure shares."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interference_lab import (
    Assignment,
    Clickstream,
    Partition,
    Session,
    SessionGraph,
    assign,
    build_graph,
    exposure_share,
    generate_sessions,
    read_sessions,
)
from interference_lab.clickstream import write_sessions


def planted_partition(k: int, size: int) -> Partition:
    return Partition(np.repeat(np.arange(k), size))


class TestSession:
    def test_rejects_empty_view_set(self):
        with pytest.raises(ValueError):
            Session("s0", frozenset())


class TestClickstream:
    """The one session type, and ``Clickstream.of`` at the boundary with ``Session`` lists."""

    def test_a_clickstream_passes_through(self):
        sessions = generate_sessions(planted_partition(4, 5), 30, 1, 4, 0.8, seed=1)
        assert Clickstream.of(sessions) is sessions
        assert Clickstream.of(sessions, n=20) is sessions

    def test_a_session_list_converts_to_the_generated_arrays(self):
        generated = generate_sessions(planted_partition(4, 5), 200, 1, 4, 0.8, seed=2)
        converted = Clickstream.of(list(generated))
        assert converted.ids == list(generated.ids)
        assert converted.indptr.tolist() == generated.indptr.tolist()
        assert converted.article.tolist() == generated.article.tolist()
        assert converted.article.dtype == np.int64

    def test_len_iteration_and_lazy_names(self):
        sessions = generate_sessions(planted_partition(2, 5), 12, 1, 3, 0.5, seed=3)
        assert len(sessions) == len(sessions.ids) == 12
        assert not isinstance(sessions.ids, list)
        assert sessions.ids[0] == "s0" and sessions.ids[-1] == "s11"
        with pytest.raises(IndexError):
            sessions.ids[12]
        listed = list(sessions)
        assert [s.session_id for s in listed] == [f"s{i}" for i in range(12)]
        assert [sorted(s.viewed) for s in listed] == [
            sessions.article[a:b].tolist() for a, b in zip(sessions.indptr, sessions.indptr[1:])]

    def test_read_gives_back_the_written_clickstream(self, tmp_path):
        sessions = generate_sessions(planted_partition(4, 5), 50, 1, 4, 0.8, seed=4)
        path = tmp_path / "clicks.csv"
        write_sessions(sessions, path)
        loaded = read_sessions(path, n_articles=20)
        assert loaded.ids == [f"s{i}" for i in range(50)]
        assert loaded.indptr.tolist() == sessions.indptr.tolist()
        assert loaded.article.tolist() == sessions.article.tolist()

    def test_articles_read_without_a_count_are_checked_when_scored(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("session_id,article_id\na,0\na,1\nb,2\nb,5\n")
        sessions = read_sessions(path)
        assignment = Assignment(np.array([True, False, False, True]))
        with pytest.raises(ValueError, match="^session b: article 5 is not among the 4 "
                                             "articles$"):
            exposure_share(sessions, assignment)

    def test_empty_sessions_rejected(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("session_id,article_id\n")
        out = tmp_path / "out.csv"
        for empty in (list, lambda: iter([]), lambda: read_sessions(path)):
            with pytest.raises(ValueError, match="^sessions must be non-empty$"):
                Clickstream.of(empty())
            with pytest.raises(ValueError, match="^sessions must be non-empty$"):
                write_sessions(empty(), out)
            assert not out.exists()

    @pytest.mark.parametrize("article", [1.5, np.float64(2), True, np.bool_(True), "3"])
    def test_non_integer_article_ids_rejected(self, article, tmp_path):
        sessions = [Session("a", frozenset({0, 2})), Session("b", frozenset({article, 4}))]
        message = "^session b: article ids must be integers$"
        with pytest.raises(ValueError, match=message):
            build_graph(sessions)
        with pytest.raises(ValueError, match=message):
            exposure_share(sessions, Assignment(np.ones(5, dtype=bool)))
        with pytest.raises(ValueError, match=message):
            write_sessions(sessions, tmp_path / "clicks.csv")
        assert not (tmp_path / "clicks.csv").exists()

    @pytest.mark.parametrize("article", [2**63, np.uint64(2**63)])
    def test_article_ids_outside_int64_rejected(self, article, tmp_path):
        sessions = [Session("a", frozenset({0, 2})), Session("b", frozenset({article, 4}))]
        message = f"^session b: article id {article} is outside int64$"
        with pytest.raises(ValueError, match=message):
            build_graph(sessions)
        with pytest.raises(ValueError, match=message):
            exposure_share(sessions, Assignment(np.ones(5, dtype=bool)))
        with pytest.raises(ValueError, match=message):
            write_sessions(sessions, tmp_path / "clicks.csv")
        assert not (tmp_path / "clicks.csv").exists()
        # The int64 maximum is an id, which the article range then rejects.
        sessions[1] = Session("b", frozenset({2**63 - 1, 4}))
        with pytest.raises(ValueError, match=f"^session b: article {2**63 - 1} is not among"):
            exposure_share(sessions, Assignment(np.ones(5, dtype=bool)))

    @pytest.mark.parametrize("article", [-1, np.int8(-1), -2**63, -2**63 - 1])
    def test_negative_article_ids_rejected(self, article, tmp_path):
        # Without an article count, only this check keeps a negative id out of the file.
        sessions = [Session("a", frozenset({0, 2})), Session("b", frozenset({article, 4}))]
        message = f"^session b: article id {article} is negative$"
        with pytest.raises(ValueError, match=message):
            build_graph(sessions)
        with pytest.raises(ValueError, match=message):
            exposure_share(sessions, Assignment(np.ones(5, dtype=bool)))
        with pytest.raises(ValueError, match=message):
            write_sessions(sessions, tmp_path / "clicks.csv")
        assert not (tmp_path / "clicks.csv").exists()

    def test_numpy_integer_ids_are_articles(self):
        sessions = [Session("a", frozenset({np.int32(0), np.uint8(2)}))]
        assert build_graph(sessions).edges == {(0, 2): 1}

    def test_a_generator_of_sessions_is_read_once(self):
        sessions = list(generate_sessions(planted_partition(4, 5), 100, 1, 4, 0.5, seed=5))
        assignment = assign(Partition(np.arange(20)), np.random.default_rng(0))
        graph = build_graph(s for s in sessions)
        expected = build_graph(sessions)
        assert graph.edges == expected.edges and graph.n == expected.n
        assert exposure_share((s for s in sessions), assignment) == \
            exposure_share(sessions, assignment)


class TestSessionGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionGraph(n=3, edges={(1, 1): 1})
        with pytest.raises(ValueError):
            SessionGraph(n=3, edges={(2, 1): 1})
        with pytest.raises(ValueError):
            SessionGraph(n=2, edges={(0, 1): 0})
        with pytest.raises(ValueError):
            SessionGraph(n=2, edges={(0, 5): 1})

    @pytest.mark.parametrize("weight", [1.5, 2.0, np.float64(2), True, np.bool_(True), "2",
                                        None, 2**63, np.uint64(2**64 - 1)])
    def test_rejects_weights_that_are_not_integer_counts(self, weight):
        with pytest.raises(ValueError, match="^edge weights must be integer counts below"):
            SessionGraph(n=4, edges={(0, 1): 1, (2, 3): weight})

    @pytest.mark.parametrize("edges", [{}, {(0, 1): 1}, {(0, 1): np.int32(2), (1, 2): np.uint8(3)},
                                       {(0, 1): 2**63 - 1}])
    def test_weights_are_int64(self, edges):
        g = SessionGraph(n=3, edges=edges)
        assert g.w.dtype == np.int64
        assert g.w.tolist() == [int(w) for w in edges.values()]

    def test_strengths_and_total_weight(self):
        g = SessionGraph(n=3, edges={(0, 1): 2, (1, 2): 3})
        assert g.total_weight == 5.0
        np.testing.assert_array_equal(g.strengths(), [2.0, 5.0, 3.0])


class TestGenerateSessions:
    def test_deterministic_and_sized(self):
        part = planted_partition(5, 10)
        a = generate_sessions(part, 200, 2, 4, 0.9, seed=3)
        b = generate_sessions(part, 200, 2, 4, 0.9, seed=3)
        assert list(a) == list(b)
        assert len(a) == 200
        for s in a:
            assert 1 <= len(s.viewed) <= 4
            assert all(0 <= v < 50 for v in s.viewed)

    def test_full_purity_stays_in_one_cluster(self):
        part = planted_partition(8, 6)
        for s in generate_sessions(part, 500, 2, 5, purity=1.0, seed=1):
            clusters = {int(part.cluster_of[v]) for v in s.viewed}
            assert len(clusters) == 1

    def test_zero_purity_spreads_over_clusters(self):
        part = planted_partition(10, 10)
        sessions = generate_sessions(part, 2000, 3, 3, purity=0.0, seed=2)
        crossing = sum(
            len({int(part.cluster_of[v]) for v in s.viewed}) > 1
            for s in sessions)
        assert crossing / len(sessions) > 0.8

    def test_validation(self):
        part = planted_partition(2, 3)
        with pytest.raises(ValueError):
            generate_sessions(part, 0, 2, 3, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_sessions(part, 10, 0, 3, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_sessions(part, 10, 3, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_sessions(part, 10, 2, 3, 1.5, seed=0)


class TestSessionIO:
    def test_round_trip(self, tmp_path):
        part = planted_partition(4, 5)
        sessions = generate_sessions(part, 50, 2, 4, 0.8, seed=5)
        path = tmp_path / "clicks.csv"
        write_sessions(sessions, path)
        loaded = read_sessions(path, n_articles=20)
        assert {s.session_id: s.viewed for s in loaded} == {
            s.session_id: s.viewed for s in sessions}

    def test_duplicate_rows_deduplicate(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("session_id,article_id\na,1\na,1\na,2\nb,0\n")
        loaded = read_sessions(path)
        assert list(loaded) == [Session("a", frozenset({1, 2})),
                                Session("b", frozenset({0}))]

    def test_bad_header_and_rows(self, tmp_path):
        bad_header = tmp_path / "bad.csv"
        bad_header.write_text("sid,article\na,1\n")
        with pytest.raises(ValueError, match="header"):
            read_sessions(bad_header)

        bad_row = tmp_path / "row.csv"
        bad_row.write_text("session_id,article_id\na,1\nb\n")
        with pytest.raises(ValueError, match="line 3"):
            read_sessions(bad_row)

        bad_id = tmp_path / "id.csv"
        bad_id.write_text("session_id,article_id\na,notanint\n")
        with pytest.raises(ValueError, match="line 2"):
            read_sessions(bad_id)

        out_of_range = tmp_path / "range.csv"
        out_of_range.write_text("session_id,article_id\na,99\n")
        with pytest.raises(ValueError, match="99"):
            read_sessions(out_of_range, n_articles=10)

    def test_failing_writer_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "clicks.csv"
        write_sessions([Session("a", frozenset({1, 2}))], path)
        before = path.read_bytes()

        class Unprintable:
            def __str__(self):
                raise RuntimeError("writer interrupted")

        with pytest.raises(RuntimeError, match="writer interrupted"):
            write_sessions([Session("b", frozenset({3})),
                            Session(Unprintable(), frozenset({4}))], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["clicks.csv"]

    def test_empty_file_returns_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert list(read_sessions(path)) == []

    @pytest.mark.parametrize("convert", [list, Clickstream.of])
    def test_written_bytes(self, convert, tmp_path):
        path = tmp_path / "clicks.csv"
        write_sessions(convert([Session('a "b", c', frozenset({3, 1})),
                                Session(" d", frozenset({2}))]), path)
        assert path.read_bytes() == (b'session_id,article_id\n"a ""b"", c",1\n'
                                     b'"a ""b"", c",3\n d,2\n')

    # Session ids rich in what CSV must quote or keep: commas, quotes, line ends,
    # outer spaces and non-ASCII text. Surrogates are not text and cannot be UTF-8.
    SESSION_IDS = st.text(st.sampled_from(list(',"\n\r \t\x00aé中😀')) | st.characters(
        blacklist_categories=("Cs",)), max_size=6)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(SESSION_IDS, st.frozensets(st.integers(0, 50), min_size=1,
                                                         max_size=4)),
                    max_size=6, unique_by=lambda t: t[0]))
    def test_round_trip_through_the_shared_writer(self, drawn):
        sessions = [Session(sid, viewed) for sid, viewed in drawn]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clicks.csv"
            if not sessions:
                with pytest.raises(ValueError, match="^sessions must be non-empty$"):
                    write_sessions(sessions, path)
                assert not path.exists()
                return
            if any("\r" in s.session_id for s in sessions):
                # The csv module would leave "\r" unquoted, and a reader would split the row.
                with pytest.raises(ValueError, match="carriage return"):
                    write_sessions(sessions, path)
                assert not path.exists()
                return
            write_sessions(sessions, path)
            loaded = read_sessions(path)
            ids, indptr, article = loaded.ids, loaded.indptr, loaded.article
            assert list(loaded) == sessions
        assert ids == [s.session_id for s in sessions]
        assert [article[a:b].tolist() for a, b in zip(indptr, indptr[1:])] == \
            [sorted(s.viewed) for s in sessions]


class TestBuildGraph:
    def test_small_oracle(self):
        sessions = [Session("a", frozenset({0, 1, 2})),
                    Session("b", frozenset({1, 2})),
                    Session("c", frozenset({3}))]
        g = build_graph(sessions)
        assert g.n == 4
        assert g.edges == {(0, 1): 1, (0, 2): 1, (1, 2): 2}

    def test_declared_article_count(self):
        sessions = [Session("a", frozenset({0, 1}))]
        assert build_graph(sessions, n=10).n == 10
        with pytest.raises(ValueError):
            build_graph(sessions, n=1)

    def test_out_of_range_id_names_its_session(self):
        sessions = [Session("a", frozenset({0, 1})), Session("b", frozenset({2, 5}))]
        with pytest.raises(ValueError, match="^session b: article 5 is not among the 4 "
                                             "articles$"):
            build_graph(sessions, n=4)

    def test_empty_sessions_rejected(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_ids_too_large_for_pair_keys_rejected(self):
        sessions = [Session("a", frozenset({1, 2**62}))]
        with pytest.raises(ValueError, match=f"article id {2**62} is too large"):
            build_graph(sessions)


class TestExposure:
    def test_classification(self):
        sessions = [Session("a", frozenset({0, 1})),   # both
                    Session("b", frozenset({0})),      # treated only
                    Session("c", frozenset({1, 2})),   # control only
                    Session("d", frozenset({0, 2}))]   # both
        a = Assignment(np.array([True, False, False, True]))
        r = exposure_share(sessions, a)
        assert r.share_both == pytest.approx(0.5)
        assert r.share_treated_only == pytest.approx(0.25)
        assert r.share_control_only == pytest.approx(0.25)
        assert r.session_count == 4
        assert r.share_both + r.share_treated_only + r.share_control_only == 1.0

    def test_pure_sessions_with_cluster_randomization_never_cross(self):
        part = planted_partition(6, 5)
        sessions = generate_sessions(part, 300, 2, 4, purity=1.0, seed=9)
        assignment = assign(part, np.random.default_rng(0))
        assert exposure_share(sessions, assignment).share_both == 0.0

    def test_two_random_views_article_split_crosses_half_the_time(self):
        part = planted_partition(5, 20)
        sessions = generate_sessions(part, 20_000, 2, 2, purity=0.0, seed=11)
        assignment = assign(Partition(np.arange(100)), np.random.default_rng(1))
        share = exposure_share(sessions, assignment).share_both
        assert share == pytest.approx(0.5, abs=0.02)

    def test_unknown_article_rejected(self):
        sessions = [Session("a", frozenset({5}))]
        a = Assignment(np.array([True, False]))
        with pytest.raises(ValueError):
            exposure_share(sessions, a)
