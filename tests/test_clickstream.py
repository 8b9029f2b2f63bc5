"""Tests for session synthesis, the co-view graph, and exposure shares."""

import numpy as np
import pytest

from interference_lab import (
    ArticleLevel,
    Assignment,
    ClusterLevel,
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

    def test_strengths_and_total_weight(self):
        g = SessionGraph(n=3, edges={(0, 1): 2, (1, 2): 3})
        assert g.total_weight == 5.0
        np.testing.assert_array_equal(g.strengths(), [2.0, 5.0, 3.0])


class TestGenerateSessions:
    def test_deterministic_and_sized(self):
        part = planted_partition(5, 10)
        a = generate_sessions(part, 200, 2, 4, 0.9, seed=3)
        b = generate_sessions(part, 200, 2, 4, 0.9, seed=3)
        assert a == b
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
        assert loaded == [Session("a", frozenset({1, 2})),
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
                            Session("c", frozenset({Unprintable()}))], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["clicks.csv"]

    def test_empty_file_warns_and_returns_nothing(self, tmp_path, caplog):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with caplog.at_level("WARNING"):
            assert read_sessions(path) == []
        assert "empty" in caplog.text


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
        assignment = assign(ClusterLevel(part), 30, np.random.default_rng(0))
        assert exposure_share(sessions, assignment).share_both == 0.0

    def test_two_random_views_article_split_crosses_half_the_time(self):
        part = planted_partition(5, 20)
        sessions = generate_sessions(part, 20_000, 2, 2, purity=0.0, seed=11)
        assignment = assign(ArticleLevel(), 100, np.random.default_rng(1))
        share = exposure_share(sessions, assignment).share_both
        assert share == pytest.approx(0.5, abs=0.02)

    def test_unknown_article_rejected(self):
        sessions = [Session("a", frozenset({5}))]
        a = Assignment(np.array([True, False]))
        with pytest.raises(ValueError):
            exposure_share(sessions, a)
