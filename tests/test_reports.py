"""Tests for CSV serialization."""

import math

import numpy as np
import pytest

from interference_lab import Partition
from interference_lab.reports import (
    BIAS_HEADER,
    COVERAGE_HEADER,
    EXPOSURE_HEADER,
    FRONTIER_HEADER,
    META_HEADER,
    PARTITION_HEADER,
    fmt,
    read_partition,
    write_csv,
    write_partition,
)


class TestFmt:
    def test_floats_round_trip_exactly(self):
        for x in (0.1, 1 / 3, 1e-300, 123456.789, -2.5, math.pi):
            assert float(fmt(x)) == x

    def test_nan_spelled_out(self):
        assert fmt(float("nan")) == "nan"

    def test_non_floats_pass_through(self):
        assert fmt(7) == "7"
        assert fmt("article") == "article"


class TestWriteCsv:
    def test_unix_newlines_and_header(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1, 0.5]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "a,b"

    def test_failing_writer_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a"], [[1]])
        before = path.read_bytes()

        class Unprintable:
            def __str__(self):
                raise RuntimeError("writer interrupted")

        with pytest.raises(RuntimeError, match="writer interrupted"):
            write_csv(path, ["a"], [[2], [Unprintable()]])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_byte_stable(self, tmp_path):
        rows = [[1 / 3, "x"], [float("nan"), "y"]]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["v", "s"], rows)
        write_csv(p2, ["v", "s"], rows)
        assert p1.read_bytes() == p2.read_bytes()


def test_headers_are_fixed_contracts():
    assert BIAS_HEADER[:2] == ["phi", "strategy"]
    assert "relative_sd" in BIAS_HEADER
    assert EXPOSURE_HEADER[0] == "share_both"
    assert FRONTIER_HEADER[0] == "gamma"
    assert COVERAGE_HEADER[:2] == ["aa_sd", "coverage_rate"]
    assert PARTITION_HEADER == ["article_id", "cluster_id"]
    assert META_HEADER[0] == "label"


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        part = Partition(np.array([0, 0, 1, 2, 2]))
        path = tmp_path / "part.csv"
        write_partition(path, part)
        loaded = read_partition(path)
        np.testing.assert_array_equal(loaded.cluster_of, part.cluster_of)

    def test_non_contiguous_labels_are_relabeled(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("article_id,cluster_id\n0,5\n1,5\n2,9\n")
        loaded = read_partition(path)
        assert loaded.cluster_of.tolist() == [0, 0, 1]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("node,community\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            read_partition(path)

    def test_rejects_sparse_article_ids(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("article_id,cluster_id\n0,0\n2,0\n")
        with pytest.raises(ValueError, match="dense"):
            read_partition(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("article_id,cluster_id\n")
        with pytest.raises(ValueError, match="empty"):
            read_partition(path)

    def test_rejects_non_integer_id(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("article_id,cluster_id\n0,0\nx,1\n")
        with pytest.raises(ValueError, match=r"part\.csv: non-integer id at line 3"):
            read_partition(path)

    def test_rejects_repeated_article_id(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("article_id,cluster_id\n0,0\n1,1\n0,1\n")
        with pytest.raises(ValueError, match=r"part\.csv: duplicate article id 0 at line 4$"):
            read_partition(path)
