"""Tests for CSV serialization."""

import math

import numpy as np
import pytest

from interference_lab import Partition
from interference_lab.clickstream import ExposureReport
from interference_lab.clustering import FrontierPoint
from interference_lab.experiment import BiasReport, CoverageReport, SweepRow
from interference_lab.metaexp import MetaComparison, MetaExperimentInput
from interference_lab.reports import (
    BIAS_HEADER,
    COVERAGE_HEADER,
    EXPOSURE_HEADER,
    FRONTIER_HEADER,
    META_HEADER,
    PARTITION_HEADER,
    fmt,
    read_partition,
    write_bias_report,
    write_coverage,
    write_csv,
    write_exposure,
    write_frontier,
    write_meta,
    write_partition,
    write_sweep,
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


NAN = float("nan")
REPORT = BiasReport(gte=0.1, mean_estimate=1 / 3, mean_bias=-2.0, sd_estimate=1e-300,
                    relative_sd=1e22, q05=-0.0, q50=0.5, q95=123456.789, p=40, seed=7)
BIAS_HEAD = "phi,strategy,gte,mean_estimate,mean_bias,sd_estimate,relative_sd,q05,q50,q95,p,seed\n"
BIAS_TAIL = "0.10000000000000001,0.33333333333333331,-2,1e-300,1e+22,-0,0.5,123456.789,40,7\n"


class TestGoldenBytes:
    """Each writer's exact bytes: floats at 17 significant digits, everything else verbatim."""

    @pytest.mark.parametrize("write,expected", [
        (lambda path: write_bias_report(path, REPORT, "article"),
         BIAS_HEAD + ",article," + BIAS_TAIL),
        (lambda path: write_bias_report(path, REPORT, "cluster", phi=0.3),
         BIAS_HEAD + "0.29999999999999999,cluster," + BIAS_TAIL),
        (lambda path: write_sweep(path, [SweepRow(0.0, "article", REPORT),
                                         SweepRow(0.7, "cluster", REPORT)]),
         BIAS_HEAD + "0,article," + BIAS_TAIL + "0.69999999999999996,cluster," + BIAS_TAIL),
        (lambda path: write_exposure(path, ExposureReport(0.1, 0.6, 0.30000000000000004, 12)),
         "share_both,share_treated_only,share_control_only,session_count\n"
         "0.10000000000000001,0.59999999999999998,0.30000000000000004,12\n"),
        (lambda path: write_frontier(path, [
            FrontierPoint(0.5, 3, 40 / 3, 0.25, 0.1, 0.02, 0.05, 0.7),
            FrontierPoint(4.0, 1, 40.0, 0.0, 1.0, 0.0, NAN, NAN, defined=False)]),
         "gamma,n_clusters,avg_cluster_size,modularity,share_both,mean_bias,relative_sd\n"
         "0.5,3,13.333333333333334,0.25,0.10000000000000001,0.050000000000000003,"
         "0.69999999999999996\n4,1,40,0,1,nan,nan\n"),
        (lambda path: write_coverage(path, CoverageReport(0.0, NAN, NAN, 0.1, 20, 4, 0.0,
                                                          defined=False)),
         "aa_sd,coverage_rate,mean_z,gte,p,seed,noise_sigma\n"
         "0,nan,nan,0.10000000000000001,20,4,0\n"),
        (lambda path: write_meta(path, [(MetaExperimentInput('wk 3, "promo"', 0.02, 0.01, 0.03),
                                         MetaComparison(0.5, 1.96))]),
         "label,est_clustered,ci_halfwidth,est_article,relative_bias,sigma_distance\n"
         '"wk 3, ""promo""",0.02,0.01,0.029999999999999999,0.5,1.96\n'),
        (lambda path: write_partition(path, Partition(np.array([0, 0, 1, 2, 2]))),
         "article_id,cluster_id\n0,0\n1,0\n2,1\n3,2\n4,2\n"),
        (lambda path: write_csv(path, ["s", "i", "j"], [["s,1", 3, np.int64(5)],
                                                       ["t", -2, np.int64(2**62)]]),
         's,i,j\n"s,1",3,5\nt,-2,4611686018427387904\n'),
    ], ids=["bias", "bias-phi", "sweep", "exposure", "frontier-nan", "coverage-undefined",
            "meta", "partition", "plain-values"])
    def test_writer_bytes(self, tmp_path, write, expected):
        path = tmp_path / "out.csv"
        write(path)
        assert path.read_bytes() == expected.encode()


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
