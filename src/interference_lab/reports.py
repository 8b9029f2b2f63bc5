"""CSV serialization of report objects, each through ``demand.write_csv``.

A report's columns are its record's fields, named by its header constant, the
only list of its columns. ``fmt`` writes floats with 17 significant digits so
that outputs round-trip exactly and are byte-stable across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

from .clickstream import ExposureReport
from .clustering import FrontierPoint
from .demand import Partition, csv_number, csv_records, write_csv
from .experiment import BiasReport, CoverageReport, SweepRow
from .metaexp import MetaComparison, MetaExperimentInput

BIAS_HEADER = ["phi", "strategy", "gte", "mean_estimate", "mean_bias",
               "sd_estimate", "relative_sd", "q05", "q50", "q95", "p", "seed"]
EXPOSURE_HEADER = ["share_both", "share_treated_only", "share_control_only",
                   "session_count"]
FRONTIER_HEADER = ["gamma", "n_clusters", "avg_cluster_size", "modularity",
                   "share_both", "mean_bias", "relative_sd"]
COVERAGE_HEADER = ["aa_sd", "coverage_rate", "mean_z", "gte", "p", "seed",
                   "noise_sigma"]
PARTITION_HEADER = ["article_id", "cluster_id"]
META_HEADER = ["label", "est_clustered", "ci_halfwidth", "est_article",
               "relative_bias", "sigma_distance"]


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_report(path, header: list[str], records) -> None:
    write_csv(path, header, ([fmt(getattr(r, column)) for column in header] for r in records))


def write_bias_report(path, report: BiasReport, strategy: str,
                      phi: float | None = None) -> None:
    _write_report(path, BIAS_HEADER, [SimpleNamespace(
        phi="" if phi is None else phi, strategy=strategy, **asdict(report))])


def write_sweep(path, rows: list[SweepRow]) -> None:
    _write_report(path, BIAS_HEADER, [SimpleNamespace(
        phi=r.phi, strategy=r.strategy, **asdict(r.report)) for r in rows])


def write_exposure(path, report: ExposureReport) -> None:
    _write_report(path, EXPOSURE_HEADER, [report])


def write_frontier(path, points: list[FrontierPoint]) -> None:
    _write_report(path, FRONTIER_HEADER,
                  [SimpleNamespace(gamma=pt.resolution, **asdict(pt)) for pt in points])


def write_coverage(path, report: CoverageReport) -> None:
    _write_report(path, COVERAGE_HEADER, [report])


def write_partition(path, partition: Partition) -> None:
    write_csv(path, PARTITION_HEADER, enumerate(partition.cluster_of.tolist()))


def read_partition(path) -> Partition:
    labels = {}
    for line, row in csv_records(path, PARTITION_HEADER):
        try:
            article, cluster = csv_number(int, row[0]), csv_number(int, row[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer id at line {line}") from None
        if article in labels:
            raise ValueError(f"{path}: duplicate article id {article} at line {line}")
        labels[article] = cluster
    if not labels:
        raise ValueError(f"{path}: empty partition file")
    if sorted(labels) != list(range(len(labels))):
        raise ValueError(f"{path}: article ids must be dense 0..n-1")
    return Partition.from_labels([labels[i] for i in range(len(labels))])


def write_meta(path, rows: list[tuple[MetaExperimentInput, MetaComparison]]) -> None:
    _write_report(path, META_HEADER,
                  [SimpleNamespace(**asdict(inp), **asdict(cmp)) for inp, cmp in rows])
