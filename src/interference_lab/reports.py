"""CSV serialization of report objects.

Every report goes through ``demand.write_csv``. The float reports spell each
value through ``fmt``, which writes floats with 17 significant digits so that
outputs round-trip exactly and are byte-stable across runs and worker counts.
"""

from __future__ import annotations

from .clickstream import ExposureReport
from .clustering import FrontierPoint
from .demand import Partition, csv_records, write_csv
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


def _write_report(path, header: list[str], rows) -> None:
    write_csv(path, header, (map(fmt, row) for row in rows))


def _bias_row(phi, strategy: str, r: BiasReport) -> list:
    return [phi, strategy, r.gte, r.mean_estimate, r.mean_bias, r.sd_estimate,
            r.relative_sd, r.q05, r.q50, r.q95, r.p, r.seed]


def write_bias_report(path, report: BiasReport, strategy: str,
                      phi: float | None = None) -> None:
    _write_report(path, BIAS_HEADER, [_bias_row("" if phi is None else phi, strategy, report)])


def write_sweep(path, rows: list[SweepRow]) -> None:
    _write_report(path, BIAS_HEADER, [_bias_row(r.phi, r.strategy, r.report) for r in rows])


def write_exposure(path, report: ExposureReport) -> None:
    _write_report(path, EXPOSURE_HEADER,
                  [[report.share_both, report.share_treated_only,
                    report.share_control_only, report.session_count]])


def write_frontier(path, points: list[FrontierPoint]) -> None:
    _write_report(path, FRONTIER_HEADER,
                  [[pt.resolution, pt.n_clusters, pt.avg_cluster_size, pt.modularity,
                    pt.share_both, pt.mean_bias, pt.relative_sd] for pt in points])


def write_coverage(path, report: CoverageReport) -> None:
    _write_report(path, COVERAGE_HEADER,
                  [[report.aa_sd, report.coverage_rate, report.mean_z, report.gte,
                    report.p, report.seed, report.noise_sigma]])


def write_partition(path, partition: Partition) -> None:
    write_csv(path, PARTITION_HEADER, enumerate(partition.cluster_of.tolist()))


def read_partition(path) -> Partition:
    labels = {}
    for line, row in csv_records(path, PARTITION_HEADER):
        try:
            article, cluster = int(row[0]), int(row[1])
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
                  [[inp.label, inp.est_clustered, inp.ci_halfwidth, inp.est_article,
                    cmp.relative_bias, cmp.sigma_distance] for inp, cmp in rows])
