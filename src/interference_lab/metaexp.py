"""Meta-experiment analytics.

A meta-experiment runs the same treatment twice, once cluster-randomized and
once article-randomized. The clustered estimate is treated as the less
biased reference; the discrepancy is expressed as relative bias and as a
distance in standard errors derived from the clustered arm's confidence
half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .demand import csv_records

DEFAULT_CI_DIVISOR = 1.96  # +/- half-width read as a 95% confidence interval


@dataclass(frozen=True)
class MetaExperimentInput:
    label: str
    est_clustered: float
    ci_halfwidth: float
    est_article: float

    def __post_init__(self):
        for name in ("est_clustered", "ci_halfwidth", "est_article"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        if self.ci_halfwidth <= 0:
            raise ValueError("ci_halfwidth must be > 0")


@dataclass(frozen=True)
class MetaComparison:
    relative_bias: float
    sigma_distance: float


def compare(inp: MetaExperimentInput,
            ci_divisor: float = DEFAULT_CI_DIVISOR) -> MetaComparison:
    """Relative bias and sigma-distance of the article-based estimate.

    sigma is ci_halfwidth / ci_divisor; the divisor is configurable because
    a reported "+/- x pts" may be a standard error rather than a 95% CI.
    """
    if not 0 < ci_divisor < math.inf:
        raise ValueError(f"ci_divisor must be finite and > 0, not {ci_divisor}")
    if inp.est_clustered == 0:
        raise ValueError(f"{inp.label}: relative bias undefined for a zero "
                         "clustered estimate")
    diff = inp.est_article - inp.est_clustered
    sigma = inp.ci_halfwidth / ci_divisor
    # Finite inputs can still overflow here, or underflow sigma to 0.
    result = MetaComparison(relative_bias=diff / inp.est_clustered,
                            sigma_distance=diff / sigma if sigma > 0 else math.inf)
    if not (math.isfinite(result.relative_bias) and math.isfinite(result.sigma_distance)):
        raise ValueError(f"{inp.label}: the comparison overflows the float range")
    return result


def read_inputs(path) -> list[MetaExperimentInput]:
    """Read `label,est_clustered,ci_halfwidth,est_article` rows."""
    rows = []
    for line, (label, *values) in csv_records(
            path, ["label", "est_clustered", "ci_halfwidth", "est_article"]):
        try:
            rows.append(MetaExperimentInput(label, *map(float, values)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return rows
