"""Simulation lab for interference bias in article-randomized pricing experiments."""

from .demand import (
    DemandSystem,
    GeneratorConfig,
    Metric,
    Partition,
    PricePolicy,
    demand_at,
    dense_oracle,
    generate_demand_system,
    global_treatment_effect,
    outcome,
)
from .experiment import (
    Assignment,
    BiasReport,
    CoverageReport,
    Estimate,
    assign,
    coverage_analysis,
    monte_carlo_bias,
    run_experiment,
    sweep_substitution,
)
from .clickstream import (
    Clickstream,
    ExposureReport,
    Session,
    SessionGraph,
    build_graph,
    exposure_share,
    generate_sessions,
    read_sessions,
)
from .clustering import FrontierPoint, frontier, louvain, modularity
from .metaexp import MetaComparison, MetaExperimentInput, compare

__version__ = "0.1.0"
