"""The benchmark's workloads: the inputs set-up makes and the CLI commands a pass runs.

Why each workload was chosen is recorded beside it in ``BENCHMARK.json``.

This module does not import ``interference_lab``; the passes that run the
commands do, each in a fresh process.

Argument strings hold two placeholders: ``{in}`` is the directory set-up
wrote the inputs to, and ``{out}`` the directory of the pass's outputs.
Every command also gets ``--out {out}/<out>``, ``--seed <workload seed>``
and ``--workers <w>``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import checks

N_ARTICLES = 10_000
CSV_SESSIONS = 100_000
CSV_VIEWS = (2, 4)
PURITY = 0.9
# The one-row input of the README's ``meta`` example.
META_INPUT = "label,est_clustered,ci_halfwidth,est_article\nq3,0.41,0.05,0.61\n"

# ``gen`` leaves phi (within_share) at its default, which ``simulate`` reports.
SYSTEM_PHI = 0.3
MC_P = 1000
SWEEP_P = 500
SWEEP_PHIS = (0.1, 0.3, 0.6)
FRONTIER_SESSIONS = 20_000
FRONTIER_VIEWS = (2, 5)
FRONTIER_GAMMAS = (0.5, 1.0, 4.0)
FRONTIER_P = 200
EXPOSURE_DRAWS = 16
CSV_SIMULATE_P = 200


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str
    # (output path, workload seed) -> problems found; empty when the output is sound
    check: Callable[..., list[str]]

    def args(self, inputs: str, outputs: str, seed: int, workers: int) -> list[str]:
        return ([a.format_map({"in": inputs, "out": outputs}) for a in self.argv]
                + ["--out", f"{outputs}/{self.out}", "--seed", str(seed),
                   "--workers", str(workers)])


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Experiment evaluations per pass: the sum of p, a coverage draw counting 2.
    draws: int
    # Sessions the pass clusters or scores (0 when no command reads any).
    sessions: int
    # Sessions set-up writes to the clickstream CSV (0: no CSV).
    csv_sessions: int = 0


MONTECARLO = Workload(
    name="montecarlo",
    commands=(
        Command(("simulate", "--system", "{in}/system.json", "--strategy", "article",
                 "--p", str(MC_P)),
                "simulate_article.csv",
                functools.partial(checks.bias_report, rows=[(SYSTEM_PHI, "article")],
                                  p=MC_P)),
        Command(("simulate", "--system", "{in}/system.json", "--strategy", "cluster",
                 "--p", str(MC_P)),
                "simulate_cluster.csv",
                functools.partial(checks.bias_report, rows=[(SYSTEM_PHI, "cluster")],
                                  p=MC_P)),
        Command(("coverage", "--system", "{in}/system.json", "--metric", "units",
                 "--p", str(MC_P)),
                "coverage.csv",
                functools.partial(checks.coverage, p=MC_P)),
        Command(("sweep", "--n", str(N_ARTICLES), "--phis", ",".join(map(str, SWEEP_PHIS)),
                 "--p", str(SWEEP_P)),
                "sweep.csv",
                functools.partial(checks.bias_report,
                                  rows=[(phi, s) for phi in SWEEP_PHIS
                                        for s in ("article", "cluster")],
                                  p=SWEEP_P)),
    ),
    draws=2 * MC_P + 2 * MC_P + len(SWEEP_PHIS) * 2 * SWEEP_P,
    sessions=0,
)

FRONTIER = Workload(
    name="frontier",
    commands=(
        Command(("frontier", "--system", "{in}/system.json",
                 "--n-sessions", str(FRONTIER_SESSIONS),
                 "--views-min", str(FRONTIER_VIEWS[0]),
                 "--views-max", str(FRONTIER_VIEWS[1]), "--purity", str(PURITY),
                 "--gammas", ",".join(map(str, FRONTIER_GAMMAS)),
                 "--p", str(FRONTIER_P), "--exposure-draws", str(EXPOSURE_DRAWS)),
                "frontier.csv",
                functools.partial(checks.frontier, gammas=FRONTIER_GAMMAS)),
    ),
    draws=len(FRONTIER_GAMMAS) * FRONTIER_P,
    sessions=FRONTIER_SESSIONS,
)

CSV_IO = Workload(
    name="csv_io",
    commands=(
        Command(("cluster", "--sessions", "{in}/sessions.csv", "--system",
                 "{in}/system.json", "--gamma", "1"),
                "part.csv",
                functools.partial(checks.partition, n=N_ARTICLES)),
        Command(("exposure", "--sessions", "{in}/sessions.csv",
                 "--partition", "{out}/part.csv"),
                "exposure.csv",
                functools.partial(checks.exposure, sessions=CSV_SESSIONS)),
        Command(("simulate", "--system", "{in}/system.json", "--strategy", "cluster",
                 "--partition", "{out}/part.csv", "--p", str(CSV_SIMULATE_P)),
                "simulate.csv",
                functools.partial(checks.bias_report, rows=[(SYSTEM_PHI, "cluster")],
                                  p=CSV_SIMULATE_P)),
        Command(("meta", "--in", "{in}/meta_in.csv"),
                "meta.csv",
                checks.meta),
    ),
    draws=CSV_SIMULATE_P,
    sessions=CSV_SESSIONS,
    csv_sessions=CSV_SESSIONS,
)

WORKLOADS = {w.name: w for w in (MONTECARLO, FRONTIER, CSV_IO)}


def input_files(workload: Workload) -> list[str]:
    """Files set-up writes, in the order they are checked."""
    files = ["system.json"]
    if workload.csv_sessions:
        files += ["sessions.csv", "meta_in.csv"]
    return files
