"""Command-line entry point wiring the modules end to end.

One subcommand per pipeline stage; every run is deterministic given
(config, seed) and the worker count never changes output bytes. Options can
also be supplied through a JSON config file (``--config``); explicit flags
override file values, and unknown keys in the file are rejected.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import clickstream, clustering, demand, experiment, metaexp, reports

SEED_ENV_VAR = "INTERFERENCE_LAB_SEED"

# GeneratorConfig field -> flag; the two shares go by the paper's names.
GENERATOR_FLAGS = {f.name: f.name for f in fields(demand.GeneratorConfig)} | {
    "within_share": "phi", "background_share": "phi_bg"}


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    for name, flag in GENERATOR_FLAGS.items():
        parser.add_argument(f"--{flag.replace('_', '-')}", default=None,
                            type=type(getattr(demand.GeneratorConfig, name)))


def _generator_config(args) -> demand.GeneratorConfig:
    return demand.GeneratorConfig(**{name: getattr(args, flag)
                                     for name, flag in GENERATOR_FLAGS.items()
                                     if getattr(args, flag) is not None})


def _or(value, default):
    return default if value is None else value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with option values (flags override)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed (fallback: ${SEED_ENV_VAR}, then 0)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for Monte-Carlo permutations")


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--multiplier", type=float, default=None,
                        help="treated price multiplier (default 0.95)")
    parser.add_argument("--metric", choices=["units", "revenue"], default=None)
    parser.add_argument("--p", type=int, default=None,
                        help="number of experiment assignments (default 1000)")


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", type=Path, default=None,
                        help="clickstream CSV (session_id,article_id)")
    parser.add_argument("--n-sessions", type=int, default=None,
                        help="synthesize this many sessions instead of reading a file")
    parser.add_argument("--views-min", type=int, default=None)
    parser.add_argument("--views-max", type=int, default=None)
    parser.add_argument("--purity", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interference-lab",
        description="Interference-bias laboratory for article-randomized "
                    "pricing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a demand system JSON file")
    _add_common(p)
    _add_generator_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--force", action="store_true",
                   help="allow overwriting an existing output file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("simulate", help="Monte-Carlo bias report for one system")
    _add_common(p)
    _add_mc_flags(p)
    p.add_argument("--system", type=Path, required=True)
    p.add_argument("--strategy", choices=["article", "cluster"], default="article")
    p.add_argument("--partition", type=Path, default=None,
                   help="partition CSV for cluster randomization "
                        "(default: the system's ground-truth partition)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="bias/variance sweep over substitution strengths")
    _add_common(p)
    _add_generator_flags(p)
    _add_mc_flags(p)
    p.add_argument("--phis", type=str, default=None,
                   help="comma-separated within-cluster substitution shares")
    p.add_argument("--strategies", type=str, default=None,
                   help="comma-separated subset of: article,cluster")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cluster", help="modularity-cluster the co-view graph")
    _add_common(p)
    _add_session_flags(p)
    p.add_argument("--system", type=Path, default=None,
                   help="demand system JSON (article space / synthesis partition)")
    p.add_argument("--partition", type=Path, default=None,
                   help="partition CSV used for session synthesis")
    p.add_argument("--gamma", type=float, default=None, help="resolution (default 1)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("exposure", help="exposure shares of an assignment")
    _add_common(p)
    _add_session_flags(p)
    p.add_argument("--system", type=Path, default=None)
    p.add_argument("--partition", type=Path, default=None)
    p.add_argument("--strategy", choices=["article", "cluster"], default="cluster")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_exposure)

    p = sub.add_parser("frontier", help="bias/variance/exposure frontier over gamma")
    _add_common(p)
    _add_session_flags(p)
    _add_mc_flags(p)
    p.add_argument("--system", type=Path, required=True)
    p.add_argument("--partition", type=Path, default=None,
                   help="partition CSV used for session synthesis")
    p.add_argument("--gammas", type=str, default=None,
                   help="comma-separated resolution values")
    p.add_argument("--exposure-draws", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("meta", help="meta-experiment bias arithmetic")
    _add_common(p)
    p.add_argument("--in", dest="infile", type=Path, required=True,
                   help="CSV: label,est_clustered,ci_halfwidth,est_article")
    p.add_argument("--ci-divisor", type=float, default=None,
                   help="half-width -> sigma divisor (default 1.96)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_meta)

    p = sub.add_parser("coverage", help="naive-interval coverage analysis")
    _add_common(p)
    _add_mc_flags(p)
    p.add_argument("--system", type=Path, required=True)
    p.add_argument("--strategy", choices=["article", "cluster"], default="article")
    p.add_argument("--partition", type=Path, default=None)
    p.add_argument("--noise-sigma", type=float, default=None,
                   help="lognormal observation-noise sigma (default 0.05)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_coverage)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.config is None:
        return
    try:
        values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(values, dict):
        raise RuntimeError(f"config file {args.config} must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in values.items():
        if key not in actions:
            raise RuntimeError(f"config file {args.config}: unknown key '{key}'")
        action = actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            # A switch defaults to False, not None: the file sets it unless the flag did.
            if not isinstance(value, bool):
                command.error(f"config file {args.config}: '{key}' must be true or false, "
                              f"not {value!r}")
            setattr(args, key, getattr(args, key) or value)
            continue
        # Checked as the same text on the command line would be; usage errors exit 2.
        text = str(value)
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError):
            command.error(f"config file {args.config}: invalid value for '{key}': {value!r}")
        if action.choices is not None and value not in action.choices:
            command.error(f"config file {args.config}: '{key}' must be one of "
                          f"{', '.join(map(str, action.choices))}, not {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _resolve_workers(args) -> int:
    if args.workers is not None:
        if args.workers < 1:
            raise RuntimeError("--workers must be >= 1")
        return args.workers
    return os.cpu_count() or 1


def _metric(args) -> demand.Metric:
    return demand.Metric(_or(args.metric, "revenue"))


def _policy(args) -> demand.PricePolicy:
    return demand.PricePolicy(_or(args.multiplier, 0.95))


def _strategy(args, system: demand.DemandSystem | None):
    if args.strategy == "article":
        return experiment.ArticleLevel()
    if args.partition is not None:
        return experiment.ClusterLevel(reports.read_partition(args.partition))
    if system is None:
        raise RuntimeError("cluster strategy needs --partition or --system")
    return experiment.ClusterLevel(system.partition)


def _resolve_sessions(args, seed: int, partition: demand.Partition | None,
                      n_articles: int | None) -> list[clickstream.Session]:
    if args.sessions is not None:
        return clickstream.read_sessions(args.sessions, n_articles)
    if args.n_sessions is None:
        raise RuntimeError("provide --sessions or --n-sessions for synthesis")
    if partition is None:
        raise RuntimeError("session synthesis needs --partition or --system")
    return clickstream.generate_sessions(
        partition,
        n_sessions=args.n_sessions,
        views_min=_or(args.views_min, 2),
        views_max=_or(args.views_max, 5),
        purity=_or(args.purity, 0.9),
        seed=seed,
    )


def _synthesis_partition(args) -> tuple[demand.Partition | None, int | None,
                                        demand.DemandSystem | None]:
    system = demand.DemandSystem.load(args.system) if args.system else None
    if args.partition is not None:
        part = reports.read_partition(args.partition)
    elif system is not None:
        part = system.partition
    else:
        part = None
    n = part.n if part is not None else (system.n if system else None)
    return part, n, system


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise RuntimeError(f"cannot parse {what} list: {text!r}") from None


def cmd_gen(args) -> None:
    seed = _resolve_seed(args)
    if args.out.exists() and not args.force:
        raise RuntimeError(f"refusing to overwrite {args.out} (use --force)")
    system = demand.generate_demand_system(_generator_config(args), seed)
    system.save(args.out)


def cmd_simulate(args) -> None:
    seed = _resolve_seed(args)
    system = demand.DemandSystem.load(args.system)
    strategy = _strategy(args, system)
    report = experiment.monte_carlo_bias(
        system, strategy, _policy(args), _metric(args),
        p=_or(args.p, 1000), master_seed=seed, workers=_resolve_workers(args))
    phi = system.config.within_share if system.config else None
    reports.write_bias_report(args.out, report, experiment.strategy_label(strategy),
                              phi=phi)


def cmd_sweep(args) -> None:
    seed = _resolve_seed(args)
    phis = _parse_floats(_or(args.phis, "0.1,0.2,0.3,0.4,0.5,0.6"), "phi")
    strategies = [s.strip() for s in _or(args.strategies, "article,cluster").split(",")]
    for s in strategies:
        if s not in ("article", "cluster"):
            raise RuntimeError(f"unknown strategy '{s}'")
    rows = experiment.sweep_substitution(
        _generator_config(args), phis, strategies, _policy(args), _metric(args),
        p=_or(args.p, 1000), seed=seed, workers=_resolve_workers(args))
    reports.write_sweep(args.out, rows)


def cmd_cluster(args) -> None:
    seed = _resolve_seed(args)
    part, n, _system = _synthesis_partition(args)
    sessions = _resolve_sessions(args, seed, part, n)
    graph = clickstream.build_graph(sessions, n=n)
    result = clustering.louvain(graph, gamma=_or(args.gamma, 1.0), seed=seed)
    reports.write_partition(args.out, result)


def cmd_exposure(args) -> None:
    seed = _resolve_seed(args)
    part, n, system = _synthesis_partition(args)
    sessions = _resolve_sessions(args, seed, part, n)
    if n is None:
        n = max(max(s.viewed) for s in sessions) + 1
    if args.strategy == "article":
        strategy = experiment.ArticleLevel()
    elif part is not None:
        strategy = experiment.ClusterLevel(part)
    else:
        raise RuntimeError("cluster strategy needs --partition or --system")
    assignment = experiment.assign(strategy, n, np.random.default_rng([seed, 1]))
    reports.write_exposure(args.out, clickstream.exposure_share(sessions, assignment))


def cmd_frontier(args) -> None:
    seed = _resolve_seed(args)
    system = demand.DemandSystem.load(args.system)
    part = (reports.read_partition(args.partition) if args.partition
            else system.partition)
    sessions = _resolve_sessions(args, seed, part, system.n)
    gammas = _parse_floats(_or(args.gammas, "0.25,0.5,1,2,4,8"), "gamma")
    points = clustering.frontier(
        system, sessions, gammas, _policy(args), _metric(args),
        p=_or(args.p, 1000), seed=seed, workers=_resolve_workers(args),
        exposure_draws=_or(args.exposure_draws, 32))
    reports.write_frontier(args.out, points)


def cmd_meta(args) -> None:
    inputs = metaexp.read_inputs(args.infile)
    divisor = _or(args.ci_divisor, metaexp.DEFAULT_CI_DIVISOR)
    reports.write_meta(args.out, [(inp, metaexp.compare(inp, divisor))
                                  for inp in inputs])


def cmd_coverage(args) -> None:
    seed = _resolve_seed(args)
    system = demand.DemandSystem.load(args.system)
    strategy = _strategy(args, system)
    report = experiment.coverage_analysis(
        system, strategy, _policy(args), _metric(args), p=_or(args.p, 1000),
        seed=seed, noise_sigma=_or(args.noise_sigma, 0.05),
        workers=_resolve_workers(args))
    reports.write_coverage(args.out, report)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args)
        args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
