"""Command-line entry point wiring the modules end to end.

One subcommand per pipeline stage; every run is deterministic given
(config, seed) and the worker count never changes output bytes. Options can
also be supplied through a JSON config file (``--config``); explicit flags
override file values. Unknown keys are rejected, and so are the keys of
flags that must be given on the command line.

``main`` checks the seed and the worker count once for every subcommand, and
``_inputs`` loads ``--system`` and ``--partition``, which must cover the same
articles; the ``cmd_*`` functions only read the resolved values.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
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


def _add_generator_flags(parser: argparse.ArgumentParser, skip=()) -> None:
    for name, flag in GENERATOR_FLAGS.items():
        if name not in skip:
            default = getattr(demand.GeneratorConfig, name)
            parser.add_argument(f"--{flag.replace('_', '-')}", default=default, type=type(default))


def _generator_config(args) -> demand.GeneratorConfig:
    return demand.GeneratorConfig(**{name: getattr(args, flag) for name, flag
                                     in GENERATOR_FLAGS.items() if hasattr(args, flag)})


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with option values (flags override)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed (fallback: ${SEED_ENV_VAR}, then 0)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the Monte-Carlo draws, at most the "
                             "CPUs this process may use (default: that many)")
    parser.add_argument("--out", type=Path, required=True)


def _add_inputs(parser: argparse.ArgumentParser, system_required: bool,
                strategy_default: str | None = None) -> None:
    parser.add_argument("--system", type=Path, required=system_required,
                        help="demand system JSON (article space and ground-truth partition)")
    parser.add_argument("--partition", type=Path, default=None,
                        help="partition CSV over the same articles "
                             "(default: the system's ground-truth partition)")
    if strategy_default is not None:
        parser.add_argument("--strategy", choices=["article", "cluster"],
                            default=strategy_default)


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--multiplier", type=float, default=demand.PricePolicy.treated_multiplier,
                        help="treated price multiplier (default %(default)s)")
    parser.add_argument("--metric", choices=["units", "revenue"], default="revenue")
    parser.add_argument("--p", type=int, default=1000,
                        help="number of experiment assignments (default %(default)s)")


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", type=Path, default=None,
                        help="clickstream CSV (session_id,article_id)")
    parser.add_argument("--n-sessions", type=int, default=None,
                        help="synthesize this many sessions instead of reading a file")
    parser.add_argument("--views-min", type=int, default=2)
    parser.add_argument("--views-max", type=int, default=5)
    parser.add_argument("--purity", type=float, default=0.9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interference-lab",
        description="Interference-bias laboratory for article-randomized "
                    "pricing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "generate a demand system JSON file")
    _add_generator_flags(p)
    p.add_argument("--force", action="store_true",
                   help="allow overwriting an existing output file")

    p = command("simulate", cmd_simulate, "Monte-Carlo bias report for one system")
    _add_mc_flags(p)
    _add_inputs(p, system_required=True, strategy_default="article")

    p = command("sweep", cmd_sweep, "bias/variance sweep over substitution strengths")
    _add_generator_flags(p, skip=("within_share",))
    _add_mc_flags(p)
    p.add_argument("--phis", type=str, default="0.1,0.2,0.3,0.4,0.5,0.6",
                   help="comma-separated within-cluster substitution shares, one system each")
    p.add_argument("--strategies", type=str, default="article,cluster",
                   help="comma-separated subset of: article,cluster")

    p = command("cluster", cmd_cluster, "modularity-cluster the co-view graph")
    _add_session_flags(p)
    _add_inputs(p, system_required=False)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="resolution (default %(default)s)")

    p = command("exposure", cmd_exposure, "exposure shares of an assignment")
    _add_session_flags(p)
    _add_inputs(p, system_required=False, strategy_default="cluster")

    p = command("frontier", cmd_frontier, "bias/variance/exposure frontier over gamma")
    _add_session_flags(p)
    _add_mc_flags(p)
    _add_inputs(p, system_required=True)
    p.add_argument("--gammas", type=str, default="0.25,0.5,1,2,4,8",
                   help="comma-separated resolution values")
    p.add_argument("--exposure-draws", type=int, default=clustering.DEFAULT_EXPOSURE_DRAWS)

    p = command("meta", cmd_meta, "meta-experiment bias arithmetic")
    p.add_argument("--in", dest="infile", type=Path, required=True,
                   help="CSV: label,est_clustered,ci_halfwidth,est_article")
    p.add_argument("--ci-divisor", type=float, default=metaexp.DEFAULT_CI_DIVISOR,
                   help="half-width -> sigma divisor (default %(default)s)")

    p = command("coverage", cmd_coverage, "naive-interval coverage analysis")
    _add_mc_flags(p)
    _add_inputs(p, system_required=True, strategy_default="article")
    p.add_argument("--noise-sigma", type=float, default=experiment.DEFAULT_NOISE_SIGMA,
                   help="lognormal observation-noise sigma (default %(default)s)")

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make the config file's values the subcommand's defaults; parsing again lets flags win."""
    try:
        values = demand.read_json(args.config)
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"cannot read config file: {exc}") from exc
    if not isinstance(values, dict):
        raise RuntimeError(f"config file {args.config} must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in values.items():
        if key not in actions:
            raise RuntimeError(f"config file {args.config}: unknown key '{key}'")
        action = actions[key]
        # A required flag is always on the command line, which would override the file.
        if action.required:
            raise RuntimeError(f"config file {args.config}: '{key}' must be given on the "
                               f"command line as {action.option_strings[0]}")
        if isinstance(action, argparse._StoreTrueAction):
            if not isinstance(value, bool):
                command.error(f"config file {args.config}: '{key}' must be true or false, "
                              f"not {value!r}")
        else:
            # Checked as the same text on the command line would be; usage errors exit 2.
            text = str(value)
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError):
                command.error(f"config file {args.config}: invalid value for '{key}': {value!r}")
            if action.choices is not None and value not in action.choices:
                command.error(f"config file {args.config}: '{key}' must be one of "
                              f"{', '.join(map(str, action.choices))}, not {value!r}")
        command.set_defaults(**{key: value})


def _resolve_seed(args) -> int:
    source, text = (("--seed", args.seed) if args.seed is not None
                    else (f"${SEED_ENV_VAR}", os.environ.get(SEED_ENV_VAR, "0")))
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise RuntimeError(f"{source} must be a non-negative integer, not {text!r}")


def _resolve_workers(args) -> int:
    if args.workers is not None:
        if args.workers < 1:
            raise RuntimeError("--workers must be >= 1")
        return args.workers
    return experiment.usable_cpus()


def _inputs(args) -> tuple[demand.DemandSystem | None, demand.Partition | None]:
    """``--system``, and ``--partition`` or else the system's ground-truth partition."""
    system = demand.DemandSystem.load(args.system) if args.system is not None else None
    if args.partition is None:
        return system, system.partition if system else None
    part = reports.read_partition(args.partition)
    if system is not None and part.n != system.n:
        raise RuntimeError(f"{args.partition} partitions {part.n} articles but "
                           f"{args.system} has {system.n}: they must cover the same articles")
    return system, part


def _strategy(args, part: demand.Partition | None, n: int) -> demand.Partition:
    """The partition ``--strategy`` randomizes over: ``n`` singletons, or ``part``."""
    return demand.Partition(np.arange(n)) if args.strategy == "article" else part


def _sessions(args, part: demand.Partition | None) -> clickstream.Clickstream:
    """The sessions of the clickstream CSV, or sessions synthesized from ``part``."""
    if (args.sessions is None) == (args.n_sessions is None):
        raise RuntimeError("provide --sessions, or --n-sessions for synthesis, but not both")
    if args.sessions is not None:
        sessions = clickstream.read_sessions(args.sessions, part.n if part else None)
        if not sessions:
            raise RuntimeError(f"{args.sessions}: no sessions")
        return sessions
    if part is None:
        raise RuntimeError("session synthesis needs --partition or --system")
    return clickstream.generate_sessions(part, args.n_sessions, args.views_min, args.views_max,
                                         args.purity, args.seed)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise RuntimeError(f"cannot parse {what} list: {text!r}") from None
    if not values:
        raise RuntimeError(f"empty {what} list: {text!r}")
    return values


def cmd_gen(args) -> None:
    if args.out.exists() and not args.force:
        raise RuntimeError(f"refusing to overwrite {args.out} (use --force)")
    system = demand.generate_demand_system(_generator_config(args), args.seed)
    system.save(args.out)


def cmd_simulate(args) -> None:
    system, part = _inputs(args)
    report = experiment.monte_carlo_bias(
        system, _strategy(args, part, system.n), demand.PricePolicy(args.multiplier),
        demand.Metric(args.metric), p=args.p, master_seed=args.seed, workers=args.workers)
    phi = system.config.within_share if system.config else None
    reports.write_bias_report(args.out, report, args.strategy, phi=phi)


def cmd_sweep(args) -> None:
    phis = _parse_floats(args.phis, "phi")
    strategies = [s.strip() for s in args.strategies.split(",")]
    rows = experiment.sweep_substitution(
        _generator_config(args), phis, strategies, demand.PricePolicy(args.multiplier),
        demand.Metric(args.metric), p=args.p, seed=args.seed, workers=args.workers)
    reports.write_sweep(args.out, rows)


def cmd_cluster(args) -> None:
    _, part = _inputs(args)
    graph = clickstream.build_graph(_sessions(args, part), part.n if part else None)
    result = clustering.louvain(graph, gamma=args.gamma, seed=args.seed)
    reports.write_partition(args.out, result)


def cmd_exposure(args) -> None:
    _, part = _inputs(args)
    # Only here can the partition be missing: simulate and coverage require --system.
    if args.strategy == "cluster" and part is None:
        raise RuntimeError("cluster strategy needs --partition or --system")
    sessions = _sessions(args, part)
    n = part.n if part else int(sessions.article.max()) + 1
    treated = experiment.assign(_strategy(args, part, n), np.random.default_rng([args.seed, 1]))
    reports.write_exposure(args.out, clickstream.exposure_share(sessions, treated))


def cmd_frontier(args) -> None:
    system, part = _inputs(args)
    sessions = _sessions(args, part)
    gammas = _parse_floats(args.gammas, "gamma")
    points = clustering.frontier(
        system, sessions, gammas, demand.PricePolicy(args.multiplier),
        demand.Metric(args.metric), p=args.p, seed=args.seed, workers=args.workers,
        exposure_draws=args.exposure_draws)
    reports.write_frontier(args.out, points)


def cmd_meta(args) -> None:
    inputs = metaexp.read_inputs(args.infile)
    reports.write_meta(args.out, [(inp, metaexp.compare(inp, args.ci_divisor))
                                  for inp in inputs])


def cmd_coverage(args) -> None:
    system, part = _inputs(args)
    report = experiment.coverage_analysis(
        system, _strategy(args, part, system.n), demand.PricePolicy(args.multiplier),
        demand.Metric(args.metric), p=args.p, seed=args.seed, noise_sigma=args.noise_sigma,
        workers=args.workers)
    reports.write_coverage(args.out, report)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config_file(parser, args)
            args = parser.parse_args(argv)
        args.seed, args.workers = _resolve_seed(args), _resolve_workers(args)
        args.func(args)
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
