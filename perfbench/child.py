"""One benchmark pass in a fresh process; ``run.py`` starts it and reads its last line.

    python3 child.py setup  <workload> <seed> <inputs>
    python3 child.py pass   <workload> <seed> <workers> <inputs> <outputs>
    python3 child.py traced <workload> <seed> <inputs> <outputs> <spans.json>

``setup`` times importing the package plus writing the workload's inputs.
``pass`` runs the workload's commands back to back through ``cli.main``
and reports wall time, CPU time of this process and its reaped pool
workers, and peak RSS. ``traced`` does set-up and the pass with
``--workers 1`` under the span tracer and reports the per-layer metrics.
Each prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def make_inputs(workload: workloads.Workload, seed: int, inputs: Path,
                tracer=None) -> int:
    """Write the workload's inputs; returns the exit code of ``gen``."""
    from interference_lab import clickstream, demand

    inputs.mkdir(parents=True, exist_ok=True)
    system = inputs / "system.json"
    code = run_command(["gen", "--n", str(workloads.N_ARTICLES), "--seed", str(seed),
                        "--out", str(system)], tracer)
    if code == 0 and workload.csv_sessions:
        sessions = clickstream.generate_sessions(
            demand.DemandSystem.load(system).partition, workload.csv_sessions,
            *workloads.CSV_VIEWS, workloads.PURITY, seed)
        clickstream.write_sessions(sessions, inputs / "sessions.csv")
        (inputs / "meta_in.csv").write_text(workloads.META_INPUT, encoding="utf-8")
    return code


def run_command(argv: list[str], tracer=None) -> int:
    """Exit code of one ``cli.main`` call; a traceback counts as a failure."""
    from interference_lab import cli

    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.call(f"cli.{argv[0]}", cli.main, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash inside the program is a failed command, not a failed pass
        traceback.print_exc()
        return -1


def run_pass(workload, seed: int, workers: int, inputs: str, outputs: Path,
             tracer=None) -> tuple[list[int], float]:
    outputs.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    codes = [run_command(c.args(inputs, str(outputs), seed, workers), tracer)
             for c in workload.commands]
    return codes, time.perf_counter() - start


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> dict:
    mode, workload, seed = argv[0], workloads.WORKLOADS[argv[1]], int(argv[2])
    if mode == "setup":
        start = time.perf_counter()
        import interference_lab  # noqa: F401  (the import is part of set-up)
        code = make_inputs(workload, seed, Path(argv[3]))
        return {"setup_s": time.perf_counter() - start, "code": code}

    import interference_lab.cli  # noqa: F401  (imported before timing starts)
    if mode == "pass":
        workers, inputs, outputs = int(argv[3]), argv[4], Path(argv[5])
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        codes, wall = run_pass(workload, seed, workers, inputs, outputs)
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {
            "codes": codes,
            "wall_s": wall,
            "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        }

    if mode == "traced":
        import tracing

        inputs, outputs, spans_path = Path(argv[3]), Path(argv[4]), Path(argv[5])
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            setup_code = make_inputs(workload, seed, inputs, tracer)
            codes, wall = run_pass(workload, seed, 1, str(inputs), outputs, tracer)
        finally:
            tracer.restore()
        spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]),
                              encoding="utf-8")
        return {"setup_code": setup_code, "codes": codes, "wall_s": wall,
                "metrics": tracing.layer_metrics(tracer)}
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
