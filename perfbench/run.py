"""Benchmark of the interference-lab CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload {montecarlo,frontier,csv_io} \\
        --seed N --seconds S --trace {0,1}

The workload is a closed loop: one client runs the workload's CLI commands
back to back through ``cli.main``, each pass in a fresh Python process with
``PYTHONPATH=src``, so nothing is installed and no pass inherits another's
memory or caches. Monte-Carlo commands run with ``--workers 2``.

The workload seed fixes ``INSTANCES`` input instances, each with its own
seed for ``gen`` and every command. ``--trace 0`` sets up each instance
once and runs passes over the instances in turn for ``--seconds`` seconds
(at least one each), and reports medians over them: ``setup_s``,
``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``draws_per_s``.

``--trace 1`` runs rounds of three passes on instance 0: untraced with 2 workers, untraced
with 1 worker, and traced with 1 worker (pool workers' spans would never
reach this process). It reports the per-layer metrics of ``tracing.py``, and
the tracing overhead against the untraced 1-worker pass. The traced outputs
must equal the 2-worker outputs byte for byte: outputs may not depend on the
worker count.

Every output is checked: structurally on any seed, and against the sha256
digests in ``reference.json`` on the default seed. A command that exits
non-zero or writes a wrong file counts as failed; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it record the machine and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 7
INSTANCES = 4
WORKERS = 2
HASH_SEED = "0"
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED,
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


def run_child(args: list, cwd: Path) -> dict:
    """Run ``child.py`` in its own session and return its last line of output."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)], cwd=cwd,
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        proc.communicate()
        raise BenchError(f"child {args[:3]} timed out") from None
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child {args[:3]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def instance_seed(seed: int, i: int) -> int:
    """Seed of input instance ``i`` of the run with workload seed ``seed``."""
    return seed * INSTANCES + i


def reference_digests(workload: str, seed: int) -> list[dict[str, str]] | None:
    """Digests of every file of each instance on the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"][workload]


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def check_files(files: dict[str, list[str]], directory: Path,
                expected: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Problems with ``files`` (name -> problems found so far) and their digests."""
    problems, digests = [], {}
    for name, found in files.items():
        path = directory / name
        problems += found
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        digests[name] = checks.sha256(path)
        if expected is not None and digests[name] != expected.get(name):
            problems.append(f"{name} differs from the expected bytes")
    return problems, digests


def check_inputs(workload, inputs: Path, code: int,
                 expected: dict | None, structural: bool) -> tuple[list[str], dict]:
    found = {name: [] for name in workloads.input_files(workload)}
    if code != 0:
        found["system.json"].append(f"gen exited with code {code}")
    elif structural:
        found["system.json"] += checks.system_json(inputs / "system.json",
                                                   workloads.N_ARTICLES)
        if workload.csv_sessions:
            found["sessions.csv"] += checks.sessions_csv(
                inputs / "sessions.csv", workloads.N_ARTICLES, workload.csv_sessions)
            found["meta_in.csv"] += checks.text(inputs / "meta_in.csv",
                                                workloads.META_INPUT)
    return check_files(found, inputs, expected)


def check_pass(workload, seed: int, outputs: Path, codes: list[int],
               expected: dict | None, tally: Tally, label: str) -> dict[str, str]:
    """Check each command's output; returns the digests of the outputs."""
    digests = {}
    for command, code in zip(workload.commands, codes):
        path = outputs / command.out
        found = [f"exit code {code}"] if code != 0 else []
        if code == 0 and path.is_file():
            found += command.check(path, seed)
        problems, digest = check_files({command.out: found}, outputs, expected)
        digests.update(digest)
        tally.record(f"{label} {command.argv[0]} -> {command.out}", problems)
    return digests


def set_up(workload, seed: int, rundir: Path, i: int, tally: Tally,
           expected: dict | None) -> tuple[float, dict[str, str]]:
    """Write the inputs of instance ``i`` into ``inputs<i>`` in a fresh process.

    Returns the set-up time and the digests of the inputs.
    """
    inputs = rundir / f"inputs{i}"
    result = run_child(["setup", workload.name, instance_seed(seed, i), inputs.name],
                       rundir)
    problems, digests = check_inputs(workload, inputs, result["code"], expected,
                                     structural=True)
    tally.record(f"set-up {i}", problems)
    return result["setup_s"], digests


def repeat(seconds: float, minimum: int, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... at least ``minimum`` times, then while
    another call of the median duration still ends within ``seconds``."""
    durations = []
    start = time.perf_counter()
    while (len(durations) < minimum
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)


def measure(workload, seed: int, seconds: float, rundir: Path, tally: Tally) -> dict:
    """Untraced passes over the run's ``INSTANCES`` input instances in turn.

    Each instance is set up just before its first pass, so the set-ups are
    spread over the run and a burst of load from other processes on the
    machine reaches few of them. Cycling through instances averages out how
    much work one seed's inputs happen to need.
    """
    reference = reference_digests(workload.name, seed)
    expected = list(reference) if reference else [None] * INSTANCES
    samples = {name: [] for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}

    def step(k: int) -> None:
        i = k % INSTANCES
        if k < INSTANCES:
            setup_s, _ = set_up(workload, seed, rundir, i, tally, expected[i])
            samples["setup_s"].append(setup_s)
        out = rundir / f"pass{k}"
        result = run_child(["pass", workload.name, instance_seed(seed, i), WORKERS,
                            f"inputs{i}", out.name], rundir)
        # without a reference, a later pass of an instance must repeat its first
        digests = check_pass(workload, instance_seed(seed, i), out, result["codes"],
                             expected[i], tally, f"pass {k}")
        expected[i] = expected[i] or digests
        shutil.rmtree(out)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(result[name])

    repeat(seconds, INSTANCES, step)
    walls = samples["wall_s"]
    samples["draws_per_s"] = [workload.draws / w for w in walls]
    if workload.sessions:
        samples["sessions_per_s"] = [workload.sessions / w for w in walls]
    return samples


def trace(workload, seed: int, seconds: float, rundir: Path, tally: Tally) -> dict:
    """Rounds of an untraced 2-worker, an untraced 1-worker and a traced pass,
    all on input instance 0."""
    reference = reference_digests(workload.name, seed)
    expected = reference[0] if reference else None
    _, inputs_digests = set_up(workload, seed, rundir, 0, tally, expected)
    seed0 = instance_seed(seed, 0)
    rounds = []

    def step(k: int) -> None:
        w2, w1, traced, inputs = (rundir / f"{name}{k}" for name in
                                  ("w2_", "w1_", "traced", "traced_inputs"))
        result_w2 = run_child(["pass", workload.name, seed0, WORKERS, "inputs0", w2.name],
                              rundir)
        digests = check_pass(workload, seed0, w2, result_w2["codes"], expected, tally,
                             f"round {k} workers={WORKERS}")
        result_w1 = run_child(["pass", workload.name, seed0, 1, "inputs0", w1.name], rundir)
        check_pass(workload, seed0, w1, result_w1["codes"], digests, tally,
                   f"round {k} workers=1")
        result = run_child(["traced", workload.name, seed0, inputs.name, traced.name,
                            WORK / f"spans-{workload.name}-{seed}.json"], rundir)
        problems, _ = check_inputs(workload, inputs, result["setup_code"],
                                   inputs_digests, structural=False)
        tally.record(f"round {k} traced set-up", problems)
        check_pass(workload, seed0, traced, result["codes"], digests, tally,
                   f"round {k} traced")
        for d in (w2, w1, traced, inputs):
            shutil.rmtree(d)
        metrics = result["metrics"]
        metrics["trace.overhead"] = result["wall_s"] / result_w1["wall_s"] - 1
        rounds.append(metrics)

    repeat(seconds, 1, step)
    return {name: [r[name] for r in rounds] for name in rounds[0]}


def machine() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "os.cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "workers": {"untraced": WORKERS, "traced": 1},
        "PYTHONHASHSEED": HASH_SEED,
        "note": f"scaling beyond {nproc} workers cannot be measured on this "
                f"{nproc}-core machine",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "interference_lab" / "__init__.py").is_file():
        print(f"error: no interference_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workload = workloads.WORKLOADS[args.workload]
    rundir = WORK / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    tally = Tally()
    try:
        run = trace if args.trace else measure
        samples = run(workload, args.seed, args.seconds, rundir, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    medians = {name: statistics.median(values) for name, values in samples.items()}
    print(json.dumps({"machine": machine(), "workload": workload.name,
                      "seed": args.seed, "trace": args.trace}))
    for name, values in samples.items():
        print(f"{name:36s} median {medians[name]:.6g} over {len(values)} samples"
              f" (min {min(values):.6g}, max {max(values):.6g})")
    print(f"{'error_rate':36s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} commands failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
