"""Rewrite ``reference.json``: sha256 of every input and output of each
input instance on the default seed.

    python3 perfbench/record_reference.py

The benchmark compares each file it checks on the default seed with these
digests, so a change that makes output bytes differ fails the benchmark.
Record again only when a change alters the bytes on purpose, and say so.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from importlib import metadata

import run
import workloads


def main() -> int:
    seed = run.DEFAULT_SEED
    digests = {}
    for workload in workloads.WORKLOADS.values():
        rundir = run.WORK / f"reference-{workload.name}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        tally = run.Tally()
        digests[workload.name] = []
        try:
            for i in range(run.INSTANCES):
                _, inputs = run.set_up(workload, seed, rundir, i, tally, None)
                result = run.run_child(["pass", workload.name, run.instance_seed(seed, i),
                                        run.WORKERS, f"inputs{i}", f"pass{i}"], rundir)
                outputs = run.check_pass(workload, run.instance_seed(seed, i),
                                         rundir / f"pass{i}", result["codes"], None,
                                         tally, "pass")
                digests[workload.name].append({**inputs, **outputs})
        finally:
            shutil.rmtree(rundir)
        if tally.failed:
            print(f"error: {workload.name} failed its structural checks", file=sys.stderr)
            return 1
    run.REFERENCE.write_text(json.dumps({
        "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "digests": digests,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
