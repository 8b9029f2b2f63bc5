"""Correctness checks on the files the CLI writes.

Every check returns a list of problems; an empty list means the file is sound.
The structural checks hold on any seed: headers, row counts, finite values
apart from the NaN the lab documents, shares in [0, 1] summing to 1, and
dense 0..n-1 ids. On the default seed the benchmark also compares each
file's sha256 with the reference digests in ``reference.json``.

The checks parse the files themselves rather than through the lab's readers,
so a defect in a reader cannot hide a defect in a writer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

BIAS_HEADER = ["phi", "strategy", "gte", "mean_estimate", "mean_bias",
               "sd_estimate", "relative_sd", "q05", "q50", "q95", "p", "seed"]
COVERAGE_HEADER = ["aa_sd", "coverage_rate", "mean_z", "gte", "p", "seed",
                   "noise_sigma"]
FRONTIER_HEADER = ["gamma", "n_clusters", "avg_cluster_size", "modularity",
                   "share_both", "mean_bias", "relative_sd"]
PARTITION_HEADER = ["article_id", "cluster_id"]
EXPOSURE_HEADER = ["share_both", "share_treated_only", "share_control_only",
                   "session_count"]
META_HEADER = ["label", "est_clustered", "ci_halfwidth", "est_article",
               "relative_bias", "sigma_distance"]
SESSIONS_HEADER = ["session_id", "article_id"]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows(path, header: list[str], problems: list[str]) -> list[dict[str, str]]:
    """Rows of a CSV as dicts; records a problem for a wrong header or row width."""
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        problems.append(f"cannot read {Path(path).name}: {exc}")
        return []
    if not table or table[0] != header:
        problems.append(f"{Path(path).name}: header is not {','.join(header)}")
        return []
    rows = []
    for lineno, row in enumerate(table[1:], start=2):
        if len(row) != len(header):
            problems.append(f"{Path(path).name}: line {lineno} has {len(row)} fields")
            return []
        rows.append(dict(zip(header, row)))
    return rows


def _number(row: dict, key: str, problems: list[str], allow_nan=False) -> float:
    try:
        value = float(row[key])
    except ValueError:
        problems.append(f"{key}={row[key]!r} is not a number")
        return math.nan
    if math.isinf(value) or (math.isnan(value) and not allow_nan):
        problems.append(f"{key}={row[key]} is not finite")
    return value


def _integer(row: dict, key: str, problems: list[str]) -> int | None:
    try:
        return int(row[key])
    except ValueError:
        problems.append(f"{key}={row[key]!r} is not an integer")
        return None


def _row_count(rows: list, expected: int, name: str, problems: list[str]) -> bool:
    if len(rows) != expected:
        problems.append(f"{name}: {len(rows)} rows, expected {expected}")
        return False
    return True


def bias_report(path, seed: int, rows: list[tuple[float, str]], p: int) -> list[str]:
    """A ``simulate`` or ``sweep`` CSV: one row per expected (phi, strategy)."""
    problems: list[str] = []
    table = _rows(path, BIAS_HEADER, problems)
    if not _row_count(table, len(rows), Path(path).name, problems) or problems:
        return problems
    for row, (phi, strategy) in zip(table, rows):
        if _number(row, "phi", problems) != phi or row["strategy"] != strategy:
            problems.append(f"row ({row['phi']},{row['strategy']}) is not "
                            f"({phi},{strategy})")
        values = {k: _number(row, k, problems) for k in BIAS_HEADER[2:10]}
        if values["sd_estimate"] < 0 or values["relative_sd"] < 0:
            problems.append("negative standard deviation")
        if not values["q05"] <= values["q50"] <= values["q95"]:
            problems.append("quantiles out of order")
        if _integer(row, "p", problems) != p:
            problems.append(f"p={row['p']}, expected {p}")
        if _integer(row, "seed", problems) != seed:
            problems.append(f"seed={row['seed']}, expected {seed}")
    return problems


def coverage(path, seed: int, p: int) -> list[str]:
    """A ``coverage`` CSV; coverage_rate and mean_z are NaN only when aa_sd is 0."""
    problems: list[str] = []
    table = _rows(path, COVERAGE_HEADER, problems)
    if not _row_count(table, 1, Path(path).name, problems) or problems:
        return problems
    row = table[0]
    aa_sd = _number(row, "aa_sd", problems)
    undefined = aa_sd == 0
    rate = _number(row, "coverage_rate", problems, allow_nan=undefined)
    _number(row, "mean_z", problems, allow_nan=undefined)
    _number(row, "gte", problems)
    _number(row, "noise_sigma", problems)
    if aa_sd < 0 or not (undefined or 0 <= rate <= 1):
        problems.append("aa_sd negative or coverage_rate outside [0, 1]")
    if _integer(row, "p", problems) != p or _integer(row, "seed", problems) != seed:
        problems.append(f"p or seed differ from ({p}, {seed})")
    return problems


def frontier(path, seed: int, gammas: tuple[float, ...]) -> list[str]:
    """A ``frontier`` CSV: rows sorted by gamma; NaN only where n_clusters < 2."""
    problems: list[str] = []
    table = _rows(path, FRONTIER_HEADER, problems)
    if not _row_count(table, len(gammas), Path(path).name, problems) or problems:
        return problems
    for row, gamma in zip(table, sorted(gammas)):
        if _number(row, "gamma", problems) != gamma:
            problems.append(f"gamma={row['gamma']}, expected {gamma}")
        k = _integer(row, "n_clusters", problems)
        if k is None or k < 1:
            problems.append(f"n_clusters={row['n_clusters']}")
            continue
        undefined = k < 2
        _number(row, "avg_cluster_size", problems)
        q = _number(row, "modularity", problems)
        share = _number(row, "share_both", problems, allow_nan=undefined)
        _number(row, "mean_bias", problems, allow_nan=undefined)
        _number(row, "relative_sd", problems, allow_nan=undefined)
        if not -1 <= q <= 1 or not (undefined or 0 <= share <= 1):
            problems.append(f"gamma {gamma}: modularity or share_both out of range")
    return problems


def partition(path, seed: int, n: int) -> list[str]:
    """A partition CSV: article ids 0..n-1 in order, cluster ids dense 0..k-1."""
    problems: list[str] = []
    table = _rows(path, PARTITION_HEADER, problems)
    if not _row_count(table, n, Path(path).name, problems) or problems:
        return problems
    clusters = set()
    for i, row in enumerate(table):
        if _integer(row, "article_id", problems) != i:
            problems.append(f"article ids are not 0..{n - 1} in order")
            return problems
        clusters.add(_integer(row, "cluster_id", problems))
    if clusters != set(range(len(clusters))):
        problems.append("cluster ids are not dense 0..k-1")
    return problems


def exposure(path, seed: int, sessions: int) -> list[str]:
    """An ``exposure`` CSV: shares in [0, 1] summing to 1 over every session."""
    problems: list[str] = []
    table = _rows(path, EXPOSURE_HEADER, problems)
    if not _row_count(table, 1, Path(path).name, problems) or problems:
        return problems
    row = table[0]
    shares = [_number(row, k, problems) for k in EXPOSURE_HEADER[:3]]
    if not all(0 <= s <= 1 for s in shares) or abs(sum(shares) - 1) > 1e-9:
        problems.append(f"exposure shares {shares} are not a distribution")
    if _integer(row, "session_count", problems) != sessions:
        problems.append(f"session_count={row['session_count']}, expected {sessions}")
    return problems


def meta(path, seed: int) -> list[str]:
    """A ``meta`` CSV for the README input, whose arithmetic is checked here."""
    problems: list[str] = []
    table = _rows(path, META_HEADER, problems)
    if not _row_count(table, 1, Path(path).name, problems) or problems:
        return problems
    row = table[0]
    v = {k: _number(row, k, problems) for k in META_HEADER[1:]}
    diff = v["est_article"] - v["est_clustered"]
    expected = {"relative_bias": diff / v["est_clustered"],
                "sigma_distance": diff / (v["ci_halfwidth"] / 1.96)}
    for key, want in expected.items():
        if not math.isclose(v[key], want, rel_tol=1e-12):
            problems.append(f"{key}={v[key]}, expected {want}")
    return problems


def system_json(path, n: int) -> list[str]:
    """A demand system written by ``gen``."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cannot read {Path(path).name}: {exc}"]
    problems: list[str] = []
    if not isinstance(d, dict) or d.get("n") != n:
        return [f"{Path(path).name}: not a system of {n} articles"]
    for key in ("own", "partition", "base_prices", "base_quantities"):
        if not isinstance(d.get(key), list) or len(d[key]) != n:
            problems.append(f"{key} does not hold {n} values")
    if problems:
        return problems
    k = len(set(d["partition"]))
    if set(d["partition"]) != set(range(k)) or len(d.get("within_beta", [])) != k:
        problems.append("partition ids are not dense or within_beta has the wrong length")
    values = d["own"] + d["base_prices"] + d["base_quantities"] + d["within_beta"]
    if not all(math.isfinite(x) for x in values + [d["background"]]):
        problems.append("system holds a non-finite value")
    if not all(x < 0 for x in d["own"]) or not all(
            x > 0 for x in d["base_prices"] + d["base_quantities"]):
        problems.append("own elasticities must be < 0, prices and quantities > 0")
    return problems


def sessions_csv(path, n: int, sessions: int) -> list[str]:
    """A clickstream CSV written by ``write_sessions``."""
    problems: list[str] = []
    table = _rows(path, SESSIONS_HEADER, problems)
    if problems:
        return problems
    ids = set()
    for row in table:
        article = _integer(row, "article_id", problems)
        if problems or not 0 <= article < n:
            return problems or [f"article id {article} outside 0..{n - 1}"]
        ids.add(row["session_id"])
    if len(ids) != sessions:
        problems.append(f"{len(ids)} sessions, expected {sessions}")
    return problems


def text(path, expected: str) -> list[str]:
    try:
        ok = Path(path).read_text(encoding="utf-8") == expected
    except (OSError, UnicodeDecodeError) as exc:
        return [f"cannot read {Path(path).name}: {exc}"]
    return [] if ok else [f"{Path(path).name} differs from the expected text"]
