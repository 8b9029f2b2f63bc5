"""Demand systems with clustered cross-price elasticities.

Demand is constant-elasticity (log-linear): under a price-multiplier vector
mu, article i sells q_i = q0_i * prod_j mu_j ** E_ij. The elasticity matrix E
is near-block-diagonal: negative own-price elasticities on the diagonal, a
per-cluster substitution coefficient off-diagonal within clusters, and a
small nonnegative background coefficient between clusters. Every
counterfactual, including the global treatment effect of a full roll-out, is
therefore computable exactly.

A ``DemandSystem`` holds E flat, as the system JSON does: ``own``, the
per-cluster ``within`` (the JSON's ``within_beta``), ``background`` and the
``partition``; it evaluates in O(n), and ``dense_oracle`` materializes E as a
brute-force cross-check. Every other module imports this one, so it holds the
boundary helpers: ``read_json`` and ``csv_records`` read every input file,
``csv_number`` is the number rule of every CSV field and CLI value, and
``write_csv`` streams each CSV row into ``atomic_write``, which replaces a file whole.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np

DENSE_ORACLE_MAX_N = 2000


@contextmanager
def atomic_write(path):
    """Text file handle whose contents replace ``path`` only when the block completes.

    The text goes to a temporary file beside ``path`` that ``os.replace`` then
    moves over it, so a writer that fails or is interrupted leaves the
    previous file (or none), never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        # Name the target, not the temporary file.
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def csv_records(path, header: list[str]):
    """Yield ``(line, row)``, one at a time, for each record after the header of ``path``.

    The UTF-8 CSV file's stripped header must equal ``header``, and each record
    that is not blank must have ``len(header)`` fields; ``line`` counts records
    from the header's 1. A violation, an oversized field or a byte that is not
    UTF-8 is one ``ValueError`` naming ``path``.
    """
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            records = csv.reader(fh)
            if [h.strip() for h in next(records, [])] != header:
                raise ValueError(f"{path}: expected header '{','.join(header)}'")
            for line, row in enumerate(records, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}: malformed row at line {line}")
                yield line, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def csv_number(kind: type, field: str):
    """``kind(field)`` for ``int`` or ``float``; a ``_`` or a non-ASCII character is a ValueError.

    Python reads ``1_0`` as 10 and other scripts' digits as digits; no CSV number holds them.
    """
    if "_" in field or not field.isascii():
        raise ValueError(f"could not convert string to {kind.__name__}: {field!r}")
    return kind(field)


def read_json(path):
    """The value in UTF-8 JSON file ``path``; a parse failure is one ``ValueError`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_csv(path, header: list[str], rows) -> None:
    """Stream ``header``, then each row of the iterable ``rows`` as the csv module spells it."""
    def write(line: str) -> None:
        # The writer quotes a value holding "\n" but not "\r", which readers take for a line end.
        if "\r" in line:
            raise ValueError(f"{path}: cannot write a value holding a carriage return")
        fh.write(line)
    with atomic_write(path) as fh:
        writer = csv.writer(SimpleNamespace(write=write), lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class Metric(Enum):
    UNITS = "units"
    REVENUE = "revenue"


@dataclass(frozen=True)
class Partition:
    """Maps each article index to a cluster id (dense, 0-based on both sides)."""

    cluster_of: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.cluster_of)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("partition must be a non-empty 1-d label array")
        if labels.dtype.kind not in "iu":
            raise ValueError("cluster ids must be integers")
        labels = labels.astype(np.int64, copy=False)
        object.__setattr__(self, "cluster_of", labels)
        if labels.min() < 0:
            raise ValueError("cluster ids must be non-negative")
        k = int(labels.max()) + 1
        # More ids than labels leave a cluster empty; checked before bincount allocates k.
        if k > labels.size or (np.bincount(labels, minlength=k) == 0).any():
            raise ValueError("cluster ids must be contiguous with no empty cluster")
        # Read once per draw by demand_at and cluster-level assign.
        object.__setattr__(self, "_n_clusters", k)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build a Partition from arbitrary labels, relabeled contiguously.

        New ids follow first appearance by article index, so the result is
        deterministic for a given label vector.
        """
        _, first, inverse = np.unique(np.asarray(labels), return_index=True,
                                      return_inverse=True)
        # np.unique sorts values; rank each value by its first appearance.
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        return cls(rank[inverse])

    @property
    def n(self) -> int:
        return int(self.cluster_of.size)

    @property
    def n_clusters(self) -> int:
        return self._n_clusters

    def sizes(self) -> np.ndarray:
        return np.bincount(self.cluster_of, minlength=self.n_clusters)


@dataclass(frozen=True)
class DemandSystem:
    """Base prices and quantities plus the elasticity matrix; the counterfactual oracle.

    ``own[i]`` is article i's own-price elasticity (strictly negative),
    ``within[c]`` (the JSON's ``within_beta``) the cross-price elasticity
    between any two distinct articles of cluster c of ``partition``, and
    ``background`` the cross-price elasticity between articles of different
    clusters. ``generate_demand_system`` records its ``seed`` and ``config``.
    """

    base_prices: np.ndarray
    base_quantities: np.ndarray
    own: np.ndarray
    within: np.ndarray
    background: float
    partition: Partition
    seed: int | None = None
    config: "GeneratorConfig | None" = None

    def __post_init__(self):
        own = np.asarray(self.own, dtype=float)
        within = np.asarray(self.within, dtype=float)
        object.__setattr__(self, "own", own)
        object.__setattr__(self, "within", within)
        n, k = self.partition.n, self.partition.n_clusters
        if own.shape != (n,):
            raise ValueError(f"own must have shape ({n},)")
        if within.shape != (k,):
            raise ValueError(f"within must have shape ({k},)")
        # -inf passes a sign check, and nan fails every comparison.
        if not (np.isfinite(own) & (own < 0)).all():
            raise ValueError("own-price elasticities (own) must be finite and < 0")
        if not 0 <= self.background < math.inf:
            raise ValueError(f"background elasticity must be finite and >= 0, "
                             f"not {self.background}")
        multi = self.partition.sizes() > 1
        if not (np.isfinite(within) & (within >= 0)).all():
            raise ValueError("within-cluster elasticities (within_beta) must be finite "
                             "and >= 0")
        # Sharp differentiation: within-cluster substitution dominates the
        # background. A zero beta on a multi-article cluster is only
        # meaningful in fully interference-free systems (background == 0).
        if self.background > 0 and (within[multi] < self.background).any():
            raise ValueError("within-cluster elasticity must be >= background")
        p = np.asarray(self.base_prices, dtype=float)
        q = np.asarray(self.base_quantities, dtype=float)
        object.__setattr__(self, "base_prices", p)
        object.__setattr__(self, "base_quantities", q)
        if p.shape != (n,) or q.shape != (n,):
            raise ValueError("base prices/quantities must match article count")
        if not (np.isfinite(p) & (p > 0) & np.isfinite(q) & (q > 0)).all():
            raise ValueError("base prices and quantities (base_prices, base_quantities) "
                             "must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.partition.n

    def dense_matrix(self) -> np.ndarray:
        """Materialize the full n x n elasticity matrix (small n only)."""
        n = self.n
        if n > DENSE_ORACLE_MAX_N:
            raise ValueError(
                f"dense matrix limited to n <= {DENSE_ORACLE_MAX_N}, got n={n}"
            )
        c = self.partition.cluster_of
        same = c[:, None] == c[None, :]
        e = np.where(same, self.within[c][:, None], self.background)
        np.fill_diagonal(e, self.own)
        return e

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "config": asdict(self.config) if self.config is not None else None,
            "own": self.own.tolist(),
            "partition": self.partition.cluster_of.tolist(),
            "within_beta": self.within.tolist(),
            "background": self.background,
            "base_prices": self.base_prices.tolist(),
            "base_quantities": self.base_quantities.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DemandSystem":
        if not isinstance(d, dict):
            raise ValueError("demand system must be a JSON object")
        missing = [key for key in ("partition", "own", "within_beta", "background",
                                   "base_prices", "base_quantities") if key not in d]
        if missing:
            raise ValueError(f"demand system is missing key(s): {', '.join(missing)}")
        background = d["background"]
        if isinstance(background, bool) or not isinstance(background, (int, float)):
            raise ValueError("demand system key 'background' must be a number, "
                             f"not {background!r}")
        config = d.get("config")
        if config is not None and not isinstance(config, dict):
            raise ValueError("demand system key 'config' must be null or an object, "
                             f"not {config!r}")
        unknown = sorted(set(config or ()) - {f.name for f in fields(GeneratorConfig)})
        if unknown:
            raise ValueError("demand system key 'config' has unknown field(s): "
                             f"{', '.join(unknown)}")
        if config:
            config = GeneratorConfig(**config)
            try:
                config.validate()
            except ValueError as exc:
                raise ValueError(f"demand system key 'config': {exc}") from None
        seed = d.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValueError(f"demand system key 'seed' must be an integer or null, "
                             f"not {seed!r}")
        labels = _json_array(d, "partition", np.int64)
        try:
            partition = Partition(labels)
        except ValueError as exc:
            raise ValueError(f"demand system key 'partition': {exc}") from None
        return cls(
            own=_json_array(d, "own", float),
            within=_json_array(d, "within_beta", float),
            background=float(background),
            partition=partition,
            base_prices=_json_array(d, "base_prices", float),
            base_quantities=_json_array(d, "base_quantities", float),
            seed=seed,
            config=config or None,
        )

    def save(self, path) -> None:
        text = json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True) + "\n"
        with atomic_write(path) as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "DemandSystem":
        return cls.from_dict(read_json(path))


def _json_array(d: dict, key: str, dtype) -> np.ndarray:
    """System JSON key ``key`` as a ``dtype`` array: a JSON array of integers
    for an integer ``dtype``, else of numbers (``true`` is neither)."""
    values = d[key]
    kinds, what = ((int,), "integers") if dtype is np.int64 else ((int, float), "numbers")
    if not isinstance(values, list):
        raise ValueError(f"demand system key '{key}' must be an array of {what}, "
                         f"not {values!r}")
    bad = [v for v in values if type(v) not in kinds]
    if bad:
        raise ValueError(f"demand system key '{key}' must hold only {what}, not {bad[0]!r}")
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"demand system key '{key}' holds a number out of range") from None


@dataclass(frozen=True)
class PricePolicy:
    """Uniform price multiplier applied to treated articles (controls keep 1)."""

    treated_multiplier: float = 0.95

    def __post_init__(self):
        if not 0 < self.treated_multiplier < math.inf:
            raise ValueError(f"treated_multiplier must be finite and > 0, "
                             f"not {self.treated_multiplier}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for synthetic demand systems.

    ``within_share`` (phi) sets the total within-cluster substitution mass
    received by an article as a fraction of |own_mean|; ``background_share``
    does the same for the cross-cluster background. Default magnitudes are
    design choices, not measured values.

    Heterogeneity (own elasticity, price, quantity) is drawn independently
    per article, and nothing is drawn per cluster, so outcomes are not
    correlated within a cluster: cluster randomization carries no variance
    penalty against article randomization.
    """

    n: int = 10_000
    cluster_size_min: int = 2
    cluster_size_max: int = 20
    own_mean: float = -2.5
    own_spread: float = 0.5
    within_share: float = 0.3
    background_share: float = 0.05
    price_min: float = 10.0
    price_max: float = 100.0
    quantity_min: float = 10.0
    quantity_max: float = 100.0

    def validate(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            # True is not a number here; an integer may stand for a float.
            if isinstance(value, bool) or not isinstance(value, (kind, int, np.integer)):
                raise ValueError(f"{f.name} must be {kind.__name__}, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, not {value}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.cluster_size_min < 1 or self.cluster_size_max < self.cluster_size_min:
            raise ValueError("cluster sizes must satisfy 1 <= min <= max")
        if self.own_mean + self.own_spread >= 0:
            raise ValueError("own_mean + own_spread must stay negative")
        if self.own_spread < 0:
            raise ValueError("own_spread must be >= 0")
        if not (0 <= self.within_share < 1) or not (0 <= self.background_share < 1):
            raise ValueError("shares must lie in [0, 1)")
        if self.within_share + self.background_share >= 1:
            raise ValueError("within_share + background_share must be < 1")
        if self.price_min <= 0 or self.price_max < self.price_min:
            raise ValueError("price range must satisfy 0 < min <= max")
        if self.quantity_min <= 0 or self.quantity_max < self.quantity_min:
            raise ValueError("quantity range must satisfy 0 < min <= max")


def generate_demand_system(config: GeneratorConfig, seed: int) -> DemandSystem:
    """Draw a demand system deterministically from (config, seed).

    Cluster sizes are uniform integers in [min, max], the last cluster
    truncated to fit n. Per-cluster beta is within_share * |own_mean| /
    (size - 1) so an article's total within-cluster substitution mass is
    size-invariant; singleton clusters get beta = 0. Own elasticities,
    prices and quantities are independent per-article draws, so a balanced
    cluster split and a balanced article split have the same heterogeneity
    spread in expectation, and article splits add interference dispersion.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.n

    try:  # allocated before the loop, so an n that no array can hold fails at once
        labels = np.empty(n, dtype=np.int64)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"n {n}: too many articles for one array ({exc})") from None
    k = total = 0
    while total < n:
        s = min(int(rng.integers(config.cluster_size_min, config.cluster_size_max + 1)), n - total)
        labels[total:total + s] = k
        k, total = k + 1, total + s
    partition = Partition(labels)
    sizes = partition.sizes()

    own = rng.uniform(config.own_mean - config.own_spread,
                      config.own_mean + config.own_spread, n)
    mass = abs(config.own_mean)
    within = np.where(sizes > 1, config.within_share * mass / np.maximum(sizes - 1, 1), 0.0)
    background = config.background_share * mass / n

    prices = rng.uniform(config.price_min, config.price_max, n)
    quantities = rng.uniform(config.quantity_min, config.quantity_max, n)
    try:
        return DemandSystem(prices, quantities, own, within, background, partition,
                            seed=seed, config=config)
    except ValueError as exc:  # the shares' product breaks a rule of DemandSystem
        raise ValueError(f"within_share {config.within_share}, "
                         f"background_share {config.background_share}: {exc}") from None


def _check_multipliers(system: DemandSystem, multipliers) -> np.ndarray:
    mu = np.asarray(multipliers, dtype=float)
    if mu.shape != (system.n,):
        raise ValueError(f"multipliers must have shape ({system.n},)")
    ok = (mu > 0) & (mu < math.inf)
    if not ok.all():
        raise ValueError(f"all price multipliers must be finite and > 0, not {mu[ok.argmin()]}")
    return mu


def demand_at(system: DemandSystem, multipliers) -> np.ndarray:
    """Quantities under a multiplier vector, in O(n) via per-cluster log-sums."""
    mu = _check_multipliers(system, multipliers)
    c = system.partition.cluster_of
    logs = np.log(mu)
    logsum_c = np.bincount(c, weights=logs, minlength=system.partition.n_clusters)[c]
    exponent = (
        system.own * logs
        + system.within[c] * (logsum_c - logs)
        + system.background * (logs.sum() - logsum_c)
    )
    return system.base_quantities * np.exp(exponent)


def dense_oracle(system: DemandSystem, multipliers) -> np.ndarray:
    """Brute-force demand via the materialized elasticity matrix (n <= 2000)."""
    mu = _check_multipliers(system, multipliers)
    e = system.dense_matrix()
    return system.base_quantities * np.exp(e @ np.log(mu))


def metric_values(system: DemandSystem, multipliers, quantities, metric: Metric) -> np.ndarray:
    """Per-article outcome values for realized quantities under ``multipliers``."""
    if metric is Metric.UNITS:
        return np.asarray(quantities, dtype=float)
    return np.asarray(multipliers, dtype=float) * system.base_prices * quantities


def base_metric_values(system: DemandSystem, metric: Metric) -> np.ndarray:
    """Per-article outcome values at base prices and quantities."""
    if metric is Metric.UNITS:
        return system.base_quantities
    return system.base_prices * system.base_quantities


def outcome(system: DemandSystem, multipliers, metric: Metric) -> float:
    """Aggregate Units or Revenue over all articles."""
    q = demand_at(system, multipliers)
    return float(metric_values(system, multipliers, q, metric).sum())


def global_treatment_effect(system: DemandSystem, policy: PricePolicy,
                            metric: Metric) -> float:
    """Relative lift of rolling the policy out to every article; always finite."""
    mu = np.full(system.n, policy.treated_multiplier)
    # The result is checked below, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        gte = outcome(system, mu, metric) / outcome(system, np.ones(system.n), metric) - 1.0
    if not np.isfinite(gte):
        raise ValueError(f"the global treatment effect is not finite ({gte}): the policy "
                         "is out of floating-point range for this system")
    return gte
