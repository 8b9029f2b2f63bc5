"""Browsing sessions, the co-view article graph, and exposure metrics.

A session is a set of distinct viewed articles. The co-view graph connects
two articles with weight equal to the number of sessions that contained both.
Exposure classifies each session by the treatment labels it saw; the share of
sessions seeing both arms is the interference heuristic used to judge a
clustering.

Internally a graph is held as ``src``/``dst``/``w`` edge arrays and a session
list as a CSR view (``indptr``, ``article``). Weights are integer counts, so
every weight sum is exact whatever its order. The CLI reads a clickstream
CSV with ``_read_csr``, or synthesizes sessions with ``_generate``, straight
into the CSR view and never materializes ``Session`` objects.
``generate_sessions``, ``read_sessions``, ``build_graph`` and
``exposure_share`` are adapters over the array cores for library callers;
``_csr`` is the one converter from a ``Session`` list to the CSR view.
"""

from __future__ import annotations

import csv
import functools
import itertools
import logging
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demand import Partition, atomic_write, csv_records
from .experiment import Assignment

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Session:
    session_id: str
    viewed: frozenset[int]

    def __post_init__(self):
        if not self.viewed:
            raise ValueError("a session must view at least one article")


class SessionGraph:
    """Weighted undirected co-view graph: edge e joins ``src[e] < dst[e]`` with weight ``w[e]``.

    ``SessionGraph(n, edges)`` takes a ``{(i, j): w}`` dict; any graph builds
    that dict from its arrays when ``edges`` is first read.
    """

    def __init__(self, n: int, edges: dict[tuple[int, int], int]):
        ij = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        # Integer counts keep an integer dtype, so every sum of them is exact.
        self._set(n, ij[:, 0], ij[:, 1], np.array(list(edges.values())))

    @classmethod
    def _from_arrays(cls, n, src, dst, w) -> SessionGraph:
        graph = cls.__new__(cls)
        graph._set(n, src, dst, w)
        return graph

    def _set(self, n, src, dst, w) -> None:
        if (src == dst).any():
            raise ValueError("self-loops are not allowed")
        bad = (src < 0) | (src >= dst) | (dst >= n)
        if bad.any():
            raise ValueError(f"edge ({src[bad.argmax()]},{dst[bad.argmax()]}) "
                             "out of range or unordered")
        if (w < 1).any():
            raise ValueError("edge weights must be >= 1")
        self.n, self.src, self.dst, self.w = n, src, dst, w

    @functools.cached_property
    def edges(self) -> dict[tuple[int, int], int]:
        # Keys share one int object per node; fresh ints per edge end would
        # cost another 64 bytes per edge.
        node = np.arange(self.n, dtype=object)
        return dict(zip(zip(node[self.src].tolist(), node[self.dst].tolist()),
                        self.w.tolist()))

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    def strengths(self) -> np.ndarray:
        """Weighted degree per node."""
        return (np.bincount(self.src, self.w, minlength=self.n)
                + np.bincount(self.dst, self.w, minlength=self.n))


@dataclass(frozen=True)
class ExposureReport:
    share_both: float
    share_treated_only: float
    share_control_only: float
    session_count: int


def _generate(partition: Partition, n_sessions: int, views_min: int, views_max: int,
              purity: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, article) of ``generate_sessions``' sessions, articles ascending per session."""
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    if views_min < 1 or views_max < views_min:
        raise ValueError("view bounds must satisfy 1 <= min <= max")
    if not 0 <= purity <= 1:
        raise ValueError("purity must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    n = partition.n
    k = partition.n_clusters
    members = np.argsort(partition.cluster_of, kind="stable")
    sizes = partition.sizes()
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    counts = rng.integers(views_min, views_max + 1, n_sessions)
    total = int(counts.sum())
    home = np.repeat(rng.integers(0, k, n_sessions), counts)
    stay = rng.random(total) < purity
    in_cluster = offsets[home] + (rng.random(total) * sizes[home]).astype(np.int64)
    anywhere = rng.integers(0, n, total)
    views = np.where(stay, members[in_cluster], anywhere)

    return _group(np.repeat(np.arange(n_sessions), counts), views, n_sessions, n)


def _group(session, article, n_sessions: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, article) of the distinct (session, article) pairs, articles ascending."""
    # One sort dedups and groups the keys; numpy 2.4's bare np.unique hashes, 30 times slower.
    key = np.sort(session * n + article)
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.searchsorted(key, np.arange(n_sessions + 1) * n), key % n


def generate_sessions(partition: Partition, n_sessions: int, views_min: int,
                      views_max: int, purity: float, seed: int) -> list[Session]:
    """Synthesize sessions ``s0``, ``s1``, ... with a home cluster and a purity knob.

    Each session picks a home cluster uniformly; each of its k ~
    uniform[views_min, views_max] views stays in the home cluster with
    probability ``purity`` and otherwise lands uniformly on any article.
    Views are deduplicated within the session.
    """
    indptr, article = _generate(partition, n_sessions, views_min, views_max, purity, seed)
    return _sessions([f"s{i}" for i in range(n_sessions)], indptr, article)


def _read_csr(path, n_articles: int | None = None
              ) -> tuple[list[str] | None, np.ndarray, np.ndarray]:
    """(session_ids, indptr, article) of the rows ``read_sessions`` reads.

    Session s viewed ``article[indptr[s]:indptr[s + 1]]``, in ascending order;
    session_ids is None for an empty file.
    """
    path = Path(path)
    codes: dict[str, int] = {}
    code, article = array("q"), array("q")
    # Ids must fit in int64 even when no article count is declared.
    limit = 2**63 if n_articles is None else n_articles
    empty = path.stat().st_size == 0
    for line, (sid, raw) in () if empty else csv_records(path, ["session_id", "article_id"]):
        try:
            a = int(raw)
        except ValueError:
            raise ValueError(f"{path}: non-integer article_id at line {line}") from None
        if not 0 <= a < limit:
            raise ValueError(f"{path}: unknown article id {a} at line {line}")
        code.append(codes.setdefault(sid, len(codes)))
        article.append(a)
    # Ranking the ids first keeps the (session, rank) key far below 2**63.
    ids, rank = np.unique(np.frombuffer(article, dtype=np.int64), return_inverse=True)
    indptr, rank = _group(np.frombuffer(code, dtype=np.int64), rank, len(codes), ids.size)
    return (None if empty else list(codes)), indptr, ids[rank]


def read_sessions(path, n_articles: int | None = None) -> list[Session]:
    """Read sessions from a CSV with header ``session_id,article_id``.

    Rows with the same session_id aggregate into one deduplicated session;
    session order follows first appearance. Malformed rows and out-of-range
    article ids raise with the offending line number.
    """
    ids, indptr, article = _read_csr(path, n_articles)
    if not ids:
        logger.warning("empty clickstream file %s" if ids is None
                       else "clickstream file %s contains no rows", path)
    return _sessions(ids or [], indptr, article)


def _sessions(ids: list[str], indptr: np.ndarray, article: np.ndarray) -> list[Session]:
    """One ``Session`` per id from the CSR view (``indptr``, ``article``)."""
    starts, views = indptr.tolist(), article.tolist()
    return [Session(sid, frozenset(views[a:b]))
            for sid, a, b in zip(ids, starts, starts[1:])]


def write_sessions(sessions: list[Session], path) -> None:
    """Write sessions in the clickstream CSV format (sorted article ids per session)."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["session_id", "article_id"])
        for s in sessions:
            for a in sorted(s.viewed):
                writer.writerow([s.session_id, a])


def _csr(sessions: list[Session], n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, article): session s viewed ``article[indptr[s]:indptr[s + 1]]``.

    With ``n``, every article must lie in 0..n-1.
    """
    if not sessions:
        raise ValueError("sessions must be non-empty")
    indptr = np.cumsum([0] + [len(s.viewed) for s in sessions])
    article = np.fromiter(itertools.chain.from_iterable(s.viewed for s in sessions),
                          dtype=np.int64, count=int(indptr[-1]))
    if n is not None:
        uncovered = (article < 0) | (article >= n)
        if uncovered.any():
            at = int(uncovered.argmax())
            s = sessions[int(np.searchsorted(indptr, at, side="right")) - 1]
            raise ValueError(f"session {s.session_id}: article {article[at]} is not "
                             f"among the {n} articles")
    return indptr, article


def _graph(indptr: np.ndarray, article: np.ndarray, n: int | None = None) -> SessionGraph:
    """Co-view graph of the CSR sessions (``indptr``, ``article``); callers check their ids."""
    max_seen = int(article.max())
    if n is None:
        n = max_seen + 1
    # Pair keys min * n + max stay below n**2, which must fit in int64.
    if n > math.isqrt(2**63 - 1):
        raise ValueError(f"article id {max_seen} is too large for the co-view graph: "
                         f"ids must be below {math.isqrt(2**63 - 1)}")
    lengths = np.diff(indptr)
    keys = [np.empty(0, dtype=np.int64)]
    # Sessions of one length expand to their pairs in one block.
    for length in np.unique(lengths[lengths >= 2]):
        a, b = np.triu_indices(length, 1)
        views = article[indptr[:-1][lengths == length, None] + np.arange(length)]
        i, j = views[:, a], views[:, b]
        keys.append((np.minimum(i, j) * n + np.maximum(i, j)).ravel())
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    return SessionGraph._from_arrays(n, pairs // n, pairs % n, counts)


def build_graph(sessions: list[Session], n: int | None = None) -> SessionGraph:
    """Co-view graph: each session adds weight 1 to every pair it viewed."""
    return _graph(*_csr(sessions, n), n)


def _exposure(indptr: np.ndarray, article: np.ndarray, treated: np.ndarray) -> ExposureReport:
    """Exposure of the CSR sessions (``indptr``, ``article``) under per-article labels."""
    seen = treated[article]
    any_treated = np.logical_or.reduceat(seen, indptr[:-1])
    all_treated = np.logical_and.reduceat(seen, indptr[:-1])
    count = indptr.size - 1
    both = int((any_treated & ~all_treated).sum())
    t_only = int(all_treated.sum())
    c_only = count - both - t_only
    return ExposureReport(
        share_both=both / count,
        share_treated_only=t_only / count,
        share_control_only=c_only / count,
        session_count=count,
    )


def exposure_share(sessions: list[Session], assignment: Assignment) -> ExposureReport:
    """Classify each session by the set of treatment labels it saw."""
    return _exposure(*_csr(sessions, assignment.n), assignment.treated)
