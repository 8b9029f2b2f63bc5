"""Browsing sessions, the co-view article graph, and exposure metrics.

A session is a set of distinct viewed articles. The co-view graph connects
two articles with weight equal to the number of sessions that contained both.
Exposure classifies each session by the treatment labels it saw; the share of
sessions seeing both arms is the interference heuristic used to judge a
clustering.

Internally a graph is held as ``src``/``dst``/``w`` edge arrays and a session
list as a CSR view (``indptr``, ``article``). Weights are integer counts, so
every weight sum is exact whatever its order.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .demand import Partition
from .experiment import Assignment

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Session:
    session_id: str
    viewed: frozenset[int]

    def __post_init__(self):
        if not self.viewed:
            raise ValueError("a session must view at least one article")


@dataclass(frozen=True)
class SessionGraph:
    """Weighted undirected co-view graph; keys are (i, j) with i < j, mirrored in src/dst/w."""

    n: int
    edges: dict[tuple[int, int], int]
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ij = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        src, dst = ij[:, 0], ij[:, 1]
        # Integer counts keep an integer dtype, so every sum of them is exact.
        w = np.array(list(self.edges.values()))
        if (src == dst).any():
            raise ValueError("self-loops are not allowed")
        bad = (src < 0) | (src >= dst) | (dst >= self.n)
        if bad.any():
            i, j = ij[bad.argmax()]
            raise ValueError(f"edge ({i},{j}) out of range or unordered")
        if (w < 1).any():
            raise ValueError("edge weights must be >= 1")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "w", w)

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


def generate_sessions(partition: Partition, n_sessions: int, views_min: int,
                      views_max: int, purity: float, seed: int) -> list[Session]:
    """Synthesize sessions with a home cluster and a purity knob.

    Each session picks a home cluster uniformly; each of its k ~
    uniform[views_min, views_max] views stays in the home cluster with
    probability ``purity`` and otherwise lands uniformly on any article.
    Views are deduplicated within the session.
    """
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

    ends = np.cumsum(counts).tolist()
    return [Session(session_id=f"s{i}", viewed=frozenset(views[start:end].tolist()))
            for i, (start, end) in enumerate(zip([0] + ends, ends))]


def read_sessions(path, n_articles: int | None = None) -> list[Session]:
    """Read sessions from a CSV with header ``session_id,article_id``.

    Rows with the same session_id aggregate into one deduplicated session;
    session order follows first appearance. Malformed rows and out-of-range
    article ids raise with the offending line number.
    """
    path = Path(path)
    grouped: dict[str, set[int]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            logger.warning("empty clickstream file %s", path)
            return []
        if [h.strip() for h in header] != ["session_id", "article_id"]:
            raise ValueError(f"{path}: expected header 'session_id,article_id'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row at line {lineno}")
            sid, raw = row
            try:
                article = int(raw)
            except ValueError:
                raise ValueError(
                    f"{path}: non-integer article_id at line {lineno}"
                ) from None
            if article < 0 or (n_articles is not None and article >= n_articles):
                raise ValueError(f"{path}: unknown article id {article} at line {lineno}")
            grouped.setdefault(sid, set()).add(article)
    if not grouped:
        logger.warning("clickstream file %s contains no rows", path)
    return [Session(sid, frozenset(v)) for sid, v in grouped.items()]


def write_sessions(sessions: list[Session], path) -> None:
    """Write sessions in the clickstream CSV format (sorted article ids per session)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["session_id", "article_id"])
        for s in sessions:
            for a in sorted(s.viewed):
                writer.writerow([s.session_id, a])


def _csr(sessions: list[Session]) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, article): session s viewed ``article[indptr[s]:indptr[s + 1]]``."""
    indptr = np.cumsum([0] + [len(s.viewed) for s in sessions])
    article = np.fromiter(itertools.chain.from_iterable(s.viewed for s in sessions),
                          dtype=np.int64, count=int(indptr[-1]))
    return indptr, article


def build_graph(sessions: list[Session], n: int | None = None) -> SessionGraph:
    """Co-view graph: each session adds weight 1 to every pair it viewed."""
    if not sessions:
        raise ValueError("sessions must be non-empty")
    indptr, article = _csr(sessions)
    max_seen = int(article.max())
    if n is None:
        n = max_seen + 1
    elif max_seen >= n:
        raise ValueError("session views exceed the declared article count")
    lengths = np.diff(indptr)
    keys = [np.empty(0, dtype=np.int64)]
    # Sessions of one length expand to their pairs in one block.
    for length in np.unique(lengths[lengths >= 2]):
        a, b = np.triu_indices(length, 1)
        views = article[indptr[:-1][lengths == length, None] + np.arange(length)]
        i, j = views[:, a], views[:, b]
        keys.append((np.minimum(i, j) * n + np.maximum(i, j)).ravel())
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    # Keys share one int object per node; fresh ints per edge end would
    # cost another 64 bytes per edge.
    node = np.arange(n, dtype=object)
    edges = zip(zip(node[pairs // n].tolist(), node[pairs % n].tolist()), counts.tolist())
    return SessionGraph(n=n, edges=dict(edges))


def _covered_csr(sessions: list[Session], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sessions' CSR view, checked to view only articles 0..n-1."""
    if not sessions:
        raise ValueError("sessions must be non-empty")
    indptr, article = _csr(sessions)
    uncovered = (article < 0) | (article >= n)
    if uncovered.any():
        at = int(uncovered.argmax())
        s = sessions[int(np.searchsorted(indptr, at, side="right")) - 1]
        raise ValueError(f"session {s.session_id}: article {article[at]} not covered "
                         "by the assignment")
    return indptr, article


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
    return _exposure(*_covered_csr(sessions, assignment.n), assignment.treated)
