"""Browsing sessions, the co-view article graph, and exposure metrics.

A session is a set of distinct viewed articles. The co-view graph connects
two articles with weight equal to the number of sessions that contained both.
Exposure classifies each session by what it saw of a treated mask, a 1-d bool
array over the articles; the share of sessions seeing both arms is the
interference heuristic used to judge a clustering.

Sessions are held as a ``Clickstream``: one id per session and a CSR view
(``indptr``, ``article``) of what each viewed. ``generate_sessions`` and
``read_sessions`` return one; ``build_graph``, ``exposure_share``,
``write_sessions`` and ``clustering.frontier`` take one, or any iterable of
``Session`` objects, which ``Clickstream.of`` converts. A Clickstream checks
copies of its arrays once, when built, so the writer rejects what every
command rejects. A graph is held as ``src``/``dst``/``w`` edge arrays. Weights
are int64 counts, so every weight sum is exact whatever its order.

``read_sessions`` first tries ``_read_plain``, an array parser for plain
files: ASCII, ``\n`` line ends, no quotes, the exact header and
``<id>,<digits>`` rows. It reads fixed-size blocks cut at a line end, finds
the commas and line ends with numpy, parses the digits column by column and
numbers the session ids with ``np.unique`` over fixed-width byte strings. At
the first block that is not plain it gives up, and ``_read_rows``, the
``csv_records`` row loop, reads the file from the start; so every error,
with its message and line number, comes from the row loop. Both give the
same arrays. ``write_sessions`` writes ``CLICKSTREAM_HEADER`` rows from the
CSR arrays through ``demand.write_csv``.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .demand import Partition, csv_records, write_csv

CLICKSTREAM_HEADER = ["session_id", "article_id"]


@dataclass(frozen=True)
class Session:
    session_id: str
    viewed: frozenset[int]

    def __post_init__(self):
        if not self.viewed:
            raise ValueError("a session must view at least one article")


class _Numbered(Sequence):
    """The ids ``s0``, ``s1``, ... of ``n`` generated sessions, each named when read."""

    def __init__(self, n: int):
        self._range = range(n)

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, i: int | slice) -> str | list[str]:
        return [f"s{k}" for k in self._range[i]] if isinstance(i, slice) else f"s{self._range[i]}"


@dataclass(frozen=True, eq=False)
class Clickstream:
    """Session s is ``ids[s]`` and viewed ``article[indptr[s]:indptr[s + 1]]``, ascending.

    ``indptr`` rises strictly from 0 to ``article.size``, so every session views an article
    (``reduceat`` misreads an empty one). Both arrays are read-only int64 copies. ``len``
    counts the sessions; iterating yields them as ``Session`` objects.
    """

    ids: Sequence[str]
    indptr: np.ndarray
    article: np.ndarray

    def __post_init__(self):
        # Checked once here, on copies; ``of`` passes a Clickstream through, checking the range.
        indptr, article = np.array(self.indptr), np.array(self.article)
        if indptr.ndim != 1 or article.ndim != 1 or indptr.dtype.kind not in "iu":
            raise ValueError("indptr and article must be 1-d arrays, indptr of integers")
        indptr = indptr.astype(np.int64, copy=False)
        if (indptr.size != len(self.ids) + 1 or indptr[0] != 0 or indptr[-1] != article.size
                or (np.diff(indptr) < 1).any()):
            raise ValueError(f"indptr must rise strictly from 0 to {article.size} "
                             f"in {len(self.ids) + 1} offsets")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "article", article)
        if article.dtype.kind not in "iu":  # named by its first view, if it has one
            self._reject(np.ones(article.size, dtype=bool), "article ids must be integers")
            raise ValueError("article ids must be integers")
        self._reject(article < 0, "article id {} is negative")
        self._reject(article >= 2**63, "article id {} is outside int64")
        article = article.astype(np.int64, copy=False)
        object.__setattr__(self, "article", article)
        unordered = np.r_[False, np.diff(article) < 1]
        unordered[indptr[:-1]] = False  # a session's first view follows the session before
        self._reject(unordered, "article {} is not above the view before it")
        indptr.flags.writeable = article.flags.writeable = False

    def _reject(self, bad: np.ndarray, problem: str) -> None:
        if bad.any():
            at = int(bad.argmax())
            s = int(np.searchsorted(self.indptr, at, side="right")) - 1
            raise ValueError(f"session {self.ids[s]}: {problem.format(self.article[at])}")

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __iter__(self) -> Iterator[Session]:
        starts, views = self.indptr.tolist(), self.article.tolist()
        return (Session(sid, frozenset(views[a:b]))
                for sid, a, b in zip(self.ids, starts, starts[1:]))

    @classmethod
    def of(cls, sessions: Clickstream | Iterable[Session], n: int | None = None) -> Clickstream:
        """``sessions`` as a non-empty Clickstream; an iterable of ``Session`` is read once.

        A Clickstream passes through. A session's article ids must be integers in
        0..2**63 - 1; with ``n``, every article must lie in 0..n-1.
        """
        if not isinstance(sessions, Clickstream):
            ids, lengths, views = [], [0], []
            for s in sessions:
                for a in s.viewed:
                    # Converting 1.5 or True to int64 would silently make them articles 1.
                    if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
                        raise ValueError(f"session {s.session_id}: article ids must be integers")
                    # Only what int64 holds converts; ``__post_init__`` checks the rest.
                    if not -2**63 <= a < 2**63:
                        problem = "negative" if a < 0 else "outside int64"
                        raise ValueError(f"session {s.session_id}: article id {a} is {problem}")
                ids.append(s.session_id)
                lengths.append(len(s.viewed))
                views += sorted(s.viewed)
            sessions = cls(ids, np.cumsum(lengths), np.array(views, dtype=np.int64))
        if not sessions:
            raise ValueError("sessions must be non-empty")
        if n is not None:
            uncovered = (sessions.article < 0) | (sessions.article >= n)
            sessions._reject(uncovered, f"article {{}} is not among the {n} articles")
        return sessions


class SessionGraph:
    """Weighted undirected co-view graph: edge e joins ``src[e] < dst[e]`` with weight ``w[e]``.

    ``SessionGraph(n, edges)`` takes a ``{(i, j): w}`` dict of integer counts
    (``int`` or numpy integers, not ``bool``); any graph builds that dict from
    its arrays when ``edges`` is first read.
    """

    def __init__(self, n: int, edges: dict[tuple[int, int], int]):
        ij = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        weights = list(edges.values())
        # Integer counts keep an integer dtype, so every sum of them is exact.
        if not all(isinstance(w, (int, np.integer)) and not isinstance(w, bool)
                   and int(w) < 2**63 for w in weights):
            raise ValueError("edge weights must be integer counts below 2**63")
        self._set(n, ij[:, 0], ij[:, 1], np.array(weights, dtype=np.int64))

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


def generate_sessions(partition: Partition, n_sessions: int, views_min: int,
                      views_max: int, purity: float, seed: int) -> Clickstream:
    """Synthesize sessions ``s0``, ``s1``, ... with a home cluster and a purity knob.

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

    return Clickstream(_Numbered(n_sessions),
                       *_group(np.repeat(np.arange(n_sessions), counts), views, n_sessions, n))


def _group(session, article, n_sessions: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, article) of the distinct (session, article) pairs, articles ascending."""
    # One sort dedups and groups the keys; numpy 2.4's bare np.unique hashes, 30 times slower.
    key = np.sort(session * n + article)
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.searchsorted(key, np.arange(n_sessions + 1) * n), key % n


def read_sessions(path, n_articles: int | None = None) -> Clickstream:
    """Read sessions from a CSV with header ``session_id,article_id``.

    Rows with the same session_id aggregate into one deduplicated session;
    session order follows first appearance. Malformed rows and out-of-range
    article ids raise with the offending line number. An empty or header-only
    file gives an empty Clickstream.
    """
    path = Path(path)
    # Ids must fit in int64 even when no article count is declared.
    limit = 2**63 if n_articles is None else n_articles
    codes, code, article = _read_plain(path, limit) or _read_rows(path, limit)
    code, article = np.frombuffer(code, dtype=np.int64), np.frombuffer(article, dtype=np.int64)
    # A declared space whose (session, article) keys fit in int64 needs one sort, not two.
    if n_articles is not None and max(len(codes), 1) * int(n_articles) < 2**63:
        return Clickstream(list(codes), *_group(code, article, len(codes), n_articles))
    # Ranking the ids first keeps the (session, rank) key far below 2**63.
    ids, rank = np.unique(article, return_inverse=True)
    indptr, rank = _group(code, rank, len(codes), ids.size)
    return Clickstream(list(codes), indptr, ids[rank])


def _read_rows(path: Path, limit: int):
    """(codes, code, article), read record by record with ``csv_records``.

    Row i viewed ``article[i]`` in session ``code[i]``; ``codes`` numbers the
    session ids by first appearance.
    """
    codes: dict[str, int] = {}
    code, article = array("q"), array("q")
    for line, (sid, raw) in csv_records(path, CLICKSTREAM_HEADER):
        try:
            a = int(raw)
        except ValueError:
            raise ValueError(f"{path}: non-integer article_id at line {line}") from None
        if not 0 <= a < limit:
            raise ValueError(f"{path}: unknown article id {a} at line {line}")
        code.append(codes.setdefault(sid, len(codes)))
        article.append(a)
    return codes, code, article


# Bytes read per block by _read_plain; one block's arrays are all it adds to the row loop's memory.
_BLOCK = 1 << 18


def _read_plain(path: Path, limit: int):
    """``_read_rows``' result for a plain file, parsed a block at a time as arrays; None otherwise.

    An empty file has no rows. Any other plain file is ASCII with ``\\n`` line ends
    and no ``"``, carriage return or NUL; its first line is exactly the header, and
    every other line is ``<id>,<1 to 18 digits>`` with each field within
    ``csv.field_size_limit()`` and each article id below ``limit``. The csv module
    reads such a file as the split at the comma, so both readers give the same rows.
    """
    codes: dict[str, int] = {}
    code, article = array("q"), array("q")
    field_limit = csv.field_size_limit()
    header = (",".join(CLICKSTREAM_HEADER) + "\n").encode()
    with path.open("rb") as fh:
        first = fh.readline(len(header))
        if not first:
            return codes, code, article
        if first != header or max(map(len, CLICKSTREAM_HEADER)) > field_limit:
            return None
        rest = b""
        while chunk := fh.read(_BLOCK):
            block = rest + chunk
            if not block.isascii() or b'"' in block or b"\r" in block or b"\0" in block:
                return None
            cut = block.rfind(b"\n") + 1
            rest = block[cut:]
            # A plain line holds at most a field_limit id, a comma and 18 digits.
            if len(rest) > field_limit + 19:
                return None
            if cut and not _parse_block(np.frombuffer(block, np.uint8, cut), limit,
                                        field_limit, codes, code, article):
                return None
    return None if rest else (codes, code, article)


def _parse_block(buf: np.ndarray, limit: int, field_limit: int, codes: dict[str, int],
                 code: array, article: array) -> bool:
    """Append the whole lines ``buf`` of a plain file to ``codes``, ``code`` and ``article``.

    False if a line is not plain.
    """
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    if commas.size != ends.size:
        return False
    # Pair the i-th comma with the i-th line end; once every field between
    # them is 1 to 18 digits, each line holds exactly one comma.
    starts = np.concatenate([[0], ends[:-1] + 1])
    digits, width = ends - commas - 1, commas - starts
    if digits.min() < 1 or digits.max() > min(18, field_limit) or width.max() > field_limit:
        return False
    value = np.zeros(ends.size, dtype=np.int64)
    for k in range(1, int(digits.max()) + 1):
        live = digits >= k
        d = buf[np.where(live, commas + k, 0)] - ord("0")
        if (d[live] > 9).any():
            return False
        value = np.where(live, value * 10 + d, value)
    if int(value.max()) >= limit:
        return False

    # The ids of one width, each with its comma, form a fixed-width S array of
    # at most the block's bytes; np.unique codes them without a Python object per row.
    names, first = [], []
    name_of = np.empty(ends.size, np.int64)
    by_width = np.argsort(width, kind="stable")
    for rows in np.split(by_width, np.flatnonzero(np.diff(width[by_width])) + 1):
        w = int(width[rows[0]]) + 1
        keys = np.lib.stride_tricks.sliding_window_view(buf, w)[starts[rows]]
        unique, at, inverse = np.unique(keys.view(f"S{w}").ravel(),
                                        return_index=True, return_inverse=True)
        name_of[rows] = len(names) + inverse
        # No id holds a comma, so one split recovers the ids.
        names += unique.tobytes().decode("ascii").split(",")[:-1]
        first.append(rows[at])
    # Numbering the block's ids in order of first appearance extends ``codes``
    # as the row loop would.
    order = np.argsort(np.concatenate(first))
    number = np.empty(len(names), dtype=np.int64)
    number[order] = [codes.setdefault(names[i], len(codes)) for i in order.tolist()]
    code.frombytes(number[name_of].view(np.uint8))
    article.frombytes(value.view(np.uint8))
    return True


def write_sessions(sessions: Clickstream | Iterable[Session], path) -> None:
    """Write sessions as clickstream CSV, one row per view; ``Clickstream.of`` checks them."""
    sessions = Clickstream.of(sessions)
    # An id may be any object the csv module can write, so it is repeated, not put in an array.
    ids = chain.from_iterable(map(repeat, sessions.ids, np.diff(sessions.indptr).tolist()))
    write_csv(path, CLICKSTREAM_HEADER, zip(ids, sessions.article.tolist()))


def build_graph(sessions: Clickstream | Iterable[Session],
                n: int | None = None) -> SessionGraph:
    """Co-view graph: each session adds weight 1 to every pair it viewed."""
    sessions = Clickstream.of(sessions, n)
    indptr, article = sessions.indptr, sessions.article
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


def exposure_share(sessions: Clickstream | Iterable[Session],
                   treated: np.ndarray) -> ExposureReport:
    """Classify each session by the labels of the 1-d bool mask ``treated`` it saw."""
    treated = np.asarray(treated)
    if treated.ndim != 1 or treated.dtype != bool:
        raise ValueError("the treated mask must be a 1-d bool array")
    sessions = Clickstream.of(sessions, treated.size)
    indptr = sessions.indptr
    seen = treated[sessions.article]
    any_treated = np.logical_or.reduceat(seen, indptr[:-1])
    all_treated = np.logical_and.reduceat(seen, indptr[:-1])
    count = len(sessions)
    both = int((any_treated & ~all_treated).sum())
    t_only = int(all_treated.sum())
    c_only = count - both - t_only
    return ExposureReport(
        share_both=both / count,
        share_treated_only=t_only / count,
        share_control_only=c_only / count,
        session_count=count,
    )

