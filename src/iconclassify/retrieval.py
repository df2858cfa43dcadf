"""Keyword (BM25), vector (cosine), and hybrid retrieval over taxonomy
documents, plus the nearest-neighbour voting baseline for image vectors.

Document ids are Iconclass notations; every hit carries the parsed code.
All scans are exhaustive and rule-based, so results are reproducible.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
from collections import Counter
from concurrent import futures
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    EmptyReferenceSetError,
    MalformedCodeError,
    MalformedLineError,
    MissingIndexError,
    NoCandidatesError,
    UnknownDocError,
    ZeroVectorError,
)
from .taxonomy import IconclassCode, iter_jsonl, parse_code

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_ALPHA = 0.75
DEFAULT_POOL = 100
DEFAULT_VOTE_K = 10
# matrix entries per scan block: about 0.3 ms of dots, 5x the ~65 us a pool hand-off takes (2-core x86, numpy 2.4)
_MIN_BLOCK_VALUES = 1 << 19
# blocks per scan at most: two paid off on 2 cores, and more is unmeasured
_MAX_BLOCKS = 2

# letters and digits only: \w minus the underscore, Unicode-aware
_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming, no stop words."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class RankedHit:
    code: IconclassCode
    score: float
    rank: int


def _hits(ranked: Iterable[tuple[str, float]]) -> list[RankedHit]:
    """Hits from (doc id, score) pairs that are already in rank order."""
    return [RankedHit(code=parse_code(doc_id), score=s, rank=i + 1) for i, (doc_id, s) in enumerate(ranked)]


@dataclass(frozen=True)
class _RowSpace:
    """The postings as arrays. Row i is the i-th doc id in sorted order, so a
    row's number is its rank among the ids and breaks score ties by doc id."""

    ids: list[str]
    spans: dict[str, tuple[int, int]]  # term -> its slice of rows and tfs
    rows: np.ndarray  # int32
    tfs: np.ndarray  # float64
    lengths: np.ndarray  # float64, per row


@dataclass
class KeywordIndex:
    postings: dict[str, list[tuple[str, int]]]
    doc_lengths: dict[str, int]
    doc_count: int = field(init=False)
    avg_doc_length: float = field(init=False)

    def __post_init__(self):
        if not self.doc_lengths:
            raise EmptyCorpusError("no documents to index")
        self.doc_count = len(self.doc_lengths)
        # a sum of ints is exact in any order, so a loaded index gets the built mean bit for bit
        self.avg_doc_length = sum(self.doc_lengths.values()) / self.doc_count

    @functools.cached_property
    def _row_space(self) -> _RowSpace:
        """Built on the first search, streamed from the postings: no Python
        list of all postings is held. Two threads may both build it; they
        build equal values."""
        ids = sorted(self.doc_lengths)
        row_of = {doc_id: i for i, doc_id in enumerate(ids)}
        spans: dict[str, tuple[int, int]] = {}
        end = 0
        for term, plist in self.postings.items():
            spans[term] = (end, end + len(plist))
            end += len(plist)
        plists = self.postings.values()
        return _RowSpace(
            ids=ids,
            spans=spans,
            rows=np.fromiter((row_of[d] for plist in plists for d, _ in plist), dtype=np.int32, count=end),
            tfs=np.fromiter((tf for plist in plists for _, tf in plist), dtype=np.float64, count=end),
            lengths=np.fromiter(map(self.doc_lengths.__getitem__, ids), dtype=np.float64, count=len(ids)),
        )


def build_keyword_index(docs: Iterable[tuple[str, str]]) -> KeywordIndex:
    """Build an inverted index with term frequencies and document lengths."""
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_lengths: dict[str, int] = {}
    for doc_id, text in docs:
        if doc_id in doc_lengths:
            raise DuplicateDocIdError(f"duplicate doc id {doc_id!r}")
        terms = tokenize(text)
        doc_lengths[doc_id] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((doc_id, tf))
    return KeywordIndex(postings, doc_lengths)


def _idf(n_docs: int, df: int) -> float:
    return math.log(1 + (n_docs - df + 0.5) / (df + 0.5))


def _term_score(idf: float, tf: int | np.ndarray, doc_len: int | np.ndarray, avg_len: float) -> float | np.ndarray:
    """One term's BM25 share, for one document or, elementwise, for arrays of them."""
    denom = tf + DEFAULT_K1 * (1 - DEFAULT_B + DEFAULT_B * doc_len / avg_len)
    return idf * (tf * (DEFAULT_K1 + 1)) / denom


def bm25_score(index: KeywordIndex, query_terms: Sequence[str], doc_id: str) -> float:
    """BM25 score of one document for the given terms.

    Terms absent from the document contribute 0. Raises UnknownDocError
    for ids outside the index.
    """
    if doc_id not in index.doc_lengths:
        raise UnknownDocError(f"unknown doc id {doc_id!r}")
    doc_len = index.doc_lengths[doc_id]
    score = 0.0
    for term in query_terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        tf = 0
        for pid, ptf in plist:
            if pid == doc_id:
                tf = ptf
                break
        if tf == 0:
            continue
        idf = _idf(index.doc_count, len(plist))
        score += _term_score(idf, tf, doc_len, index.avg_doc_length)
    return score


def _keyword_top(index: KeywordIndex, query: str, k: int) -> list[tuple[str, float]]:
    """(doc id, score) of the top k by BM25. Each query term, repeats
    included, adds `_term_score` of its whole posting slice to the scores
    in one array op. numpy's elementwise ops round as Python's do and the
    terms add up in the same order, so each score equals `bm25_score` bit for bit."""
    space = index._row_space
    scores = np.zeros(len(space.ids))
    for term in tokenize(query):
        if term not in space.spans:
            continue
        lo, hi = space.spans[term]
        rows = space.rows[lo:hi]
        idf = _idf(index.doc_count, hi - lo)
        scores[rows] += _term_score(idf, space.tfs[lo:hi], space.lengths[rows], index.avg_doc_length)
    hit = np.flatnonzero(scores > 0.0)
    return [(space.ids[row], -cost) for cost, row in _top(hit, -scores[hit], k)]


def keyword_search(index: KeywordIndex, query: str, k: int) -> list[RankedHit]:
    """Top-k documents by BM25 score, ties broken by ascending doc id.

    Documents scoring 0 (no query term present) are excluded entirely.
    """
    return _hits(_keyword_top(index, query, k))


@dataclass
class VectorIndex:
    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def number_list(value) -> np.ndarray:
    """A JSON array of finite numbers as a 1-d float64 array: the one reader
    of a vector from outside the program. Anything else, strings, booleans,
    NaN and Infinity included, raises TypeError: float() alone reads "1.5"
    and true as numbers, and json reads NaN, Infinity and 1e999 as floats."""
    try:
        if isinstance(value, list) and set(map(type, value)) <= {int, float}:
            vec = np.array(value, dtype=np.float64)
            if np.isfinite(vec).all():
                return vec
            raise TypeError("expected finite numbers, not NaN or Infinity")
    except OverflowError:  # an integer beyond the float range
        pass
    raise TypeError("expected a list of numbers")


def build_vector_index(rows: Iterable[tuple[str, Sequence[float]]]) -> VectorIndex:
    """Stack vectors into a matrix, precomputing per-row norms.

    Rows are checked in arrival order, and the first that repeats an id,
    is not 1-d or has another dim than the first row is the one named.
    Zero vectors are rejected too: a zero row has no direction, so cosine
    queries would always fail.
    """
    ids: list[str] = []
    arrays: list[np.ndarray] = []
    seen: set[str] = set()
    for doc_id, vec in rows:
        if doc_id in seen:
            raise DuplicateDocIdError(f"duplicate doc id {doc_id!r}")
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1:
            raise DimMismatchError(f"{doc_id!r}: vector must be one-dimensional")
        if arrays and arr.shape[0] != arrays[0].shape[0]:
            raise DimMismatchError(f"{doc_id!r}: dim {arr.shape[0]} != index dim {arrays[0].shape[0]}")
        seen.add(doc_id)
        ids.append(doc_id)
        arrays.append(arr)
    if not ids:
        raise EmptyCorpusError("no vectors to index")
    matrix = np.stack(arrays)
    # each entry equals np.linalg.norm of its row: the same dot, then sqrt
    norms = np.sqrt(np.vecdot(matrix, matrix))
    bad = np.flatnonzero(~((norms > 0.0) & (norms < math.inf)))
    if bad.size:
        raise ZeroVectorError(f"{ids[bad[0]]!r}: zero or non-finite vector cannot be indexed")
    return VectorIndex(ids=ids, matrix=matrix, norms=norms)


def cosine_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """1 - cos(angle between u and v), in [0, 2]."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatchError(f"dims {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine distance undefined for zero vectors")
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _distances(index: VectorIndex, query: Sequence[float]) -> np.ndarray:
    """cosine_distance(row, query) for every row, bit for bit: np.vecdot runs
    each row through np.dot's kernel, where M @ q would sum in another order."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise DimMismatchError(f"query dim {q.shape} != index dim {index.dim}")
    qnorm = float(np.linalg.norm(q))
    if not 0.0 < qnorm < math.inf:
        raise ZeroVectorError("cannot search with a zero or non-finite query vector")
    return 1.0 - _row_dots(index.matrix, q) / (index.norms * qnorm)


def _cores() -> int:
    """The cores this process may run on; macOS has no sched_getaffinity."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache  # made by the first blocked scan, so importing starts no thread
def _scan_pool() -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(max(_cores() - 1, 1), thread_name_prefix="iconclassify-scan")


_row_threads: list[None] = []  # one entry per thread of the row pools now running; extend and pop are atomic

# a forked child has none of the parent's threads, in the scan pool or in a row pool
os.register_at_fork(after_in_child=_scan_pool.cache_clear)
os.register_at_fork(after_in_child=_row_threads.clear)


@contextlib.contextmanager
def row_threads(n: int) -> Iterator[None]:
    """Declare that n threads may scan at once while the block runs. Each
    scan then takes only its share of the cores: row threads that already
    keep every core busy would only wait on hand-offs."""
    _row_threads.extend([None] * n)
    try:
        yield
    finally:
        for _ in range(n):
            _row_threads.pop()


def _row_dots(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.vecdot(matrix, q) in contiguous row blocks run at once, one per core
    left to this scan: np.vecdot releases the GIL, and this thread runs the
    first block. A block is a view, so each row's dot is the same kernel call
    on the same bytes for any block count. Pool tasks submit nothing, so row
    threads cannot deadlock it."""
    share = _cores() // max(len(_row_threads), 1)
    blocks = max(1, min(_MAX_BLOCKS, share, matrix.size // _MIN_BLOCK_VALUES))
    out = np.empty(len(matrix))
    edges = [len(matrix) * i // blocks for i in range(blocks + 1)]
    jobs = [_scan_pool().submit(np.vecdot, matrix[lo:hi], q, out=out[lo:hi]) for lo, hi in zip(edges[1:], edges[2:])]
    np.vecdot(matrix[: edges[1]], q, out=out[: edges[1]])
    for job in jobs:
        job.result()
    return out


def _top(keys: Sequence, cost: np.ndarray, k: int) -> list[tuple[float, object]]:
    """The k (cost, key) pairs of smallest cost, ties broken by key, in that
    order. np.partition finds the k-th cost; only the rows within it are
    sorted, every row tied with it included, so that the key decides the cut."""
    _require_k(k)
    if not cost.size:
        return []
    kth = np.partition(cost, min(k, cost.size) - 1)[min(k, cost.size) - 1]
    rows = np.flatnonzero(cost <= kth).tolist()
    return sorted(zip(cost[rows].tolist(), [keys[i] for i in rows]))[:k]


def _vector_top(index: VectorIndex, query: Sequence[float], k: int) -> list[tuple[str, float]]:
    """(doc id, similarity) of the k rows nearest by cosine distance."""
    return [(doc_id, 1.0 - d) for d, doc_id in _top(index.ids, _distances(index, query), k)]


def vector_search(index: VectorIndex, query: Sequence[float], k: int) -> list[RankedHit]:
    """Exhaustive scan: top-k rows by ascending cosine distance.

    Hit scores are stored as similarity (1 - distance); ties break by
    ascending doc id.
    """
    return _hits(_vector_top(index, query, k))


def _minmax(values: list[float]) -> np.ndarray:
    # numpy's elementwise - and / round as Python's float ops do
    v = np.array(values)
    lo, hi = v.min(), v.max()
    if hi > lo:
        return (v - lo) / (hi - lo)
    # degenerate pool: every doc tied; positive scores normalize to 1
    return (v > 0).astype(np.float64)


def hybrid_search(
    kw_index: KeywordIndex,
    vec_index: VectorIndex,
    query_text: str,
    query_vector: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
    k: int = 10,
    pool: int = DEFAULT_POOL,
) -> list[RankedHit]:
    """Fuse keyword and vector rankings by min-max normalized scores.

    The top `pool` candidates of each method are unioned; a doc absent
    from one method's list gets raw score 0 there. fused = alpha * vector
    + (1 - alpha) * keyword, so alpha=1 is pure vector and alpha=0 pure
    keyword over the candidate pool.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    _require_k(k)
    kw_raw = dict(_keyword_top(kw_index, query_text, pool))
    vec_raw = dict(_vector_top(vec_index, query_vector, pool))
    union = sorted(set(kw_raw) | set(vec_raw))
    vec_norm = _minmax([vec_raw.get(doc_id, 0.0) for doc_id in union])
    kw_norm = _minmax([kw_raw.get(doc_id, 0.0) for doc_id in union])
    fused = alpha * vec_norm + (1.0 - alpha) * kw_norm
    return _hits((doc_id, -cost) for cost, doc_id in _top(union, -fused, k))


class ImageReferenceSet:
    """Reference image vectors with their attached Iconclass labels: a
    VectorIndex whose row i carries labels[i]."""

    def __init__(self, rows: Sequence[tuple[Sequence[float], Sequence[IconclassCode]]]):
        if not rows:
            raise EmptyReferenceSetError("reference set is empty")
        self.index = build_vector_index((f"reference {i}", vec) for i, (vec, _) in enumerate(rows))
        self.labels: list[list[IconclassCode]] = [list(codes) for _, codes in rows]

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "ImageReferenceSet":
        """Load records of the form {"vector": [...], "codes": ["73D231", ...]}."""
        rows = []
        for line_no, obj in iter_jsonl(path):
            try:
                vec = number_list(obj["vector"])
                if not isinstance(obj["codes"], list):  # a string would be read as one code per character
                    raise TypeError("codes must be a list")
                codes = [parse_code(c) for c in obj["codes"]]
            except (KeyError, TypeError, ValueError, AttributeError, MalformedCodeError) as exc:
                raise MalformedLineError(line_no, f"{path}: bad reference record: {exc!r}") from exc
            if not codes:
                raise MalformedLineError(line_no, f"{path}: reference record has no codes")
            # the checks the constructor makes too, here so that the error names the line
            if rows and vec.size != rows[0][0].size:
                raise MalformedLineError(line_no, f"{path}: dim {vec.size} != reference set dim {rows[0][0].size}")
            if not 0.0 < np.vecdot(vec, vec) < math.inf:
                raise MalformedLineError(line_no, f"{path}: zero or non-finite vector cannot be indexed")
            rows.append((vec, codes))
        return cls(rows)


@dataclass(frozen=True)
class VoteEntry:
    code: IconclassCode
    votes: int
    best_rank: int


def image_vote_classify(
    query: Sequence[float], refs: ImageReferenceSet, k: int = DEFAULT_VOTE_K
) -> tuple[IconclassCode, list[VoteEntry]]:
    """Classify by voting among the k nearest reference images.

    Each neighbour contributes one vote per distinct attached code. The
    winner has the most votes; ties go to the code whose best-ranked
    supporting neighbour is nearest, then to the lexicographically
    smallest notation. Returns the winner and the full vote table.
    """
    neighbors = _top(range(len(refs)), _distances(refs.index, query), k)

    votes: Counter[str] = Counter()
    best_rank: dict[str, int] = {}
    by_raw: dict[str, IconclassCode] = {}
    for rank, (_, row_idx) in enumerate(neighbors, start=1):
        for raw, code in {code.raw: code for code in refs.labels[row_idx]}.items():
            votes[raw] += 1
            by_raw.setdefault(raw, code)
            best_rank.setdefault(raw, rank)  # neighbours come nearest first
    if not votes:
        raise NoCandidatesError(f"none of the {len(neighbors)} nearest references carries a code")
    order = sorted(votes, key=lambda raw: (-votes[raw], best_rank[raw], raw))
    table = [VoteEntry(code=by_raw[raw], votes=votes[raw], best_rank=best_rank[raw]) for raw in order]
    return by_raw[order[0]], table


def save_index(
    dir_path: Union[str, Path],
    kw_index: KeywordIndex,
    vec_index: VectorIndex,
    config: Optional[dict] = None,
) -> None:
    """Persist both indices to a directory.

    Layout: keyword.json (postings and doc lengths), vectors.jsonl (one id +
    vector record per doc, floats as decimal text that round-trips exactly),
    and last meta.json (params, counts, creation info): it marks a finished save.
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    # json encodes each (doc_id, tf) tuple as an array
    keyword = {"postings": kw_index.postings, "doc_lengths": kw_index.doc_lengths}
    (out / "keyword.json").write_text(
        json.dumps(keyword, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(out / "vectors.jsonl", "w", encoding="utf-8") as fh:
        for i, doc_id in enumerate(vec_index.ids):
            rec = {"id": doc_id, "vector": vec_index.matrix[i].tolist()}  # one row at a time keeps RSS flat
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    meta = {
        "format": 1,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "keyword": {
            "k1": DEFAULT_K1,
            "b": DEFAULT_B,
            "doc_count": kw_index.doc_count,
            "avg_doc_length": kw_index.avg_doc_length,
        },
        "vector": {"dim": vec_index.dim, "doc_count": len(vec_index.ids)},
    }
    if config:
        meta["config"] = config
    (out / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_index(dir_path: Union[str, Path]) -> tuple[KeywordIndex, VectorIndex, dict]:
    """Load save_index's files, checked against meta.json; queries reproduce the originals exactly."""
    root = Path(dir_path)
    for p in (root / "meta.json", root / "keyword.json", root / "vectors.jsonl"):
        if not p.is_file():
            raise MissingIndexError(f"missing index file {p}")
    try:
        meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
        kw_meta, vec_meta = meta["keyword"], meta["vector"]
        if not isinstance(meta.get("config", {}), dict):  # classify reads its fields by name
            raise TypeError("config must be an object")
        # scores always use the constants, so an index recorded with others would rank silently wrong
        if (kw_meta["k1"], kw_meta["b"]) != (DEFAULT_K1, DEFAULT_B):
            raise MissingIndexError(f"{root}: index was built with BM25 k1={kw_meta['k1']}, b={kw_meta['b']}, "
                                    f"not {DEFAULT_K1}, {DEFAULT_B}; rebuild it with `index build`")
        recorded = (kw_meta["doc_count"], kw_meta["avg_doc_length"], vec_meta["doc_count"], vec_meta["dim"])
        kw_data = json.loads((root / "keyword.json").read_text(encoding="utf-8"))
        kw_index = KeywordIndex(
            postings={t: [(d, int(tf)) for d, tf in plist] for t, plist in kw_data["postings"].items()},
            doc_lengths={d: int(n) for d, n in kw_data["doc_lengths"].items()},
        )
        # a generator: each row's Python floats are freed once the row is converted
        vec_index = build_vector_index((obj["id"], obj["vector"]) for _, obj in iter_jsonl(root / "vectors.jsonl"))
    except MalformedLineError as exc:
        raise MissingIndexError(f"{exc}; rebuild the index with `index build`") from exc
    except (ValueError, KeyError, TypeError, EmptyCorpusError) as exc:
        raise MissingIndexError(f"{root}: unreadable index file: {exc!r}") from exc
    # a save that dies part way leaves files that disagree with meta.json or with each other
    found = (kw_index.doc_count, kw_index.avg_doc_length, len(vec_index.ids), vec_index.dim)
    same_ids = set(vec_index.ids) == kw_index.doc_lengths.keys()
    if found != recorded or not same_ids:
        raise MissingIndexError(f"{root}: incomplete index: meta.json records (docs, mean length, vectors, dim) "
                                f"{recorded}, but its files hold {found}{'' if same_ids else ' under other ids'}; "
                                "rebuild it with `index build`")
    return kw_index, vec_index, meta
