"""Keyword (BM25), vector (cosine), and hybrid retrieval over taxonomy
documents, plus the nearest-neighbour voting baseline for image vectors.

Document ids are Iconclass notations; every hit carries the parsed code.
All scans are exhaustive and rule-based, so results are reproducible.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    EmptyReferenceSetError,
    MalformedCodeError,
    MalformedLineError,
    MissingIndexError,
    UnknownDocError,
    ZeroVectorError,
)
from .taxonomy import IconclassCode, iter_jsonl, parse_code

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_ALPHA = 0.75
DEFAULT_POOL = 100
DEFAULT_VOTE_K = 10

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


@dataclass
class KeywordIndex:
    postings: dict[str, list[tuple[str, int]]]
    doc_lengths: dict[str, int]
    avg_doc_length: float
    doc_count: int
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B


def build_keyword_index(
    docs: Iterable[tuple[str, str]], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> KeywordIndex:
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
    if not doc_lengths:
        raise EmptyCorpusError("no documents to index")
    avg = sum(doc_lengths.values()) / len(doc_lengths)
    return KeywordIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=avg,
        doc_count=len(doc_lengths),
        k1=k1,
        b=b,
    )


def _idf(n_docs: int, df: int) -> float:
    return math.log(1 + (n_docs - df + 0.5) / (df + 0.5))


def _term_score(idf: float, tf: int, doc_len: int, avg_len: float, k1: float, b: float) -> float:
    denom = tf + k1 * (1 - b + b * doc_len / avg_len)
    return idf * (tf * (k1 + 1)) / denom


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
        score += _term_score(idf, tf, doc_len, index.avg_doc_length, index.k1, index.b)
    return score


def keyword_search(index: KeywordIndex, query: str, k: int) -> list[RankedHit]:
    """Top-k documents by BM25 score, ties broken by ascending doc id.

    Documents scoring 0 (no query term present) are excluded entirely.
    """
    _require_k(k)
    terms = tokenize(query)
    scores: dict[str, float] = {}
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = _idf(index.doc_count, len(plist))
        for doc_id, tf in plist:
            contrib = _term_score(
                idf, tf, index.doc_lengths[doc_id], index.avg_doc_length, index.k1, index.b
            )
            scores[doc_id] = scores.get(doc_id, 0.0) + contrib
    ranked = sorted(
        ((doc_id, s) for doc_id, s in scores.items() if s > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [
        RankedHit(code=parse_code(doc_id), score=s, rank=i + 1)
        for i, (doc_id, s) in enumerate(ranked[:k])
    ]


@dataclass
class VectorIndex:
    dim: int
    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray


def build_vector_index(rows: Iterable[tuple[str, Sequence[float]]]) -> VectorIndex:
    """Stack vectors into a matrix, precomputing per-row norms.

    Rejects duplicate ids, inconsistent dimensions, and zero vectors
    (a zero row has no direction, so cosine queries would always fail).
    """
    ids: list[str] = []
    vectors: list[np.ndarray] = []
    dim: Optional[int] = None
    seen: set[str] = set()
    for doc_id, vec in rows:
        if doc_id in seen:
            raise DuplicateDocIdError(f"duplicate doc id {doc_id!r}")
        seen.add(doc_id)
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1:
            raise DimMismatchError(f"{doc_id!r}: vector must be one-dimensional")
        if dim is None:
            dim = int(arr.shape[0])
        elif arr.shape[0] != dim:
            raise DimMismatchError(
                f"{doc_id!r}: dim {arr.shape[0]} != index dim {dim}"
            )
        ids.append(doc_id)
        vectors.append(arr)
    if not ids:
        raise EmptyCorpusError("no vectors to index")
    matrix = np.vstack(vectors)
    # each entry equals np.linalg.norm of its row: the same dot, then sqrt
    norms = np.sqrt(np.vecdot(matrix, matrix))
    bad = np.flatnonzero(~((norms > 0.0) & (norms < math.inf)))
    if bad.size:
        raise ZeroVectorError(f"{ids[bad[0]]!r}: zero or non-finite vector cannot be indexed")
    return VectorIndex(dim=dim, ids=ids, matrix=matrix, norms=norms)


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
    return 1.0 - np.vecdot(index.matrix, q) / (index.norms * qnorm)


def _nearest(dist: np.ndarray, k: int) -> list[int]:
    """Rows within the k smallest distances, plus every row tied with the
    k-th, so that the caller's tie-break decides which of them make the cut.
    Unordered; the caller sorts."""
    _require_k(k)
    k = min(k, dist.shape[0])
    kth = np.partition(dist, k - 1)[k - 1]
    return np.flatnonzero(dist <= kth).tolist()


def vector_search(index: VectorIndex, query: Sequence[float], k: int) -> list[RankedHit]:
    """Exhaustive scan: top-k rows by ascending cosine distance.

    Hit scores are stored as similarity (1 - distance); ties break by
    ascending doc id.
    """
    dist = _distances(index, query)
    rows = _nearest(dist, k)
    scored = sorted(zip(dist[rows].tolist(), [index.ids[i] for i in rows]))
    return [
        RankedHit(code=parse_code(doc_id), score=1.0 - d, rank=i + 1)
        for i, (d, doc_id) in enumerate(scored[:k])
    ]


def _minmax(values: dict[str, float]) -> dict[str, float]:
    lo = min(values.values())
    hi = max(values.values())
    if hi > lo:
        return {doc_id: (v - lo) / (hi - lo) for doc_id, v in values.items()}
    # degenerate pool: every doc tied; positive scores normalize to 1
    return {doc_id: (1.0 if v > 0 else 0.0) for doc_id, v in values.items()}


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
    kw_hits = keyword_search(kw_index, query_text, pool)
    vec_hits = vector_search(vec_index, query_vector, pool)
    kw_raw = {h.code.raw: h.score for h in kw_hits}
    vec_raw = {h.code.raw: h.score for h in vec_hits}
    union = sorted(set(kw_raw) | set(vec_raw))
    if not union:
        return []
    kw_norm = _minmax({doc_id: kw_raw.get(doc_id, 0.0) for doc_id in union})
    vec_norm = _minmax({doc_id: vec_raw.get(doc_id, 0.0) for doc_id in union})
    fused = {
        doc_id: alpha * vec_norm[doc_id] + (1.0 - alpha) * kw_norm[doc_id]
        for doc_id in union
    }
    ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
    return [
        RankedHit(code=parse_code(doc_id), score=s, rank=i + 1)
        for i, (doc_id, s) in enumerate(ranked[:k])
    ]


class ImageReferenceSet:
    """Reference image vectors with their attached Iconclass labels: a
    VectorIndex whose row i carries labels[i]."""

    def __init__(self, rows: Sequence[tuple[Sequence[float], Sequence[IconclassCode]]]):
        if not rows:
            raise EmptyReferenceSetError("reference set is empty")
        self.index = build_vector_index((f"reference {i}", vec) for i, (vec, _) in enumerate(rows))
        self.labels: list[list[IconclassCode]] = [list(codes) for _, codes in rows]
        self.dim = self.index.dim
        self.vectors = self.index.matrix

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "ImageReferenceSet":
        """Load records of the form {"vector": [...], "codes": ["73D231", ...]}."""
        rows = []
        for line_no, obj in iter_jsonl(path):
            try:
                vec = np.asarray(obj["vector"], dtype=np.float64)
                codes = [parse_code(c) for c in obj["codes"]]
            except (KeyError, TypeError, ValueError, AttributeError, MalformedCodeError) as exc:
                raise MalformedLineError(line_no, f"{path}: bad reference record: {exc!r}") from exc
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
    dist = _distances(refs.index, query)
    rows = _nearest(dist, k)
    neighbors = sorted(zip(dist[rows].tolist(), rows))[:k]

    votes: Counter[str] = Counter()
    best_rank: dict[str, int] = {}
    by_raw: dict[str, IconclassCode] = {}
    for rank, (_, row_idx) in enumerate(neighbors, start=1):
        seen_here: set[str] = set()
        for code in refs.labels[row_idx]:
            if code.raw in seen_here:
                continue
            seen_here.add(code.raw)
            votes[code.raw] += 1
            by_raw.setdefault(code.raw, code)
            if code.raw not in best_rank or rank < best_rank[code.raw]:
                best_rank[code.raw] = rank
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

    Layout: meta.json (params, counts, creation info), keyword.json
    (postings and doc lengths), vectors.jsonl (one id + component-array
    record per doc, floats as decimal text that round-trips exactly).
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": 1,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "keyword": {
            "k1": kw_index.k1,
            "b": kw_index.b,
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
    keyword = {
        "postings": {t: [[d, tf] for d, tf in plist] for t, plist in kw_index.postings.items()},
        "doc_lengths": kw_index.doc_lengths,
    }
    (out / "keyword.json").write_text(
        json.dumps(keyword, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(out / "vectors.jsonl", "w", encoding="utf-8") as fh:
        for i, doc_id in enumerate(vec_index.ids):
            rec = {"id": doc_id, "vector": [float(x) for x in vec_index.matrix[i]]}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_index(dir_path: Union[str, Path]) -> tuple[KeywordIndex, VectorIndex, dict]:
    """Load indices saved by save_index; queries reproduce the originals exactly."""
    root = Path(dir_path)
    meta_path = root / "meta.json"
    kw_path = root / "keyword.json"
    vec_path = root / "vectors.jsonl"
    for p in (meta_path, kw_path, vec_path):
        if not p.is_file():
            raise MissingIndexError(f"missing index file {p}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        kw_data = json.loads(kw_path.read_text(encoding="utf-8"))
        kw_meta = meta["keyword"]
        kw_index = KeywordIndex(
            postings={t: [(d, int(tf)) for d, tf in plist] for t, plist in kw_data["postings"].items()},
            doc_lengths={d: int(n) for d, n in kw_data["doc_lengths"].items()},
            avg_doc_length=float(kw_meta["avg_doc_length"]),
            doc_count=int(kw_meta["doc_count"]),
            k1=float(kw_meta["k1"]),
            b=float(kw_meta["b"]),
        )
        rows = [(obj["id"], obj["vector"]) for _, obj in iter_jsonl(vec_path)]
        vec_count = int(meta["vector"]["doc_count"])
    except MalformedLineError as exc:
        raise MissingIndexError(f"{exc}; rebuild the index with `index build`") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise MissingIndexError(f"{root}: unreadable index file: {exc!r}") from exc
    # a crash while saving can leave vectors.jsonl short of what meta.json counts
    if len(rows) != vec_count or {doc_id for doc_id, _ in rows} != kw_index.doc_lengths.keys():
        raise MissingIndexError(f"{root}: incomplete index: its {len(rows)} vectors do not match its "
                                f"{vec_count} keyword docs; rebuild it with `index build`")
    vec_index = build_vector_index(rows)
    return kw_index, vec_index, meta
