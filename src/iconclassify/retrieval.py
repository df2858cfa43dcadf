"""Keyword (BM25), vector (cosine), and hybrid retrieval over taxonomy
documents, plus the nearest-neighbour voting baseline for image vectors.

Document ids are Iconclass notations; every hit carries the parsed code.
All scans are exhaustive and rule-based, so results are reproducible.
"""

from __future__ import annotations

import array
import bisect
import collections
import functools
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

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
from .methods import DEFAULT_ALPHA, DEFAULT_POOL, DEFAULT_VOTE_K
from .outputs import write_outputs
from .taxonomy import IconclassCode, decode_json, iter_jsonl, parse_code

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

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


@functools.lru_cache(maxsize=1 << 14)  # more than the 12.6k codes of a paper-scale taxonomy
def _code(raw: str) -> IconclassCode:
    """parse_code, kept for the process: hits and reference labels share one IconclassCode per notation, so a
    process that keeps many hits keeps one copy of each code."""
    return parse_code(raw)


def _hits(ranked: Iterable[tuple[str, float]]) -> list[RankedHit]:
    """Hits from (doc id, score) pairs that are already in rank order."""
    return [RankedHit(code=_code(doc_id), score=s, rank=i + 1) for i, (doc_id, s) in enumerate(ranked)]


@dataclass(eq=False)
class KeywordIndex:
    """BM25 postings as arrays (Zobel & Moffat, 2006), the fields save_index stores. Row i is the i-th doc id in
    sorted order, so its number is its rank among the ids and breaks score ties by doc id. Term i's postings are
    rows[lo:hi], ascending, and tfs[lo:hi] for (lo, hi) = spans[terms[i]] = offsets[i], offsets[i + 1]; the slices
    tile the rows from 0, one posting or more each. The constructor refuses, by whole-array ops, a table that breaks
    this or the bounds below, a term listed twice, and an empty index."""

    ids: list[str]
    terms: list[str]  # distinct, in slice order
    offsets: np.ndarray  # int64, len(terms) + 1 of them
    rows: np.ndarray  # int32, in [0, len(ids)), strictly rising within a term: a doc counts once in its df
    tfs: np.ndarray  # int32, >= 1
    lengths: np.ndarray  # int32, >= 0, one per row
    spans: dict[str, tuple[int, int]] = field(init=False)
    doc_count: int = field(init=False)
    avg_doc_length: float = field(init=False)
    # (query text, its read-only score array) of the last query: one attribute, read and replaced whole, so a race
    # between threads costs a rescoring, never a wrong array
    _last = (None, None)

    def __post_init__(self):
        ids, terms, offsets, rows, tfs, lengths = self.ids, self.terms, self.offsets, self.rows, self.tfs, self.lengths
        if not (type(ids) is type(terms) is list and all(type(s) is str for s in ids + terms)):
            raise TypeError("the doc ids and the terms must be lists of strings")
        if not (isinstance(offsets, np.ndarray) and offsets.dtype == np.int64 and offsets.ndim == 1):
            raise TypeError("the offsets must be an int64 array of rank 1")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("the doc ids are not in strictly ascending order")
        if len(offsets) != len(terms) + 1:
            raise ValueError(f"{len(offsets)} offsets for {len(terms)} terms")
        if not (offsets[0] == 0 and offsets[-1] == len(rows) and (offsets[1:] > offsets[:-1]).all()):
            raise ValueError(f"the {len(terms)} terms' slices do not tile the {len(rows)} rows, "
                             "one posting or more each")
        self.spans = dict(zip(terms, zip(offsets.tolist(), offsets[1:].tolist())))
        if len(self.spans) < len(terms):
            raise ValueError("a term is listed twice")
        if len(tfs) != len(rows) or len(lengths) != len(ids):
            raise ValueError(f"{len(tfs)} tfs for {len(rows)} rows, {len(lengths)} lengths for {len(ids)} ids")
        if rows.size and (rows.min() < 0 or rows.max() >= len(ids)):
            raise ValueError(f"a row outside [0, {len(ids)})")
        rising = rows[1:] > rows[:-1]
        rising[offsets[1:-1] - 1] = True  # a term's first row follows another term's rows
        if not rising.all():
            term = terms[np.searchsorted(offsets, np.argmin(rising) + 1, side="right") - 1]
            raise ValueError(f"the rows of {term!r} repeat a doc or are out of order")
        if tfs.min(initial=1) < 1 or lengths.min(initial=0) < 0:
            raise ValueError("a term frequency below 1 or a doc length below 0")
        if not ids:
            raise EmptyCorpusError("no documents to index")
        self.doc_count = len(ids)
        # a sum of Python ints is exact in any order, so a loaded index gets the built mean bit for bit
        self.avg_doc_length = sum(lengths.tolist()) / self.doc_count

    @functools.cached_property
    def doc_lengths(self) -> Mapping[str, int]:
        """Doc id -> token count, in id order: a read-only view of the arrays, built on first use."""
        return MappingProxyType(dict(zip(self.ids, self.lengths.tolist())))

    @functools.cached_property
    def postings(self) -> Mapping[str, list[tuple[str, int]]]:
        """Term -> [(doc id, tf), ...] in id order: a read-only view of the arrays, built on first use."""
        ids, rows, tfs = self.ids, self.rows.tolist(), self.tfs.tolist()
        return MappingProxyType({term: [(ids[r], tf) for r, tf in zip(rows[lo:hi], tfs[lo:hi])]
                                 for term, (lo, hi) in self.spans.items()})


def build_keyword_index(docs: Iterable[tuple[str, str]]) -> KeywordIndex:
    """Build an inverted index with term frequencies and document lengths."""
    docs = list(docs)
    _check_unique([doc_id for doc_id, _ in docs])
    docs.sort()  # by id, as the ids are distinct
    term_no: dict[str, int] = collections.defaultdict(itertools.count().__next__)  # the spans' order: first seen
    # each token's term number, a document at a time, so no token list outlives its document
    term_of, lengths = array.array("q"), np.empty(len(docs), dtype=np.int32)
    for row, (_, text) in enumerate(docs):
        tokens = tokenize(text)
        term_of.extend(map(term_no.__getitem__, tokens))
        lengths[row] = len(tokens)
    # one key per (term, row) posting: sorted, they group the postings by term, each term's rows ascending
    keys = np.frombuffer(term_of, dtype=np.int64) * len(docs)
    del term_of
    keys += np.repeat(np.arange(len(docs)), lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    return KeywordIndex(
        ids=[doc_id for doc_id, _ in docs],
        terms=list(term_no),
        offsets=np.concatenate(([0], np.cumsum(np.bincount(keys // len(docs), minlength=len(term_no))))),
        rows=(keys % len(docs)).astype(np.int32),
        tfs=tfs.astype(np.int32),
        lengths=lengths,
    )


def _idf(n_docs: int, df: int) -> float:
    return math.log(1 + (n_docs - df + 0.5) / (df + 0.5))


def _term_score(idf: float, tf: int | np.ndarray, doc_len: int | np.ndarray, avg_len: float) -> float | np.ndarray:
    """One term's BM25 share, for one document or, elementwise, for arrays of them."""
    denom = tf + DEFAULT_K1 * (1 - DEFAULT_B + DEFAULT_B * doc_len / avg_len)
    return idf * (tf * (DEFAULT_K1 + 1)) / denom


def bm25_score(index: KeywordIndex, query_terms: Sequence[str], doc_id: str) -> float:
    """BM25 score of one document for the given terms.

    Terms absent from the document contribute 0. Raises UnknownDocError
    for ids outside the index. The row is found by a binary search of the
    sorted ids, and each term's tf by one of its ascending rows.
    """
    row = bisect.bisect_left(index.ids, doc_id) if isinstance(doc_id, str) else len(index.ids)
    if row == len(index.ids) or index.ids[row] != doc_id:
        raise UnknownDocError(f"unknown doc id {doc_id!r}")
    doc_len = int(index.lengths[row])
    score = 0.0
    for term in query_terms:
        lo, hi = index.spans.get(term, (0, 0))
        at = lo + int(np.searchsorted(index.rows[lo:hi], row))
        if at < hi and index.rows[at] == row:
            idf = _idf(index.doc_count, hi - lo)
            score += _term_score(idf, int(index.tfs[at]), doc_len, index.avg_doc_length)
    return score


def _keyword_scores(index: KeywordIndex, query: str) -> np.ndarray:
    """The BM25 score of every row. Each query term, repeats included, adds
    `_term_score` of its whole posting slice to the scores in one array op.
    numpy's elementwise ops round as Python's do and the terms add up in the
    same order, so each score equals `bm25_score` bit for bit. A repeat of
    the index's last query text returns the very array that query made."""
    last, scores = index._last
    if last == query:
        return scores
    scores = np.zeros(index.doc_count)
    for term in tokenize(query):
        if term not in index.spans:
            continue
        lo, hi = index.spans[term]
        rows = index.rows[lo:hi]
        idf = _idf(index.doc_count, hi - lo)
        scores[rows] += _term_score(idf, index.tfs[lo:hi], index.lengths[rows], index.avg_doc_length)
    scores.flags.writeable = False  # shared by every repeat
    index._last = (query, scores)
    return scores


def _keyword_top(index: KeywordIndex, query: str, k: int) -> list[tuple[str, float]]:
    """(doc id, score) of the top k by BM25."""
    scores = _keyword_scores(index, query)
    hit = np.flatnonzero(scores > 0.0)
    return [(index.ids[row], -cost) for cost, row in _top(hit, -scores[hit], k)]


def keyword_search(index: KeywordIndex, query: str, k: int) -> list[RankedHit]:
    """Top-k documents by BM25 score, ties broken by ascending doc id.

    Documents scoring 0 (no query term present) are excluded entirely.
    """
    return _hits(_keyword_top(index, query, k))


@dataclass(eq=False)
class VectorIndex:
    """Row i of the C-ordered float64 matrix is the vector of ids[i]; the constructor works out and checks each norm."""

    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray = field(init=False)
    # (query vector bytes, its read-only lower and upper cost bounds) of the last scan, kept as KeywordIndex keeps its
    # last query
    _last = (None, None, None)

    def __post_init__(self):
        if not self.ids:
            raise EmptyCorpusError("no vectors to index")
        if self.matrix.ndim != 2:
            raise DimMismatchError(f"the vectors are an array of rank {self.matrix.ndim}, not a matrix")
        if len(self.matrix) != len(self.ids):
            raise DimMismatchError(f"{len(self.matrix)} vector rows for {len(self.ids)} ids")
        _check_unique(self.ids)
        # a copy only of a caller's matrix in another layout: a row's dot must sum the same way in a few rows' copy
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        self.norms = vector_norms(self.matrix)
        bad = np.flatnonzero(~((self.norms > 0.0) & (self.norms < math.inf)))
        if bad.size:
            raise ZeroVectorError(f"{self.ids[bad[0]]!r}: zero or non-finite vector cannot be indexed")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def number_list(value) -> np.ndarray:
    """A JSON array of numbers whose norm is neither zero nor infinite, as a 1-d float64 array: the one reader and
    judge of a vector from outside the program. Anything else raises TypeError: strings and booleans, which float()
    alone reads as numbers; [], zeros, NaN, Infinity and 1e999, which json reads as floats; and [1e200], too large
    to square."""
    try:
        if isinstance(value, list) and set(map(type, value)) <= {int, float}:
            vec = np.array(value, dtype=np.float64)
            if 0.0 < vector_norms(vec) < math.inf:
                return vec
            raise TypeError("a zero or non-finite vector has no direction")
    except OverflowError:  # an integer beyond the float range
        pass
    raise TypeError("expected a list of numbers")


def build_vector_index(rows: Iterable[tuple[str, Sequence[float]]]) -> VectorIndex:
    """(id, vector) rows stacked in order into VectorIndex(ids, matrix), whose constructor alone judges them."""
    rows = list(rows)
    try:
        matrix = np.array([vec for _, vec in rows], dtype=np.float64)
    except ValueError as exc:  # rows of one shape do stack: then a value in them is not a number
        shapes = dict.fromkeys(np.shape(vec) for _, vec in rows)
        raise DimMismatchError(f"rows of shapes {', '.join(map(str, shapes))} do not stack") if len(shapes) > 1 else exc
    return VectorIndex([doc_id for doc_id, _ in rows], matrix)


def _check_unique(ids: list[str]) -> None:
    """Raise DuplicateDocIdError naming the first id that repeats an earlier one."""
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        raise DuplicateDocIdError(f"duplicate doc id {next(d for d in ids if d in seen or seen.add(d))!r}")


def vector_norms(x: np.ndarray) -> np.ndarray:
    """The norm of a vector, or of each row of a matrix: the one judge of whether a vector is usable. Each equals
    np.linalg.norm's bit for bit, the same dot then sqrt; a vector too large to square is inf, with no numpy warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(x, x))


def cosine_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """1 - cos(angle between u and v), in [0, 2]."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatchError(f"dims {a.shape} vs {b.shape}")
    na = float(vector_norms(a))
    nb = float(vector_norms(b))
    if not (0.0 < na < math.inf and 0.0 < nb < math.inf):
        raise ZeroVectorError("cosine distance undefined for zero or non-finite vectors")
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def _query(index: VectorIndex, query: Sequence[float]) -> tuple[np.ndarray, float]:
    """The query as a float64 vector of the index's dim, and its norm."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise DimMismatchError(f"query dim {q.shape} != index dim {index.dim}")
    qnorm = float(vector_norms(q))
    if not 0.0 < qnorm < math.inf:
        raise ZeroVectorError("cannot search with a zero or non-finite query vector")
    return q, qnorm


def _distances(index: VectorIndex, query: Sequence[float]) -> np.ndarray:
    """cosine_distance(row, query) for every row, bit for bit: the exact full
    scan that every shortlist ranking equals. np.vecdot runs each row through
    np.dot's kernel, where M @ q would sum in another order."""
    q, qnorm = _query(index, query)
    return 1.0 - _row_dots(index.matrix, q) / (index.norms * qnorm)


def _scan(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The one pass over every row that a query vector makes: matrix @ q, a
    BLAS gemv, threaded as the BLAS sees fit, whose sums run in another order
    than np.vecdot's."""
    return matrix @ q


def _row_dots(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.vecdot(matrix, q): each row's dot as np.dot gives it for that row
    alone, so a row's value is the same in a copy of a few rows as in the
    whole matrix."""
    return np.vecdot(matrix, q)


def _nearest(index: VectorIndex, query: Sequence[float], k: int, keys: Sequence) -> list[tuple[float, object]]:
    """_top(keys, _distances(index, query), k), bit for bit, from a shortlist
    that one fast scan certifies: scan, then re-rank exactly (Jégou et al.,
    Searching in one billion vectors, ICASSP 2011).

    The bounds that one scan a, _scan's M @ q, gives each row are kept in the
    index's memo, so each ranking of one query cuts its own shortlist from
    them. A dot of length d in any summation order, with or without FMA, lies
    within γ_d·‖m‖‖q‖ of the exact one, γ_d = d·u/(1 − d·u), u = 2⁻⁵³, plus
    2⁻¹⁰⁷⁵ for each product that underflows (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, §3.1); a and np.vecdot's v differ by
    at most twice that. The computed norms may fall short of ‖m‖ and ‖q‖ by a
    factor 1 + γ_d + 2u, and by √d·2⁻⁵³⁷ (pad) where their squares underflow.
    err's 4u covers that factor and the rounding of err and of a ± err, and
    its absolute term is doubled for the same, so fl(a − err) ≤ v ≤
    fl(a + err). Rounded division and subtraction are monotone, so lo ≤ cost ≤
    hi for the very cost that _distances computes, t being norms·qnorm. Where t
    exceeds 2¹⁰²³, a partial sum of either order may overflow and the bound
    says nothing: such a row, as is every row whose a is ±inf or NaN, gets
    (−inf, inf).

    T, the k-th smallest hi, is at least the k-th smallest cost, so every row
    that the full scan ranks within its k-th, ties included, has lo ≤ T. Only
    those rows are rescored, as _distances scores them, and cut by _top."""
    q, qnorm = _query(index, query)
    key = q.tobytes()
    last, lo, hi = index._last
    if last != key:
        a, d, u = _scan(index.matrix, q), index.dim, 2.0 ** -53
        t = index.norms * qnorm
        pad = math.sqrt(d) * 2.0 ** -537
        err = (2.0 * d * u / (1.0 - d * u) + 4.0 * u) * (index.norms + pad) * (qnorm + pad) + d * 2.0 ** -1072
        lo, hi = 1.0 - (a + err) / t, 1.0 - (a - err) / t
        wild = t > 2.0 ** 1023
        lo[wild], hi[wild] = -math.inf, math.inf
        lo.flags.writeable = hi.flags.writeable = False  # shared by every ranking of this query
        index._last = (key, lo, hi)
    rows = np.flatnonzero(lo <= _kth(hi, k))
    cost = 1.0 - _row_dots(index.matrix[rows], q) / (index.norms[rows] * qnorm)
    return _top([keys[row] for row in rows.tolist()], cost, k)


def _kth(values: np.ndarray, k: int) -> float:
    """The k-th smallest of values, the largest if there are fewer, inf if
    none. Every ranking cuts through here, so k is checked here alone."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = min(k, values.size)
    return np.partition(values, m - 1)[m - 1] if m else math.inf


def _top(keys: Sequence, cost: np.ndarray, k: int) -> list[tuple[float, object]]:
    """The k (cost, key) pairs of smallest cost, ties broken by key, in that
    order. Only the rows within the k-th cost are sorted, every row tied with
    it included, so that the key decides the cut."""
    rows = np.flatnonzero(cost <= _kth(cost, k)).tolist()
    return sorted(zip(cost[rows].tolist(), [keys[i] for i in rows]))[:k]


def _vector_top(index: VectorIndex, query: Sequence[float], k: int) -> list[tuple[str, float]]:
    """(doc id, similarity) of the k rows nearest by cosine distance."""
    return [(doc_id, 1.0 - d) for d, doc_id in _nearest(index, query, k, index.ids)]


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
    kw_raw = dict(_keyword_top(kw_index, query_text, pool))
    vec_raw = dict(_vector_top(vec_index, query_vector, pool))
    union = sorted(set(kw_raw) | set(vec_raw))
    vec_norm = _minmax([vec_raw.get(doc_id, 0.0) for doc_id in union])
    kw_norm = _minmax([kw_raw.get(doc_id, 0.0) for doc_id in union])
    fused = alpha * vec_norm + (1.0 - alpha) * kw_norm
    return _hits((doc_id, -cost) for cost, doc_id in _top(union, -fused, k))


class ImageReferenceSet:
    """Reference image vectors with their attached Iconclass labels: a VectorIndex whose row i carries labels[i]."""

    def __init__(self, labels: Sequence[Sequence[IconclassCode]], matrix: np.ndarray):
        if not labels:
            raise EmptyReferenceSetError("reference set is empty")
        self.labels: list[list[IconclassCode]] = [list(codes) for codes in labels]
        if not all(self.labels):  # a reference with no code would give its votes to nothing
            raise ValueError(f"'reference {self.labels.index([])}': a reference carries no codes")
        self.index = VectorIndex([f"reference {i}" for i in range(len(self.labels))], matrix)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "ImageReferenceSet":
        """Load records of the form {"vector": [...], "codes": ["73D231", ...]}. Each distinct code string is
        parsed once, and the rows that carry it share its IconclassCode. The file is read once, so a pipe works:
        each vector is appended to one buffer, which becomes the matrix without a copy. A record is judged as its
        line is read, a vector with no direction by number_list, so the first bad line is the one named."""
        values, labels = array.array("d"), []
        for line_no, obj in iter_jsonl(path):
            try:
                vec = number_list(obj["vector"])
                if not isinstance(obj["codes"], list):  # a string would be read as one code per character
                    raise TypeError("codes must be a list")
                codes = [_code(c) for c in obj["codes"]]
            except (KeyError, TypeError, ValueError, AttributeError, MalformedCodeError) as exc:
                raise MalformedLineError(line_no, f"{path}: bad reference record: {exc!r}") from exc
            if not codes:
                raise MalformedLineError(line_no, f"{path}: reference record has no codes")
            if labels and vec.size != dim:  # the matrix could not hold it, so the error names the line here
                raise MalformedLineError(line_no, f"{path}: dim {vec.size} != reference set dim {dim}")
            dim = vec.size
            values.frombytes(vec.tobytes())
            labels.append(codes)
        if not labels:
            raise EmptyReferenceSetError(f"{path}: reference set is empty")
        return cls(labels, np.frombuffer(values).reshape(len(labels), dim))


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
    neighbors = _nearest(refs.index, query, k, range(len(refs)))

    # code -> [votes, best rank], one lookup per vote: an IconclassCode hashes in Python, not in C as a str does
    tally: dict[IconclassCode, list[int]] = {}
    for rank, (_, row_idx) in enumerate(neighbors, start=1):
        for code in dict.fromkeys(refs.labels[row_idx]):
            tally.setdefault(code, [0, rank])[0] += 1  # neighbours come nearest first
    table = [VoteEntry(code, votes, best_rank) for code, (votes, best_rank)
             in sorted(tally.items(), key=lambda item: (-item[1][0], item[1][1], item[0].raw))]
    return table[0].code, table


# the array files of an index, the matrix first, in the order save_index writes them: each with the one native dtype
# and rank it is written in, and so the only one it is read in
_ARRAYS = {"vectors.npy": (np.dtype(np.float64), 2), "keyword-offsets.npy": (np.dtype(np.int64), 1),
           "keyword-rows.npy": (np.dtype(np.int32), 1), "keyword-tfs.npy": (np.dtype(np.int32), 1),
           "keyword-lengths.npy": (np.dtype(np.int32), 1)}
# the magic and header of a version 1.0 .npy file as numpy writes them: the dtype, the order flag and the shape.
# Matched, not evaluated: numpy's reader runs ast.literal_eval on them, and reads a shape of (3L,) with a warning
_NPY_HEADER = re.compile(rb"\x93NUMPY\x01\x00[\s\S]{2}\{'descr': '([^']*)', 'fortran_order': (False|True), "
                         rb"'shape': \(((?:\d+, )*\d+,?|)\), \} *\n")


def save_index(
    dir_path: Union[str, Path],
    kw_index: KeywordIndex,
    vec_index: VectorIndex,
    config: Optional[dict] = None,
) -> None:
    """Persist both indices to a directory: keyword.json (the KeywordIndex's ids and terms), vectors.jsonl (one
    {"id": ...} record per matrix row, in row order), the _ARRAYS files (the matrix, then the KeywordIndex's
    offsets, rows, tfs and lengths, its fields as they are), each raw and bit-exact, and meta.json (format,
    params, counts, creation info), which marks a finished save. All go through write_outputs, which replaces
    none until every one is written, and meta.json last, so a failed save leaves the old index loadable."""
    out = Path(dir_path)
    meta = {
        "format": 3,
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
    write_outputs(
        (out / "keyword.json", json.dumps({"ids": kw_index.ids, "terms": kw_index.terms}) + "\n"),
        (out / "vectors.jsonl", "".join(json.dumps({"id": doc_id}) + "\n" for doc_id in vec_index.ids)),
        *((out / name, _npy(np.ascontiguousarray(array, dtype))) for (name, (dtype, _)), array in
          zip(_ARRAYS.items(), (vec_index.matrix, kw_index.offsets, kw_index.rows, kw_index.tfs, kw_index.lengths))),
        (out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"),
    )


def _npy(array: np.ndarray):
    """A write_outputs writer of `array` as np.save writes it; np.save's own write drops a full disk's errno."""
    def write(fh) -> None:
        np.lib.format.write_array_header_1_0(fh.buffer, np.lib.format.header_data_from_array_1_0(array))
        fh.buffer.write(array)  # C-ordered, written without a copy
    return write


def _read_npy(root: Path, name: str) -> np.ndarray:
    """The array save_index wrote to `name`, read only once its header shows a version 1.0 .npy of the C-ordered
    dtype and rank _ARRAYS gives, followed by exactly the bytes its shape needs: so no header can make the read
    allocate more than the file holds, and nothing is unpickled."""
    dtype, rank = _ARRAYS[name]
    with open(root / name, "rb") as fh:
        head = fh.read(10)
        header = _NPY_HEADER.fullmatch(head + fh.read(int.from_bytes(head[8:], "little")))
        if not header:
            raise ValueError(f"{name} is not a version 1.0 .npy file")
        shape = tuple(map(int, re.findall(rb"\d+", header[3])))
        size, data = math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
        if header.group(1, 2) != (dtype.str.encode(), b"False") or len(shape) != rank or data != size * dtype.itemsize:
            raise ValueError(f"{name} holds {header[0][10:].strip().decode('latin-1')} and {data} bytes of data, "
                             f"not a C-ordered {dtype.str} array of rank {rank} and the bytes its shape needs")
        return np.fromfile(fh, dtype, size).reshape(shape)


def load_index(dir_path: Union[str, Path]) -> tuple[KeywordIndex, VectorIndex, dict]:
    """Load save_index's files, checked against meta.json and by the index constructors; queries match the originals."""
    root = Path(dir_path)
    try:
        meta = decode_json((root / "meta.json").read_text(encoding="utf-8"))
        # checked before any other file is read; an index is derived data, so an old format is rebuilt, not converted
        if meta["format"] != 3:
            raise MissingIndexError(f"{root}: index format {meta['format']!r} is no longer read; "
                                    "rebuild it with `index build`")
        kw_meta, vec_meta = meta["keyword"], meta["vector"]
        if not isinstance(meta.get("config", {}), dict):  # classify reads its fields by name
            raise TypeError("config must be an object")
        # scores always use the constants, so an index recorded with others would rank silently wrong
        if (kw_meta["k1"], kw_meta["b"]) != (DEFAULT_K1, DEFAULT_B):
            raise MissingIndexError(f"{root}: index was built with BM25 k1={kw_meta['k1']}, b={kw_meta['b']}, "
                                    f"not {DEFAULT_K1}, {DEFAULT_B}; rebuild it with `index build`")
        recorded = (kw_meta["doc_count"], kw_meta["avg_doc_length"], vec_meta["doc_count"], vec_meta["dim"])
        kw_data = decode_json((root / "keyword.json").read_text(encoding="utf-8"))
        matrix_file, *keyword_files = _ARRAYS  # the small files are checked before the matrix is read
        kw_index = KeywordIndex(kw_data["ids"], kw_data["terms"], *(_read_npy(root, name) for name in keyword_files))
        ids = [obj["id"] for _, obj in iter_jsonl(root / "vectors.jsonl")]
        vec_index = VectorIndex(ids, _read_npy(root, matrix_file))
        same_ids = kw_index.ids == sorted(vec_index.ids)
    except FileNotFoundError as exc:
        raise MissingIndexError(f"missing index file {exc.filename}") from exc
    except MalformedLineError as exc:
        raise MissingIndexError(f"{exc}; rebuild the index with `index build`") from exc
    except (ValueError, KeyError, TypeError, RecursionError, EmptyCorpusError, DuplicateDocIdError,
            DimMismatchError, ZeroVectorError) as exc:
        raise MissingIndexError(f"{root}: unreadable index file: {exc!r}; rebuild it with `index build`") from exc
    # a save that dies part way leaves no meta.json, so only files mixed from other saves disagree with it or each other
    found = (kw_index.doc_count, kw_index.avg_doc_length, len(vec_index.ids), vec_index.dim)
    if found != recorded or not same_ids:
        raise MissingIndexError(f"{root}: incomplete index: meta.json records (docs, mean length, vectors, dim) "
                                f"{recorded}, but its files hold {found}{'' if same_ids else ' under other ids'}; "
                                "rebuild it with `index build`")
    return kw_index, vec_index, meta
