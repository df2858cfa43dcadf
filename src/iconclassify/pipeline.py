"""Orchestration: run one classification method over manifest rows.

Six method families are supported: nearest-neighbour image voting,
keyword search, vector search, hybrid search, and RAG layered on the
vector or hybrid ranking. With offline providers every path is a pure
function of its inputs, so batch outputs are byte-reproducible.
"""

from __future__ import annotations

import csv
import json
from concurrent import futures
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    MalformedLineError,
    ManifestParseError,
    MissingDescriptionError,
    MissingIndexError,
    NoCandidatesError,
)
from .providers import (
    ChatProvider,
    DescriptionCache,
    DescriptionMode,
    EmbeddingCache,
    EmbeddingProvider,
    embed_text,
    offline_select,
    select_with_llm,
)
from .retrieval import (
    DEFAULT_ALPHA,
    DEFAULT_POOL,
    DEFAULT_VOTE_K,
    ImageReferenceSet,
    KeywordIndex,
    RankedHit,
    VectorIndex,
    hybrid_search,
    image_vote_classify,
    keyword_search,
    number_list,
    row_threads,
    vector_search,
)
from .taxonomy import DatabaseKind, IconclassCode, iter_csv, iter_jsonl

DEFAULT_RAG_K = 5


class QueryKind(str, Enum):
    IMAGE = "image"
    KEYWORD = "keyword"
    VECTOR = "vector"
    HYBRID = "hybrid"
    RAG_VECTOR = "rag-vector"
    RAG_HYBRID = "rag-hybrid"


@dataclass(frozen=True)
class MethodSpec:
    """One row of the method matrix: what queries what, over which database."""

    query_kind: QueryKind
    description_mode: DescriptionMode = DescriptionMode.FULL_PAGE
    database_kind: DatabaseKind = DatabaseKind.BASIC
    alpha: float = DEFAULT_ALPHA
    rag_k: int = DEFAULT_RAG_K

    @property
    def label(self) -> str:
        if self.query_kind is QueryKind.IMAGE:
            # the vote baseline queries illustration vectors against image references
            return "image/illustration/image"
        return f"{self.query_kind.value}/{self.description_mode.value}/{self.database_kind.value}"

    def to_dict(self) -> dict:
        return {
            "query": self.query_kind.value,
            "mode": self.description_mode.value,
            "database": self.database_kind.value,
            "alpha": self.alpha,
            "rag_k": self.rag_k,
            "label": self.label,
        }


@dataclass(frozen=True)
class ManifestRow:
    image_id: str
    page_image_path: Optional[str] = None
    illustration_image_path: Optional[str] = None
    ground_truth: Optional[str] = None
    vector_path: Optional[str] = None
    description: Optional[str] = None
    group: Optional[str] = None


@dataclass
class Prediction:
    image_id: str
    method: MethodSpec
    predicted: IconclassCode
    candidates: list[RankedHit]
    fallback_flag: bool = False
    ground_truth: Optional[str] = None
    group: Optional[str] = None


@dataclass
class ItemError:
    image_id: str
    error: str


@dataclass
class BatchResult:
    predictions: list[Prediction]
    errors: list[ItemError]


@dataclass
class ClassifyContext:
    """Everything a classify call may need. Unused members can stay None;
    a method that needs a missing one raises MissingIndexError."""

    documents: Optional[dict[str, str]] = None  # code -> indexed document text
    keyword_index: Optional[KeywordIndex] = None
    vector_index: Optional[VectorIndex] = None
    embedder: Optional[EmbeddingProvider] = None
    embedding_cache: Optional[EmbeddingCache] = None
    chat: Optional[ChatProvider] = None  # None selects the offline RAG stand-in
    description_cache: Optional[DescriptionCache] = None
    references: Optional[ImageReferenceSet] = None
    hybrid_pool: int = DEFAULT_POOL
    vote_k: int = DEFAULT_VOTE_K


def _description_for(row: ManifestRow, mode: DescriptionMode, ctx: ClassifyContext) -> str:
    if ctx.description_cache is not None:
        rec = ctx.description_cache.get(row.image_id, mode)
        if rec is not None:
            return rec.text
    if row.description:
        return row.description
    raise MissingDescriptionError(
        f"{row.image_id}: no {mode.value} description available; run describe first"
    )


def _load_query_vector(row: ManifestRow) -> np.ndarray:
    if not row.vector_path:
        raise ManifestParseError(f"{row.image_id}: vector_path is required for the image method")
    with open(row.vector_path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["vector"]
    return number_list(data)


def _require(value, what: str, method: MethodSpec):
    if value is None:
        raise MissingIndexError(f"{what} is required for method {method.label}")
    return value


def _check_in_taxonomy(code: IconclassCode, ctx: ClassifyContext, image_id: str) -> None:
    if ctx.documents is not None and code.raw not in ctx.documents:
        raise MissingIndexError(
            f"{image_id}: predicted code {code.raw} is not in the loaded taxonomy; "
            "index and taxonomy are out of sync"
        )


_FUSED = (QueryKind.HYBRID, QueryKind.RAG_HYBRID)


def _search(description: str, method: MethodSpec, ctx: ClassifyContext) -> list[RankedHit]:
    """The ranked hits of a text method (every kind but IMAGE) for one description."""
    kind = method.query_kind
    if kind is QueryKind.KEYWORD or kind in _FUSED:
        kw = _require(ctx.keyword_index, "keyword index", method)
        if kind is QueryKind.KEYWORD:
            return keyword_search(kw, description, method.rag_k)
    vec = _require(ctx.vector_index, "vector index", method)
    embedder = _require(ctx.embedder, "embedding provider", method)
    qvec = embed_text(description, embedder, ctx.embedding_cache)
    if kind in _FUSED:
        return hybrid_search(
            kw, vec, description, qvec,
            alpha=method.alpha, k=method.rag_k, pool=ctx.hybrid_pool,
        )
    return vector_search(vec, qvec, method.rag_k)


def classify(row: ManifestRow, method: MethodSpec, ctx: ClassifyContext) -> Prediction:
    """Run one method for one manifest row and return its Prediction."""
    kind = method.query_kind
    fallback = False
    if kind is QueryKind.IMAGE:
        refs = _require(ctx.references, "image reference set", method)
        predicted, table = image_vote_classify(_load_query_vector(row), refs, k=ctx.vote_k)
        hits = [
            RankedHit(code=entry.code, score=float(entry.votes), rank=i + 1)
            for i, entry in enumerate(table)
        ]
    else:
        description = _description_for(row, method.description_mode, ctx)
        hits = _search(description, method, ctx)
        if not hits:
            raise NoCandidatesError(f"{row.image_id}: search returned no candidates")
        predicted = hits[0].code
        if kind in (QueryKind.RAG_VECTOR, QueryKind.RAG_HYBRID):
            docs = _require(ctx.documents, "taxonomy documents", method)
            missing = [h.code.raw for h in hits if h.code.raw not in docs]
            if missing:
                raise MissingIndexError(
                    f"{row.image_id}: candidate {missing[0]} missing from taxonomy documents"
                )
            cands = [(h.code, docs[h.code.raw]) for h in hits]
            if ctx.chat is not None:
                predicted, fallback = select_with_llm(description, cands, ctx.chat)
            else:
                predicted, fallback = offline_select(description, cands)

    _check_in_taxonomy(predicted, ctx, row.image_id)
    return Prediction(
        image_id=row.image_id,
        method=method,
        predicted=predicted,
        candidates=hits,
        fallback_flag=fallback,
        ground_truth=row.ground_truth,
        group=row.group,
    )


def run_rows(fn: Callable[[ManifestRow], object], rows: Sequence[ManifestRow], workers: int) -> tuple[list, list]:
    """Call `fn` on every row from a pool of `workers` threads. Returns the
    results and the ItemErrors of the rows whose call raised, each in row
    order, so one bad row never stops the others."""

    def guarded(row: ManifestRow) -> object:
        try:
            return fn(row)
        except Exception as exc:  # per-item isolation is the batch contract
            return ItemError(image_id=row.image_id, error=f"{type(exc).__name__}: {exc}")

    results, errors = [], []
    with row_threads(workers), futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for out in pool.map(guarded, rows):
            (errors if isinstance(out, ItemError) else results).append(out)
    return results, errors


def classify_batch(
    rows: Sequence[ManifestRow],
    method: MethodSpec,
    ctx: ClassifyContext,
    workers: int = 1,
) -> BatchResult:
    """Classify every manifest row, collecting per-item failures instead of
    aborting. Output order follows the manifest regardless of worker count."""
    return BatchResult(*run_rows(lambda row: classify(row, method, ctx), rows, workers))


_PATH_FIELDS = ("page_image_path", "illustration_image_path", "vector_path")


def _row_from_record(record: dict, line_no: int, path: Path) -> ManifestRow:
    kwargs = {}
    for name in [f.name for f in fields(ManifestRow)]:
        value = record.get(name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int)):  # JSON lines can hold any value
            raise ManifestParseError(f"line {line_no}: {path}: {name} must be a string")
        value = str(value).strip()
        if not value:
            continue
        if name in _PATH_FIELDS and not Path(value).is_absolute():
            value = str(path.parent / value)  # paths resolve relative to the manifest
        kwargs[name] = value
    if "image_id" not in kwargs:
        raise ManifestParseError(f"line {line_no}: {path}: missing image_id")
    return ManifestRow(**kwargs)


def read_manifest(path: Union[str, Path]) -> list[ManifestRow]:
    """Read a CSV (default) or JSON-lines (.jsonl) manifest.

    The only required column is image_id; unknown columns are ignored and
    relative paths are interpreted against the manifest's directory.
    Duplicate image ids are rejected.
    """
    p = Path(path)
    if not p.is_file():
        raise ManifestParseError(f"manifest not found: {p}")
    records = iter_jsonl(p) if p.suffix in (".jsonl", ".ndjson") else iter_csv(p, ("image_id",))
    rows: dict[str, ManifestRow] = {}
    try:
        for line_no, rec in records:
            row = _row_from_record(rec, line_no, p)
            if row.image_id in rows:
                raise ManifestParseError(f"line {line_no}: {p}: duplicate image_id {row.image_id!r}")
            rows[row.image_id] = row
    except MalformedLineError as exc:
        raise ManifestParseError(str(exc)) from exc
    return list(rows.values())


def write_predictions_jsonl(predictions: Sequence[Prediction], path: Union[str, Path]) -> None:
    """One JSON object per prediction, deterministic key order, no timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        for pred in predictions:
            record = {
                "image_id": pred.image_id,
                "method": pred.method.to_dict(),
                "predicted": pred.predicted.raw,
                "candidates": [
                    {"code": h.code.raw, "score": h.score, "rank": h.rank}
                    for h in pred.candidates
                ],
                "fallback": pred.fallback_flag,
                "ground_truth": pred.ground_truth,
                "group": pred.group,
            }
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")


def write_predictions_csv(predictions: Sequence[Prediction], path: Union[str, Path]) -> None:
    """The evaluation-facing projection: image_id, predicted code, ground truth.

    A group column is appended only when at least one prediction carries one.
    """
    with_group = any(p.group for p in predictions)
    header = ["image_id", "predicted_code", "ground_truth_code"]
    if with_group:
        header.append("group")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for pred in predictions:
            row = [pred.image_id, pred.predicted.raw, pred.ground_truth or ""]
            if with_group:
                row.append(pred.group or "")
            writer.writerow(row)
