"""Orchestration: run one classification method over manifest rows.

Six method families are supported: nearest-neighbour image voting,
keyword search, vector search, hybrid search, and RAG layered on the
vector or hybrid ranking. With offline providers every path is a pure
function of its inputs, so batch outputs are byte-reproducible.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import (
    IconclassifyError,
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
    vector_search,
)
from .taxonomy import DatabaseKind, IconclassCode, iter_jsonl

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


def standard_method_matrix(alpha: float = DEFAULT_ALPHA, rag_k: int = DEFAULT_RAG_K) -> list[MethodSpec]:
    """The 15 canonical method combinations, in report order: the image
    baseline, then keyword/vector/hybrid crossed with both description
    modes and both databases, then RAG over the two strongest setups."""
    specs = [MethodSpec(QueryKind.IMAGE, DescriptionMode.ILLUSTRATION, DatabaseKind.BASIC, alpha, rag_k)]
    for kind in (QueryKind.KEYWORD, QueryKind.VECTOR, QueryKind.HYBRID):
        for mode in (DescriptionMode.ILLUSTRATION, DescriptionMode.FULL_PAGE):
            for db in (DatabaseKind.BASIC, DatabaseKind.HIERARCHICAL):
                specs.append(MethodSpec(kind, mode, db, alpha, rag_k))
    specs.append(MethodSpec(QueryKind.RAG_VECTOR, DescriptionMode.FULL_PAGE, DatabaseKind.BASIC, alpha, rag_k))
    specs.append(MethodSpec(QueryKind.RAG_HYBRID, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL, alpha, rag_k))
    return specs


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
    predictions: list[Prediction] = field(default_factory=list)
    errors: list[ItemError] = field(default_factory=list)


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


def _load_query_vector(row: ManifestRow) -> list[float]:
    if not row.vector_path:
        raise ManifestParseError(f"{row.image_id}: vector_path is required for the image method")
    with open(row.vector_path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["vector"]
    return [float(x) for x in data]


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


def classify(row: ManifestRow, method: MethodSpec, ctx: ClassifyContext) -> Prediction:
    """Run one method for one manifest row and return its Prediction."""
    kind = method.query_kind
    if kind is QueryKind.IMAGE:
        refs = _require(ctx.references, "image reference set", method)
        query = _load_query_vector(row)
        code, table = image_vote_classify(query, refs, k=ctx.vote_k)
        _check_in_taxonomy(code, ctx, row.image_id)
        candidates = [
            RankedHit(code=entry.code, score=float(entry.votes), rank=i + 1)
            for i, entry in enumerate(table)
        ]
        return Prediction(
            image_id=row.image_id,
            method=method,
            predicted=code,
            candidates=candidates,
            ground_truth=row.ground_truth,
            group=row.group,
        )

    description = _description_for(row, method.description_mode, ctx)

    if kind is QueryKind.KEYWORD:
        kw = _require(ctx.keyword_index, "keyword index", method)
        hits = keyword_search(kw, description, method.rag_k)
    elif kind in (QueryKind.VECTOR, QueryKind.RAG_VECTOR):
        vec = _require(ctx.vector_index, "vector index", method)
        embedder = _require(ctx.embedder, "embedding provider", method)
        qvec = embed_text(description, embedder, ctx.embedding_cache)
        hits = vector_search(vec, qvec, method.rag_k)
    else:  # HYBRID and RAG_HYBRID
        kw = _require(ctx.keyword_index, "keyword index", method)
        vec = _require(ctx.vector_index, "vector index", method)
        embedder = _require(ctx.embedder, "embedding provider", method)
        qvec = embed_text(description, embedder, ctx.embedding_cache)
        hits = hybrid_search(
            kw, vec, description, qvec,
            alpha=method.alpha, k=method.rag_k, pool=ctx.hybrid_pool,
        )

    if not hits:
        raise NoCandidatesError(f"{row.image_id}: search returned no candidates")

    fallback = False
    if kind in (QueryKind.RAG_VECTOR, QueryKind.RAG_HYBRID):
        docs = _require(ctx.documents, "taxonomy documents", method)
        cands = []
        for h in hits:
            text = docs.get(h.code.raw)
            if text is None:
                raise MissingIndexError(
                    f"{row.image_id}: candidate {h.code.raw} missing from taxonomy documents"
                )
            cands.append((h.code, text))
        if ctx.chat is not None:
            predicted, fallback = select_with_llm(description, cands, ctx.chat)
        else:
            predicted, fallback = offline_select(description, cands)
    else:
        predicted = hits[0].code

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


def classify_batch(
    rows: Sequence[ManifestRow],
    method: MethodSpec,
    ctx: ClassifyContext,
    workers: int = 1,
) -> BatchResult:
    """Classify every manifest row, collecting per-item failures instead of
    aborting. Output order follows the manifest regardless of worker count."""
    slots: list[Union[Prediction, ItemError, None]] = [None] * len(rows)

    def run(i: int) -> None:
        try:
            slots[i] = classify(rows[i], method, ctx)
        except Exception as exc:  # per-item isolation is the batch contract
            slots[i] = ItemError(image_id=rows[i].image_id, error=f"{type(exc).__name__}: {exc}")

    if workers > 1 and len(rows) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(rows))))
    else:
        for i in range(len(rows)):
            run(i)

    result = BatchResult()
    for slot in slots:
        if isinstance(slot, Prediction):
            result.predictions.append(slot)
        elif isinstance(slot, ItemError):
            result.errors.append(slot)
    return result


_MANIFEST_FIELDS = (
    "image_id",
    "page_image_path",
    "illustration_image_path",
    "ground_truth",
    "vector_path",
    "description",
    "group",
)
_PATH_FIELDS = ("page_image_path", "illustration_image_path", "vector_path")


def _row_from_record(record: dict, line_no: int, base_dir: Path) -> ManifestRow:
    image_id = (record.get("image_id") or "").strip()
    if not image_id:
        raise ManifestParseError(f"line {line_no}: missing image_id")
    kwargs = {}
    for name in _MANIFEST_FIELDS[1:]:
        value = record.get(name)
        if value is None:
            continue
        value = str(value).strip()
        if not value:
            continue
        if name in _PATH_FIELDS and not Path(value).is_absolute():
            value = str(base_dir / value)  # paths resolve relative to the manifest
        kwargs[name] = value
    return ManifestRow(image_id=image_id, **kwargs)


def read_manifest(path: Union[str, Path]) -> list[ManifestRow]:
    """Read a CSV (default) or JSON-lines (.jsonl) manifest.

    The only required column is image_id; unknown columns are ignored and
    relative paths are interpreted against the manifest's directory.
    Duplicate image ids are rejected.
    """
    p = Path(path)
    if not p.is_file():
        raise ManifestParseError(f"manifest not found: {p}")
    base_dir = p.parent
    if p.suffix in (".jsonl", ".ndjson"):
        try:
            rows = [_row_from_record(rec, line_no, base_dir) for line_no, rec in iter_jsonl(p)]
        except MalformedLineError as exc:
            raise ManifestParseError(str(exc)) from exc
    else:
        with open(p, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if not reader.fieldnames or "image_id" not in reader.fieldnames:
                raise ManifestParseError("manifest CSV needs an image_id column")
            rows = [_row_from_record(rec, line_no, base_dir) for line_no, rec in enumerate(reader, start=2)]
    seen: set[str] = set()
    for row in rows:
        if row.image_id in seen:
            raise ManifestParseError(f"duplicate image_id {row.image_id!r}")
        seen.add(row.image_id)
    return rows


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
