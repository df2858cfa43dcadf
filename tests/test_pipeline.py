import json
import sys
import threading

import numpy as np
import pytest

from iconclassify import retrieval
from iconclassify.errors import (
    ManifestParseError,
    MissingDescriptionError,
    MissingIndexError,
    NoCandidatesError,
)
from iconclassify.pipeline import (
    ClassifyContext,
    ManifestRow,
    MethodSpec,
    Prediction,
    QueryKind,
    classify,
    classify_batch,
    read_manifest,
    run_rows,
    write_predictions_csv,
    write_predictions_jsonl,
)
from iconclassify.providers import (
    DescriptionCache,
    DescriptionMode,
    DescriptionRecord,
    EmbeddingCache,
    OfflineHashEmbedder,
    now_iso,
)
from iconclassify.retrieval import ImageReferenceSet, build_keyword_index, build_vector_index
from iconclassify.taxonomy import DatabaseKind, load_taxonomy, parse_code, render_doc

from conftest import FIXTURES


class MapEmbedder:
    """Embedding fake with a fixed text -> vector table."""

    provider_id = "map-embed"

    def __init__(self, table):
        self.table = {k: [float(x) for x in v] for k, v in table.items()}

    def embed(self, text):
        return self.table[text]

    def embed_many(self, texts):
        return [self.embed(t) for t in texts]


class EchoChat:
    model_id = "fake-chat"

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0

    def complete(self, prompt, image_bytes=None):
        self.calls += 1
        return self.reply


class CountingOfflineEmbedder(OfflineHashEmbedder):
    """Counts the texts that reach embed_many, the provider protocol, whichever entry point sent them."""

    def __init__(self, dim=64):
        super().__init__(dim=dim)
        self.embedded = 0

    def embed_many(self, texts):
        self.embedded += len(texts)
        return super().embed_many(texts)


def _fixture_context(kind=DatabaseKind.BASIC, dim=64, **overrides):
    tax = load_taxonomy(FIXTURES / "taxonomy.tsv")
    docs = {entry.code.raw: render_doc(entry, tax, kind) for entry in tax}
    embedder = overrides.pop("embedder", OfflineHashEmbedder(dim=dim))
    ctx = ClassifyContext(
        documents=docs,
        keyword_index=build_keyword_index(docs.items()),
        vector_index=build_vector_index([(c, embedder.embed(t)) for c, t in docs.items()]),
        embedder=embedder,
    )
    for name, value in overrides.items():
        setattr(ctx, name, value)
    return ctx


# ---------------------------------------------------------------- method specs

def test_method_labels():
    assert MethodSpec(QueryKind.IMAGE).label == "image/illustration/image"
    spec = MethodSpec(QueryKind.KEYWORD, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL)
    assert spec.label == "keyword/page/hierarchical"
    assert MethodSpec(QueryKind.RAG_HYBRID).label == "rag-hybrid/page/basic"


def test_method_to_dict():
    spec = MethodSpec(QueryKind.VECTOR, DescriptionMode.ILLUSTRATION, DatabaseKind.BASIC, alpha=0.5, rag_k=7)
    assert spec.to_dict() == {
        "query": "vector",
        "mode": "illustration",
        "database": "basic",
        "alpha": 0.5,
        "rag_k": 7,
        "label": "vector/illustration/basic",
    }


def standard_method_matrix() -> list[MethodSpec]:
    """The 15 canonical method combinations, in report order: the image
    baseline, then keyword/vector/hybrid crossed with both description
    modes and both databases, then RAG over the two strongest setups."""
    specs = [MethodSpec(QueryKind.IMAGE, DescriptionMode.ILLUSTRATION, DatabaseKind.BASIC)]
    for kind in (QueryKind.KEYWORD, QueryKind.VECTOR, QueryKind.HYBRID):
        for mode in (DescriptionMode.ILLUSTRATION, DescriptionMode.FULL_PAGE):
            for db in (DatabaseKind.BASIC, DatabaseKind.HIERARCHICAL):
                specs.append(MethodSpec(kind, mode, db))
    specs.append(MethodSpec(QueryKind.RAG_VECTOR, DescriptionMode.FULL_PAGE, DatabaseKind.BASIC))
    specs.append(MethodSpec(QueryKind.RAG_HYBRID, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL))
    return specs


def test_standard_method_matrix_shape():
    specs = standard_method_matrix()
    assert len(specs) == 15
    labels = [s.label for s in specs]
    assert len(set(labels)) == 15
    assert labels[0] == "image/illustration/image"
    # keyword, vector, hybrid each cross two modes and two databases
    for kind in ("keyword", "vector", "hybrid"):
        assert sum(label.startswith(kind + "/") for label in labels) == 4
    assert labels[-2] == "rag-vector/page/basic"
    assert labels[-1] == "rag-hybrid/page/hierarchical"


# ---------------------------------------------------------------- manifest

def test_read_manifest_fixture(fixtures_dir):
    rows = read_manifest(fixtures_dir / "manifest.csv")
    assert len(rows) == 12
    first = rows[0]
    assert first.image_id == "img001"
    assert first.ground_truth == "71B32"
    assert first.group == "set-a"
    assert first.description
    # relative vector paths resolve against the manifest directory
    assert first.vector_path == str(fixtures_dir / "vectors" / "img001.json")


def test_read_manifest_jsonl(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        json.dumps({"image_id": "a", "vector_path": "vecs/a.json", "extra": "ignored"}) + "\n"
        + "\n"
        + json.dumps({"image_id": "b", "ground_truth": "73D2"}) + "\n"
    )
    rows = read_manifest(path)
    assert len(rows) == 2
    assert rows[0].vector_path == str(tmp_path / "vecs" / "a.json")
    assert rows[1].ground_truth == "73D2"
    assert rows[1].vector_path is None


def test_read_manifest_errors(tmp_path):
    missing_id = tmp_path / "no_id.csv"
    missing_id.write_text("image_id,description\n,oops\n")
    with pytest.raises(ManifestParseError, match="line 2"):
        read_manifest(missing_id)

    wrong_header = tmp_path / "wrong.csv"
    wrong_header.write_text("id,description\nx,y\n")
    with pytest.raises(ManifestParseError, match="image_id"):
        read_manifest(wrong_header)

    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"image_id": "a"}\nnot json\n')
    with pytest.raises(ManifestParseError, match="line 2"):
        read_manifest(bad_json)

    non_object = tmp_path / "arr.jsonl"
    non_object.write_text("[1, 2]\n")
    with pytest.raises(ManifestParseError, match="object"):
        read_manifest(non_object)

    dupes = tmp_path / "dupes.csv"
    dupes.write_text("image_id\nx\nx\n")
    with pytest.raises(ManifestParseError, match="duplicate"):
        read_manifest(dupes)

    with pytest.raises(ManifestParseError, match="not found"):
        read_manifest(tmp_path / "nope.csv")


def test_read_manifest_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("image_id,description\n")
    assert read_manifest(path) == []


def test_read_manifest_jsonl_writes_integers_in_decimal(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"image_id": 5, "ground_truth": "73D2", "group": 0}\n{"image_id": 0}\n')
    rows = read_manifest(path)
    assert [(r.image_id, r.group) for r in rows] == [("5", "0"), ("0", None)]


def test_read_manifest_keeps_absolute_paths(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("image_id,vector_path\nx,/abs/v.json\n")
    assert read_manifest(path)[0].vector_path == "/abs/v.json"


# ---------------------------------------------------------------- classify, text methods

def test_classify_keyword_top_hit():
    ctx = _fixture_context()
    row = ManifestRow(image_id="q1", description="the building of the ark and the embarkation")
    pred = classify(row, MethodSpec(QueryKind.KEYWORD), ctx)
    assert pred.predicted.raw == "71B32"
    assert pred.candidates[0].code.raw == "71B32"
    assert pred.fallback_flag is False
    assert len(pred.candidates) == 5


def test_classify_vector_verbatim_description_is_exact():
    ctx = _fixture_context()
    text = ctx.documents["73D231"]
    pred = classify(ManifestRow(image_id="q", description=text), MethodSpec(QueryKind.VECTOR), ctx)
    assert pred.predicted.raw == "73D231"
    assert pred.candidates[0].score == pytest.approx(1.0, abs=1e-9)


def test_classify_text_methods_predict_their_top_candidate():
    ctx = _fixture_context()
    row = ManifestRow(image_id="q", description="David slings a stone at Goliath")
    for kind in (QueryKind.KEYWORD, QueryKind.VECTOR, QueryKind.HYBRID):
        pred = classify(row, MethodSpec(kind), ctx)
        assert pred.predicted.raw == pred.candidates[0].code.raw
        assert pred.candidates == sorted(pred.candidates, key=lambda h: h.rank)


def test_classify_uses_cached_description_over_manifest(tmp_path):
    ctx = _fixture_context()
    cache = DescriptionCache(tmp_path / "d.jsonl")
    cache.put(DescriptionRecord(
        image_id="q", mode=DescriptionMode.FULL_PAGE,
        text="the building of the ark", model_id="m", created_at=now_iso(),
    ))
    ctx.description_cache = cache
    row = ManifestRow(image_id="q", description="Christ washes the feet of the apostles")
    pred = classify(row, MethodSpec(QueryKind.KEYWORD), ctx)
    assert pred.predicted.raw == "71B32"  # cache text won, manifest text ignored


def test_classify_missing_description():
    ctx = _fixture_context()
    with pytest.raises(MissingDescriptionError, match="q7"):
        classify(ManifestRow(image_id="q7"), MethodSpec(QueryKind.KEYWORD), ctx)


def test_classify_no_candidates():
    ctx = _fixture_context()
    row = ManifestRow(image_id="q", description="zzzz qqqq xxxx")
    with pytest.raises(NoCandidatesError):
        classify(row, MethodSpec(QueryKind.KEYWORD), ctx)


def test_classify_requires_context_members():
    row = ManifestRow(image_id="q", description="ark")
    with pytest.raises(MissingIndexError, match="keyword index"):
        classify(row, MethodSpec(QueryKind.KEYWORD), ClassifyContext())
    with pytest.raises(MissingIndexError, match="embedding provider"):
        classify(row, MethodSpec(QueryKind.VECTOR), ClassifyContext(vector_index=_fixture_context().vector_index))
    with pytest.raises(MissingIndexError, match="reference set"):
        classify(ManifestRow(image_id="q"), MethodSpec(QueryKind.IMAGE), ClassifyContext())
    full = _fixture_context()
    for kind in (QueryKind.HYBRID, QueryKind.RAG_HYBRID):
        # with several members missing, the keyword index is named first, then the vector index
        for ctx, what in (
            (ClassifyContext(), "keyword index"),
            (ClassifyContext(keyword_index=full.keyword_index), "vector index"),
            (ClassifyContext(keyword_index=full.keyword_index, vector_index=full.vector_index),
             "embedding provider"),
        ):
            with pytest.raises(MissingIndexError, match=what):
                classify(row, MethodSpec(kind), ctx)
    full.documents = None
    with pytest.raises(MissingIndexError, match="taxonomy documents"):
        classify(row, MethodSpec(QueryKind.RAG_HYBRID), full)


# ---------------------------------------------------------------- classify, RAG

_OUTSIDE = "MissingIndexError: q: code {} is not in the loaded taxonomy; index and taxonomy are out of sync"


def test_classify_rag_offline_overrides_vector_rank_one():
    docs = {
        "71B3": "story of noah",
        "73D2": "episode of the last supper",
        "71H14": "story of david and goliath",
    }
    description = "the story of noah"
    ctx = ClassifyContext(
        documents=docs,
        vector_index=build_vector_index(
            [("71B3", [1.0, 0.0, 0.0]), ("73D2", [0.0, 1.0, 0.0]), ("71H14", [0.0, 0.0, 1.0])]
        ),
        embedder=MapEmbedder({description: [0.1, 0.9, 0.4]}),
    )
    pred = classify(
        ManifestRow(image_id="q", description=description),
        MethodSpec(QueryKind.RAG_VECTOR, rag_k=3),
        ctx,
    )
    # the vector ranking put the supper doc first, token overlap picked rank 3
    assert pred.candidates[0].code.raw == "73D2"
    assert [h.code.raw for h in pred.candidates] == ["73D2", "71H14", "71B3"]
    assert pred.predicted.raw == "71B3"
    assert pred.fallback_flag is False


def test_classify_rag_with_chat_provider():
    ctx = _fixture_context()
    ctx.chat = EchoChat("71B33")
    text = ctx.documents["71B32"]
    pred = classify(
        ManifestRow(image_id="q", description=text),
        MethodSpec(QueryKind.RAG_VECTOR, rag_k=5),
        ctx,
    )
    assert ctx.chat.calls == 1
    assert pred.predicted.raw == "71B33"
    assert pred.fallback_flag is False


def test_classify_rag_fallback_flag_set_on_unusable_reply():
    ctx = _fixture_context()
    ctx.chat = EchoChat("I cannot decide.")
    text = ctx.documents["71B32"]
    pred = classify(
        ManifestRow(image_id="q", description=text),
        MethodSpec(QueryKind.RAG_HYBRID, rag_k=5),
        ctx,
    )
    assert pred.fallback_flag is True
    assert pred.predicted.raw == pred.candidates[0].code.raw


def test_classify_rag_prediction_always_among_candidates(fixtures_dir):
    rows = read_manifest(fixtures_dir / "manifest.csv")
    for kind in (DatabaseKind.BASIC, DatabaseKind.HIERARCHICAL):
        ctx = _fixture_context(kind)
        for method_kind in (QueryKind.RAG_VECTOR, QueryKind.RAG_HYBRID):
            for row in rows:
                pred = classify(row, MethodSpec(method_kind, database_kind=kind), ctx)
                assert pred.predicted.raw in {h.code.raw for h in pred.candidates}


def test_classify_rag_requires_documents():
    ctx = _fixture_context()
    ctx.documents = None
    text = "the building of the ark"
    with pytest.raises(MissingIndexError, match="taxonomy documents"):
        classify(ManifestRow(image_id="q", description=text), MethodSpec(QueryKind.RAG_VECTOR), ctx)


def test_classify_rag_names_a_candidate_missing_from_the_documents():
    row = ManifestRow(image_id="q", description="the building of the ark and the embarkation")
    method = MethodSpec(QueryKind.RAG_HYBRID)
    top, second = [h.code.raw for h in classify(row, method, _fixture_context()).candidates[:2]]
    assert top == "71B32"
    for missing in (top, second):  # every candidate is checked, not only the top hit
        ctx = _fixture_context()
        del ctx.documents[missing]
        result = classify_batch([row], method, ctx)
        assert result.predictions == []
        assert [(e.image_id, e.error) for e in result.errors] == [("q", _OUTSIDE.format(missing))]


# ---------------------------------------------------------------- classify, image method

def test_classify_image_method(fixtures_dir):
    ctx = _fixture_context()
    ctx.references = ImageReferenceSet.from_jsonl(fixtures_dir / "refs.jsonl")
    rows = read_manifest(fixtures_dir / "manifest.csv")
    pred = classify(rows[0], MethodSpec(QueryKind.IMAGE), ctx)
    assert pred.predicted.raw == "71B32"
    assert pred.ground_truth == "71B32"
    assert pred.group == "set-a"
    assert pred.candidates[0].score >= 1.0  # vote counts, not similarities
    assert pred.candidates[0].rank == 1


def test_classify_image_requires_vector_path():
    ctx = ClassifyContext(references=ImageReferenceSet([[parse_code("73D")]], np.array([[1.0, 0.0]])))
    with pytest.raises(ManifestParseError, match="vector_path"):
        classify(ManifestRow(image_id="q"), MethodSpec(QueryKind.IMAGE), ctx)


def test_classify_image_reads_both_vector_file_shapes(tmp_path):
    refs = ImageReferenceSet([[parse_code("73D")]], np.array([[1.0, 0.0]]))
    bare = tmp_path / "bare.json"
    bare.write_text("[1.0, 0.0]")
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text('{"vector": [1.0, 0.0]}')
    for path in (bare, wrapped):
        ctx = ClassifyContext(references=refs)
        pred = classify(
            ManifestRow(image_id="q", vector_path=str(path)), MethodSpec(QueryKind.IMAGE), ctx
        )
        assert pred.predicted.raw == "73D"


def test_classify_image_reads_a_vector_file_that_begins_with_a_byte_order_mark(fixtures_dir, tmp_path):
    plain = fixtures_dir / "vectors" / "img001.json"
    marked = tmp_path / "img001.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())  # as an editor's "UTF-8 with BOM" saves it
    ctx = ClassifyContext(references=ImageReferenceSet.from_jsonl(fixtures_dir / "refs.jsonl"))
    with_bom, without = (classify(ManifestRow(image_id="q", vector_path=str(path)), MethodSpec(QueryKind.IMAGE), ctx)
                         for path in (marked, plain))
    assert with_bom == without


@pytest.mark.parametrize("text", ['{"vector": ["1.5", true, 0]}', '[1.0, false]', '"10"', '{"vector": null}'])
def test_classify_image_rejects_a_query_vector_that_is_not_a_list_of_numbers(tmp_path, text):
    path = tmp_path / "q.json"
    path.write_text(text)
    ctx = ClassifyContext(references=ImageReferenceSet([[parse_code("73D")]], np.array([[1.0, 0.0]])))
    result = classify_batch([ManifestRow(image_id="q", vector_path=str(path))], MethodSpec(QueryKind.IMAGE), ctx)
    assert result.predictions == []
    assert [(e.image_id, e.error) for e in result.errors] == [
        ("q", f"ManifestParseError: {path}: bad query vector file: TypeError('expected a list of numbers')")]


def test_a_malformed_query_vector_file_fails_its_own_row_naming_the_file(tmp_path):
    contents = {
        "cut": b'{"vector": [1.0,\n',
        "not-utf8": b"\xff[1.0, 0.0]",
        "surrogate": b'["\\ud800"]',
        "no-vector": b'{"vec": [1.0, 0.0]}',
        "strings": b'["1.5", 2]',
        "good": b"[1.0, 0.0]",
    }
    rows = []
    for image_id, data in contents.items():
        (tmp_path / f"{image_id}.json").write_bytes(data)
        rows.append(ManifestRow(image_id=image_id, vector_path=str(tmp_path / f"{image_id}.json")))
    ctx = ClassifyContext(references=ImageReferenceSet([[parse_code("73D")]], np.array([[1.0, 0.0]])))
    result = classify_batch(rows, MethodSpec(QueryKind.IMAGE), ctx)
    assert [(p.image_id, p.predicted.raw) for p in result.predictions] == [("good", "73D")]
    assert [e.image_id for e in result.errors] == ["cut", "not-utf8", "surrogate", "no-vector", "strings"]
    for error in result.errors:
        assert error.error.startswith(f"ManifestParseError: {tmp_path / error.image_id}.json: bad query vector file: ")
    reasons = [error.error.rsplit(": bad query vector file: ", 1)[1] for error in result.errors]
    assert reasons[0].startswith("JSONDecodeError(") and reasons[1].startswith("UnicodeDecodeError(")
    assert reasons[2:] == ["ValueError('a lone surrogate \\\\ud800 in a string')", "KeyError('vector')",
                           "TypeError('expected a list of numbers')"]


def test_classify_rejects_prediction_outside_taxonomy(tmp_path):
    vec_file = tmp_path / "v.json"
    vec_file.write_text("[1.0, 0.0]")
    ctx = ClassifyContext(
        documents={"73D": "passion"},
        references=ImageReferenceSet([[parse_code("9")]], np.array([[1.0, 0.0]])),
    )
    result = classify_batch([ManifestRow(image_id="q", vector_path=str(vec_file))], MethodSpec(QueryKind.IMAGE), ctx)
    assert result.predictions == []
    assert [(e.image_id, e.error) for e in result.errors] == [("q", _OUTSIDE.format("9"))]


# ---------------------------------------------------------------- batch

def test_classify_batch_isolates_failures():
    ctx = _fixture_context()
    rows = [
        ManifestRow(image_id="ok1", description="the building of the ark"),
        ManifestRow(image_id="bad", description="zzzz qqqq"),
        ManifestRow(image_id="ok2", description="David slings a stone at Goliath"),
    ]
    result = classify_batch(rows, MethodSpec(QueryKind.KEYWORD), ctx)
    assert [p.image_id for p in result.predictions] == ["ok1", "ok2"]
    assert len(result.errors) == 1
    assert result.errors[0].image_id == "bad"
    assert "NoCandidatesError" in result.errors[0].error


def test_classify_batch_empty():
    result = classify_batch([], MethodSpec(QueryKind.KEYWORD), _fixture_context())
    assert result.predictions == [] and result.errors == []


def test_classify_batch_worker_count_does_not_change_output(fixtures_dir, tmp_path):
    rows = read_manifest(fixtures_dir / "manifest.csv")
    outs = []
    for workers in (1, 4):
        ctx = _fixture_context()
        result = classify_batch(rows, MethodSpec(QueryKind.HYBRID), ctx, workers=workers)
        assert not result.errors
        path = tmp_path / f"w{workers}.jsonl"
        write_predictions_jsonl(result.predictions, path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", [1, 4])
def test_one_context_for_every_text_method_writes_what_a_fresh_context_per_method_does(fixtures_dir, tmp_path, workers):
    # each row runs every text method in turn, as the methods compare on one description, so the later methods
    # find the row's query kept on the shared indices; at 4 workers, threads switched every microsecond race for them
    rows = read_manifest(fixtures_dir / "manifest.csv") * 4
    kinds = [kind for kind in QueryKind if kind is not QueryKind.IMAGE]
    shared = _fixture_context()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        per_row, errors = run_rows(lambda row: [classify(row, MethodSpec(kind), shared) for kind in kinds], rows,
                                   workers)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for i, kind in enumerate(kinds):
        fresh = classify_batch(rows, MethodSpec(kind), _fixture_context(), workers=workers)
        assert not fresh.errors
        write_predictions_jsonl([preds[i] for preds in per_row], tmp_path / "shared.jsonl")
        write_predictions_jsonl(fresh.predictions, tmp_path / "fresh.jsonl")
        assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes(), kind


_SCANNING_KINDS = (QueryKind.VECTOR, QueryKind.HYBRID, QueryKind.RAG_HYBRID, QueryKind.IMAGE)


def test_four_workers_hand_off_no_block_and_match_one_worker(monkeypatch, tmp_path):
    # at one worker the rows run on this thread, at four on row threads; either way each row's scan is one gemv
    # on the whole matrix and one exact rescore of a shortlist, and the predictions match
    dim, n = 16, 600
    scans, rescores = [], []
    scan, row_dots = retrieval._scan, retrieval._row_dots
    monkeypatch.setattr(retrieval, "_scan", lambda matrix, q: scans.append(len(matrix)) or scan(matrix, q))
    monkeypatch.setattr(retrieval, "_row_dots", lambda matrix, q: rescores.append(len(matrix)) or row_dots(matrix, q))
    embedder = OfflineHashEmbedder(dim=dim)
    words = ["ark", "flood", "dove", "raven", "rainbow", "noah", "tower", "babel"]
    docs = {f"7{i}": f"{words[i % 8]} {words[i // 8 % 8]} {words[i // 64 % 8]} {i}" for i in range(n)}
    vectors = {code: embedder.embed(text) for code, text in docs.items()}

    def context():  # fresh indices for each batch: its first row must not find the last batch's scan kept
        return ClassifyContext(
            documents=docs,
            keyword_index=build_keyword_index(docs.items()),
            vector_index=build_vector_index(vectors.items()),
            embedder=embedder,
            references=ImageReferenceSet([[parse_code(code)] for code in vectors], np.stack(list(vectors.values()))),
        )

    rows = []
    for i in range(0, n, 25):
        path = tmp_path / f"q{i}.json"
        path.write_text(json.dumps(vectors[f"7{i}"].tolist()))
        rows.append(ManifestRow(image_id=f"q{i}", description=docs[f"7{i}"], vector_path=str(path)))
    for kind in _SCANNING_KINDS:
        for workers in (1, 4):
            scans.clear()
            rescores.clear()
            result = classify_batch(rows, MethodSpec(kind), context(), workers=workers)
            assert not result.errors, result.errors
            write_predictions_jsonl(result.predictions, tmp_path / f"{kind.value}-{workers}.jsonl")
            assert scans == [n] * len(rows), (kind, workers)
            assert len(rescores) == len(rows) and max(rescores) < n, (kind, workers, rescores)
        assert (tmp_path / f"{kind.value}-4.jsonl").read_bytes() == (tmp_path / f"{kind.value}-1.jsonl").read_bytes()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("iconclassify-scan")]


def test_one_worker_runs_the_rows_on_the_calling_thread():
    def thread_of(row):
        return threading.current_thread()

    assert run_rows(thread_of, ["a", "b", "c"], 1) == ([threading.current_thread()] * 3, [])
    threads, errors = run_rows(thread_of, ["a", "b", "c"], 2)
    assert not errors and threading.current_thread() not in threads


def test_embedding_cache_makes_batches_resumable(fixtures_dir, tmp_path):
    rows = read_manifest(fixtures_dir / "manifest.csv")
    cache = EmbeddingCache(tmp_path / "emb.jsonl")

    first = CountingOfflineEmbedder()
    ctx = _fixture_context(embedder=first, embedding_cache=cache)
    r1 = classify_batch(rows, MethodSpec(QueryKind.VECTOR), ctx)
    first_query_texts = first.embedded - len(ctx.documents)  # doc embeddings happen at build time
    assert first_query_texts == len(rows)

    second = CountingOfflineEmbedder()
    ctx2 = _fixture_context(embedder=second, embedding_cache=EmbeddingCache(tmp_path / "emb.jsonl"))
    r2 = classify_batch(rows, MethodSpec(QueryKind.VECTOR), ctx2)
    assert second.embedded == len(ctx2.documents)  # every query vector came from the cache
    assert [p.predicted.raw for p in r1.predictions] == [p.predicted.raw for p in r2.predictions]


# ---------------------------------------------------------------- the full matrix

def test_all_fifteen_methods_run_over_fixture(fixtures_dir, tmp_path):
    rows = read_manifest(fixtures_dir / "manifest.csv")
    refs = ImageReferenceSet.from_jsonl(fixtures_dir / "refs.jsonl")
    cache = DescriptionCache(tmp_path / "desc.jsonl")
    for row in rows:
        for mode in DescriptionMode:
            cache.put(DescriptionRecord(
                image_id=row.image_id, mode=mode, text=row.description,
                model_id="manifest", created_at=now_iso(),
            ))
    contexts = {
        kind: _fixture_context(kind, description_cache=cache, references=refs)
        for kind in DatabaseKind
    }
    for spec in standard_method_matrix():
        ctx = contexts[spec.database_kind]
        result = classify_batch(rows, spec, ctx)
        assert not result.errors, (spec.label, result.errors)
        assert len(result.predictions) == 12
        for pred in result.predictions:
            assert pred.predicted.raw in ctx.documents or spec.query_kind is QueryKind.IMAGE
            assert pred.method is spec


# ---------------------------------------------------------------- serialization

def _sample_predictions():
    ctx = _fixture_context()
    rows = [
        ManifestRow(image_id="q1", description="the building of the ark",
                    ground_truth="71B32", group="set-a"),
        ManifestRow(image_id="q2", description="David slings a stone at Goliath"),
    ]
    return classify_batch(rows, MethodSpec(QueryKind.KEYWORD), ctx).predictions


def test_write_predictions_jsonl_shape(tmp_path):
    preds = _sample_predictions()
    path = tmp_path / "p.jsonl"
    write_predictions_jsonl(preds, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["image_id"] == "q1"
    assert first["predicted"] == "71B32"
    assert first["ground_truth"] == "71B32"
    assert first["group"] == "set-a"
    assert first["fallback"] is False
    assert first["method"]["label"] == "keyword/page/basic"
    assert [c["rank"] for c in first["candidates"]] == list(range(1, len(first["candidates"]) + 1))
    second = json.loads(lines[1])
    assert second["ground_truth"] is None
    assert second["group"] is None
    # deterministic output: a second write produces identical bytes
    other = tmp_path / "p2.jsonl"
    write_predictions_jsonl(preds, other)
    assert other.read_bytes() == path.read_bytes()


def test_write_predictions_csv_with_groups(tmp_path):
    preds = _sample_predictions()
    path = tmp_path / "p.csv"
    write_predictions_csv(preds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "image_id,predicted_code,ground_truth_code,group"
    assert lines[1] == "q1,71B32,71B32,set-a"
    assert lines[2].startswith("q2,") and lines[2].endswith(",,")


def test_write_predictions_csv_omits_group_column_when_absent(tmp_path):
    preds = [p for p in _sample_predictions() if p.group is None]
    path = tmp_path / "p.csv"
    write_predictions_csv(preds, path)
    assert path.read_text().splitlines()[0] == "image_id,predicted_code,ground_truth_code"
