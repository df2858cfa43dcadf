import ast
import dataclasses
import json
import math
import os
import random
import re
import signal
import struct
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from iconclassify import retrieval
from iconclassify.errors import (
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    EmptyReferenceSetError,
    MalformedLineError,
    MissingIndexError,
    UnknownDocError,
    ZeroVectorError,
)
from iconclassify.retrieval import (
    ImageReferenceSet,
    KeywordIndex,
    VectorIndex,
    _idf,
    bm25_score,
    build_keyword_index,
    build_vector_index,
    cosine_distance,
    hybrid_search,
    image_vote_classify,
    keyword_search,
    load_index,
    save_index,
    tokenize,
    vector_norms,
    vector_search,
)
from iconclassify.taxonomy import DatabaseKind, iter_jsonl, load_taxonomy, parse_code, render_doc

from conftest import FIXTURES, npy_claiming

INDEX_FILES = ("keyword.json", "keyword-offsets.npy", "keyword-rows.npy", "keyword-tfs.npy", "keyword-lengths.npy",
               "vectors.jsonl", "vectors.npy", "meta.json")

# Three equal-length docs: every doc has 4 tokens, so doc_len == avg_len and
# the length normalization factor is exactly 1. A term with df=1 then scores
# exactly ln(1 + 2.5/1.5) = ln(8/3).
TOY_DOCS = [
    ("71B32", "the ark of noah"),
    ("71B33", "the flood of water"),
    ("73D2", "the dove of peace"),
]
LN_8_3 = 0.9808292530117262


def _fixture_docs(kind: DatabaseKind) -> list[tuple[str, str]]:
    tax = load_taxonomy(FIXTURES / "taxonomy.tsv")
    return [(entry.code.raw, render_doc(entry, tax, kind)) for entry in tax]


# ---------------------------------------------------------------- tokenize

def test_tokenize_lowercases_and_splits():
    assert tokenize("Christ washes Peter's feet") == [
        "christ", "washes", "peter", "s", "feet",
    ]


def test_tokenize_keeps_digits_drops_punctuation():
    assert tokenize("(Genesis 7:5-9)") == ["genesis", "7", "5", "9"]
    assert tokenize("...") == []
    assert tokenize("snake_case") == ["snake", "case"]


# ---------------------------------------------------------------- keyword index

def test_build_keyword_index_counts():
    index = build_keyword_index([("d1", "noah ark"), ("d2", "flood")])
    assert index.doc_lengths == {"d1": 2, "d2": 1}
    assert index.avg_doc_length == 1.5
    assert index.doc_count == 2
    assert index.postings["noah"] == [("d1", 1)]
    assert index.postings["flood"] == [("d2", 1)]


def test_keyword_index_works_out_its_count_and_mean_length():
    index = KeywordIndex(["d1", "d2", "d3"], ["ark"], np.array([0, 1]), np.array([0]), np.array([1]),
                         np.array([1, 0, 1]))
    assert (index.doc_count, index.avg_doc_length, index.spans) == (3, 2 / 3, {"ark": (0, 1)})
    assert (index.postings, index.doc_lengths) == ({"ark": [("d1", 1)]}, {"d1": 1, "d2": 0, "d3": 1})
    assert [f.name for f in dataclasses.fields(KeywordIndex) if f.init] == ["ids", "terms", "offsets", "rows", "tfs",
                                                                            "lengths"]
    with pytest.raises(EmptyCorpusError):
        KeywordIndex([], [], np.array([0]), np.array([]), np.array([]), np.array([]))


# each fault a KeywordIndex refuses, as an in-place edit of its ids, terms, offsets (a list here) and rows, with the
# error and message it gives. The index is over ("11H", "flood dove"), ("71B", "ark flood") and ("73D", "ark"):
# flood, dove, ark hold rows [0, 1], [0] and [1, 2]
_KEYWORD_FAULTS = {
    "unsorted_ids": (lambda ids, terms, offsets, rows: ids.reverse(),
                     ValueError, "the doc ids are not in strictly ascending order"),
    "term_not_a_string": (lambda ids, terms, offsets, rows: terms.__setitem__(1, 7),
                          TypeError, "the doc ids and the terms must be lists of strings"),
    "offsets_one_short": (lambda ids, terms, offsets, rows: offsets.pop(), ValueError, "3 offsets for 3 terms"),
    "offsets_one_long": (lambda ids, terms, offsets, rows: offsets.append(5), ValueError, "5 offsets for 3 terms"),
    "untiled_spans": (lambda ids, terms, offsets, rows: offsets.__setitem__(3, 4),
                      ValueError, "the 3 terms' slices do not tile the 5 rows, one posting or more each"),
    "term_listed_twice": (lambda ids, terms, offsets, rows: terms.__setitem__(2, "flood"),
                          ValueError, "a term is listed twice"),
    "row_out_of_range": (lambda ids, terms, offsets, rows: rows.__setitem__(4, 3),
                         ValueError, "a row outside [0, 3)"),
    "row_repeated_within_a_term": (lambda ids, terms, offsets, rows: rows.__setitem__(4, 1),
                                   ValueError, "the rows of 'ark' repeat a doc or are out of order"),
}


@pytest.mark.parametrize("fault, error, message", _KEYWORD_FAULTS.values(), ids=_KEYWORD_FAULTS)
def test_keyword_index_refuses_at_construction_what_load_index_refuses(tmp_path, fault, error, message):
    kw = build_keyword_index([("71B", "ark flood"), ("73D", "ark"), ("11H", "flood dove")])
    assert (kw.ids, kw.terms, kw.offsets.tolist(), kw.rows.tolist()) == (
        ["11H", "71B", "73D"], ["flood", "dove", "ark"], [0, 2, 3, 5], [0, 1, 0, 1, 2])
    save_index(tmp_path, kw, build_vector_index([(d, [1.0, float(i)]) for i, d in enumerate(kw.ids)]))
    ids, terms, offsets, rows = list(kw.ids), list(kw.terms), kw.offsets.tolist(), kw.rows.copy()
    fault(ids, terms, offsets, rows)
    offsets = np.array(offsets, dtype=np.int64)
    with pytest.raises(error) as built:
        KeywordIndex(ids, terms, offsets, rows, kw.tfs, kw.lengths)
    assert type(built.value) is error and str(built.value) == message
    # the same fault, written into the saved files as the constructor was given it
    (tmp_path / "keyword.json").write_text(json.dumps({"ids": ids, "terms": terms}))
    np.save(tmp_path / "keyword-offsets.npy", offsets)
    np.save(tmp_path / "keyword-rows.npy", rows)
    with pytest.raises(MissingIndexError) as loaded:
        load_index(tmp_path)
    assert str(loaded.value) == f"{tmp_path}: unreadable index file: {built.value!r}; rebuild it with `index build`"


def test_keyword_index_refuses_ids_that_are_not_strings():
    with pytest.raises(TypeError, match="^the doc ids and the terms must be lists of strings$"):
        KeywordIndex(["d1", 2], ["ark"], np.array([0, 1]), np.array([0]), np.array([1]), np.array([1, 1]))


@pytest.mark.parametrize("offsets", [[0, 1], np.array([0.0, 1.0]), np.array([0, 1], dtype=np.int32),
                                     np.array([[0, 1]], dtype=np.int64)], ids=["list", "float", "int32", "rank_2"])
def test_keyword_index_refuses_offsets_that_are_not_an_int64_vector(offsets):
    with pytest.raises(TypeError, match="^the offsets must be an int64 array of rank 1$"):
        KeywordIndex(["d1"], ["ark"], offsets, np.array([0]), np.array([1]), np.array([1]))


def test_build_keyword_index_rejects_duplicates():
    with pytest.raises(DuplicateDocIdError):
        build_keyword_index([("d1", "a"), ("d1", "b")])


def test_build_keyword_index_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_keyword_index([])


def _peak_bytes(call):
    """`call()` and the peak of memory allocated while it ran; numpy reports its buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_build_keyword_index_equals_a_walk_of_the_tokens():
    rng = random.Random(20261020)
    words = [f"w{i}" for i in range(60)]
    docs = [(f"7{i}", " ".join(rng.choices(words, k=rng.randint(0, 12))) + rng.choice(["", " W0.", "_w1"]))
            for i in range(300)]
    index = build_keyword_index(reversed(docs))
    terms: dict[str, list[tuple[str, int]]] = {}  # in order of first appearance over the docs in id order
    for doc_id, text in sorted(docs):
        for term, tf in Counter(tokenize(text)).items():
            terms.setdefault(term, []).append((doc_id, tf))
    assert list(index.spans) == list(terms) and dict(index.postings) == terms
    assert index.lengths.tolist() == [len(tokenize(text)) for _, text in sorted(docs)]
    assert (index.rows.dtype, index.tfs.dtype, index.lengths.dtype) == (np.int32,) * 3


def test_build_keyword_index_holds_no_corpus_wide_token_list():
    # one document's tokens at a time: no list of every token, nor one Python int per token, is alive at once
    rng = random.Random(20261021)
    words = [f"w{i}" for i in range(3000)]
    docs = [(f"7{i}", " ".join(rng.choices(words, k=30))) for i in range(4000)]
    index, peak = _peak_bytes(lambda: build_keyword_index(docs))
    assert sum(index.lengths.tolist()) == 4000 * 30
    assert peak < 80 * 4000 * 30, f"{peak / (4000 * 30):.1f} bytes per token"


# ---------------------------------------------------------------- bm25 scoring

def test_bm25_rare_term_hand_value():
    index = build_keyword_index(TOY_DOCS)
    score = bm25_score(index, ["ark"], "71B32")
    assert score == pytest.approx(LN_8_3, abs=1e-6)
    assert score == pytest.approx(math.log(8 / 3), abs=1e-12)


def test_bm25_term_in_every_doc_stays_positive():
    # df == N: the +0.5 smoothing keeps the IDF at ln(8/7), never <= 0
    index = build_keyword_index(TOY_DOCS)
    score = bm25_score(index, ["the"], "71B32")
    assert score == pytest.approx(math.log(8 / 7), abs=1e-12)
    assert score > 0.0


def test_bm25_absent_terms_contribute_zero():
    index = build_keyword_index(TOY_DOCS)
    assert bm25_score(index, ["zebra"], "71B32") == 0.0
    assert bm25_score(index, ["flood"], "71B32") == 0.0
    assert bm25_score(index, ["ark", "zebra"], "71B32") == pytest.approx(
        bm25_score(index, ["ark"], "71B32")
    )


def test_bm25_repeated_query_term_adds_up():
    index = build_keyword_index(TOY_DOCS)
    once = bm25_score(index, ["ark"], "71B32")
    assert bm25_score(index, ["ark", "ark"], "71B32") == pytest.approx(2 * once)


def test_bm25_unknown_doc():
    index = build_keyword_index(TOY_DOCS)
    with pytest.raises(UnknownDocError):
        bm25_score(index, ["ark"], "nope")


def _bm25_by_views(index, terms, doc_id):
    """BM25 of one document by a linear walk of the `postings` and `doc_lengths` views, which find it by id."""
    score = 0.0
    for term in terms:
        plist = index.postings.get(term, [])
        tf = next((ptf for pid, ptf in plist if pid == doc_id), 0)
        if tf:
            idf = retrieval._idf(index.doc_count, len(plist))
            score += retrieval._term_score(idf, tf, index.doc_lengths[doc_id], index.avg_doc_length)
    return score


def test_bm25_score_reads_only_the_arrays():
    index = build_keyword_index([("71B3", "ark"), ("71B32", "the ark ark"), ("73", "the flood")])
    for doc_id in ("71", "71B31", "74", "", 71):  # below the first id, between two, after the last, empty, not a str
        with pytest.raises(UnknownDocError):
            bm25_score(index, ["ark"], doc_id)
    once = bm25_score(index, ["ark"], "71B32")
    assert once > 0.0 and bm25_score(index, ["ark", "zebra", "ark"], "71B32") == 2 * once
    assert "postings" not in vars(index) and "doc_lengths" not in vars(index)


@pytest.mark.parametrize("kind", list(DatabaseKind))
def test_bm25_score_equals_a_walk_of_the_views_on_every_term_and_doc(kind):
    index = build_keyword_index(_fixture_docs(kind))
    got = {(term, doc_id): bm25_score(index, [term], doc_id) for term in index.spans for doc_id in index.ids}
    assert "postings" not in vars(index) and "doc_lengths" not in vars(index)
    assert {pair: float.hex(score) for pair, score in got.items()} == {
        (term, doc_id): float.hex(_bm25_by_views(index, [term], doc_id)) for term, doc_id in got}


def test_bm25_score_increases_with_tf():
    # equal-length docs so only the term frequency varies
    index = build_keyword_index(
        [("d1", "ark w x y"), ("d2", "ark ark x y"), ("d3", "ark ark ark y")]
    )
    scores = [bm25_score(index, ["ark"], d) for d in ("d1", "d2", "d3")]
    assert scores[0] < scores[1] < scores[2]


def test_idf_positive_for_any_df():
    rng = random.Random(20240818)
    for _ in range(200):
        n = rng.randint(1, 5000)
        df = rng.randint(1, n)
        assert _idf(n, df) > 0.0


# ---------------------------------------------------------------- keyword search

def test_keyword_search_noah_query(fixtures_dir):
    docs = _fixture_docs(DatabaseKind.BASIC)
    index = build_keyword_index(docs)
    hits = keyword_search(index, "the building of the ark", 5)
    assert hits[0].code.raw == "71B32"
    assert hits[0].rank == 1
    assert hits[0].score > 2 * hits[1].score


def test_keyword_search_retrieves_own_text_basic():
    docs = _fixture_docs(DatabaseKind.BASIC)
    index = build_keyword_index(docs)
    for doc_id, text in docs:
        hits = keyword_search(index, text, 1)
        assert hits[0].code.raw == doc_id


def test_keyword_search_own_text_hierarchical_top3():
    # a short parent text can lose to a child that repeats its terms, but
    # the doc itself always stays near the top
    docs = _fixture_docs(DatabaseKind.HIERARCHICAL)
    index = build_keyword_index(docs)
    for doc_id, text in docs:
        hits = keyword_search(index, text, 3)
        assert doc_id in [h.code.raw for h in hits]


def test_keyword_search_no_matching_terms_is_empty():
    index = build_keyword_index(TOY_DOCS)
    assert keyword_search(index, "zebra quagga", 5) == []
    assert keyword_search(index, "", 5) == []


def test_keyword_search_excludes_zero_scores():
    index = build_keyword_index(TOY_DOCS)
    hits = keyword_search(index, "ark", 10)
    assert [h.code.raw for h in hits] == ["71B32"]


def test_keyword_search_matches_score_all_oracle():
    # ranking must agree bit-for-bit with scoring every doc independently
    for kind in (DatabaseKind.BASIC, DatabaseKind.HIERARCHICAL):
        docs = _fixture_docs(kind)
        index = build_keyword_index(docs)
        queries = [
            "the building of the ark",
            "David slings a stone at Goliath",
            "Christ washes the feet of the apostles",
            "story of Noah and the flood",
            "the Last Supper",
        ]
        for query in queries:
            terms = tokenize(query)
            oracle = sorted(
                (
                    (doc_id, bm25_score(index, terms, doc_id))
                    for doc_id, _ in docs
                    if bm25_score(index, terms, doc_id) > 0.0
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )
            hits = keyword_search(index, query, len(docs))
            assert [(h.code.raw, h.score) for h in hits] == oracle
            assert [h.rank for h in hits] == list(range(1, len(oracle) + 1))


# inserted out of id order; "the" is in every doc, and 72 and 75 tie on every query
SCAN_DOCS = [
    ("79", "the feast of mariä himmelfahrt"),
    ("75", "the ark of noah"),
    ("71", "the ark the flood the rain"),
    ("73", "the dove of peace"),
    ("72", "the ark of noah"),
    ("70", "mariä the queen"),
]


def _bm25_scan(index, query, k):
    """Every doc scored by bm25_score, best first, ties by id: (id, rank, score hex)."""
    terms = tokenize(query)
    scored = [(doc_id, bm25_score(index, terms, doc_id)) for doc_id in index.doc_lengths]
    ranked = sorted((pair for pair in scored if pair[1] > 0.0), key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, i + 1, float.hex(score)) for i, (doc_id, score) in enumerate(ranked[:k])]


def test_keyword_search_equals_a_bm25_scan_before_and_after_a_round_trip(tmp_path):
    built = build_keyword_index(SCAN_DOCS)
    save_index(tmp_path, built, build_vector_index((d, [1.0, float(i)]) for i, (d, _) in enumerate(SCAN_DOCS)))
    loaded, _, _ = load_index(tmp_path)
    assert loaded.ids == built.ids == sorted(d for d, _ in SCAN_DOCS) != [d for d, _ in SCAN_DOCS]
    (first, _, score1), (second, _, score2) = _bm25_scan(built, "noah", 2)
    assert (first, second) == ("72", "75") and score1 == score2  # so k = 1 cuts a tie
    queries = ["the ark ark noah", "the", "Mariä", "noah", "the flood of mariä the rain", "zebra"]
    for query in queries:
        for k in (1, 2, 3, len(SCAN_DOCS) + 2):
            expected = _bm25_scan(built, query, k)
            for index in (built, loaded):
                hits = keyword_search(index, query, k)
                assert [(h.code.raw, h.rank, float.hex(h.score)) for h in hits] == expected, (query, k)


def test_a_repeat_keyword_query_with_another_k_equals_a_fresh_index():
    index = build_keyword_index(SCAN_DOCS)
    for query in ("the ark ark noah", "the flood of mariä the rain"):
        for k in (1, 3, len(SCAN_DOCS) + 2):
            keyword_search(index, query, 2)  # leaves this query's scores on the index
            hits = keyword_search(index, query, k)
            fresh = keyword_search(build_keyword_index(SCAN_DOCS), query, k)
            assert [(h.code.raw, h.rank, float.hex(h.score)) for h in hits] == \
                [(h.code.raw, h.rank, float.hex(h.score)) for h in fresh], (query, k)


def _synthetic_corpus(seed: int, n_docs: int) -> tuple[list[tuple[str, str]], list[str]]:
    """Docs in shuffled id order over a skewed vocabulary, with repeats, Unicode and empty docs; and the vocabulary."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(80)] + ["mariä", "ark", "noah", "7"]
    weights = [1 / (i + 1) for i in range(len(vocab))]
    docs = [(f"{i // 26 + 1}{chr(65 + i % 26)}", " ".join(rng.choices(vocab, weights, k=rng.randrange(0, 25))))
            for i in range(n_docs)]
    rng.shuffle(docs)
    return docs, vocab


def _scan_from_text(docs: list[tuple[str, str]], query: str, k: int) -> list[tuple[str, int, str]]:
    """BM25 of every doc from its own Counter of tokens, by the formula written out: (id, rank, score hex)."""
    counts = {doc_id: Counter(tokenize(text)) for doc_id, text in docs}
    avg = sum(sum(c.values()) for c in counts.values()) / len(docs)
    df = Counter(term for c in counts.values() for term in c)
    k1, b = retrieval.DEFAULT_K1, retrieval.DEFAULT_B
    scored = []
    for doc_id, c in counts.items():
        score = 0.0
        for term in tokenize(query):
            if c[term]:
                idf = math.log(1 + (len(docs) - df[term] + 0.5) / (df[term] + 0.5))
                score += idf * (c[term] * (k1 + 1)) / (c[term] + k1 * (1 - b + b * sum(c.values()) / avg))
        if score > 0.0:
            scored.append((-score, doc_id))
    return [(doc_id, i + 1, float.hex(-neg)) for i, (neg, doc_id) in enumerate(sorted(scored)[:k])]


def test_keyword_search_equals_a_from_text_bm25_scan_on_every_term(tmp_path):
    # bm25_score reads views of the index's own arrays, so only a scorer that starts from the text is independent
    docs, vocab = _synthetic_corpus(24, 300)
    built = build_keyword_index(docs)
    rng = np.random.default_rng(24)
    save_index(tmp_path, built, build_vector_index((d, rng.standard_normal(4)) for d, _ in docs))
    loaded, _, _ = load_index(tmp_path)
    queries = [*vocab, "w0 w1 w1 noah", "Mariä w79 ark ark", "absent words"]
    for query in queries:
        for k in (3, len(docs)):
            expected = _scan_from_text(docs, query, k)
            for index in (built, loaded):
                hits = keyword_search(index, query, k)
                assert [(h.code.raw, h.rank, float.hex(h.score)) for h in hits] == expected, (query, k)


@pytest.mark.parametrize("name, dtype", [("offsets", "<u8"), ("offsets", "<i4"), ("rows", ">i4"), ("rows", "<i8"),
                                         ("tfs", "<u1"), ("tfs", "<u4"), ("lengths", ">u2"), ("lengths", "<i2")])
def test_load_index_refuses_a_keyword_array_in_another_integer_width_or_byte_order(tmp_path, name, dtype):
    # save_index writes each array in one dtype, so that is the only one read, though the values here fit another
    save_index(tmp_path, build_keyword_index(TOY_DOCS), build_vector_index([(d, [1.0, 2.0]) for d, _ in TOY_DOCS]))
    path = tmp_path / f"keyword-{name}.npy"
    saved = np.load(path)
    np.save(path, saved.astype(dtype))
    found = re.escape(np.dtype(dtype).str)
    with pytest.raises(MissingIndexError, match=f"keyword-{name}.npy holds {{'descr': '{found}'.*, "
                                                f"not a C-ordered {saved.dtype.str} array of rank 1 "):
        load_index(tmp_path)


def test_keyword_search_hits_carry_parsed_codes():
    index = build_keyword_index(TOY_DOCS)
    hit = keyword_search(index, "dove", 1)[0]
    assert hit.code.segments == ("7", "73", "73D", "73D2")


# ---------------------------------------------------------------- cosine

def test_cosine_distance_identity():
    assert cosine_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [2.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_distance_orthogonal_and_antipodal():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)


def test_cosine_distance_dim_mismatch():
    with pytest.raises(DimMismatchError):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_distance_zero_vector():
    with pytest.raises(ZeroVectorError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("bad", [[1e200, 0.0], [math.nan, 1.0], [-math.inf, 1.0]])
def test_cosine_distance_refuses_a_vector_too_large_to_square_or_not_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would end a -W error run
        for u, v in ((bad, [1.0, 0.0]), ([1.0, 0.0], bad)):
            with pytest.raises(ZeroVectorError):
                cosine_distance(u, v)


# ---------------------------------------------------------------- the one norm

def test_vector_norms_equal_numpys_bit_for_bit_and_overflow_to_inf_with_no_warning():
    matrix = np.random.default_rng(5).standard_normal((40, 33)) * np.logspace(-150, 150, 40)[:, None]
    expected = [float(np.linalg.norm(row)) for row in matrix]
    assert vector_norms(matrix).tolist() == expected
    assert [float(vector_norms(row)) for row in matrix] == expected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert vector_norms(np.array([[1e200, 1.0], [3.0, 4.0], [0.0, 0.0]])).tolist() == [math.inf, 5.0, 0.0]
    assert caught == []


_NORM_HOMES = {"np.linalg.norm": "cosine_distance", "numpy.linalg.norm": "cosine_distance",
               "np.errstate": "vector_norms", "numpy.errstate": "vector_norms"}


def _norms_astray(source: str) -> list[str]:
    """Each use of numpy's norm outside cosine_distance, the independent reference, and of np.errstate
    outside vector_norms, the one norm the program judges vectors by; importing either by name counts too."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and _NORM_HOMES.get(ast.unparse(child), function) != function:
                found.append(f"line {child.lineno}: {ast.unparse(child)} in {function or 'the module'}")
            if isinstance(child, ast.ImportFrom) and any(f"{child.module}.{alias.name}" in _NORM_HOMES
                                                         for alias in child.names):
                found.append(f"line {child.lineno}: import from {child.module}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("source", [
    "np.linalg.norm(v)", "numpy.linalg.norm(v)", "norm = np.linalg.norm", "from numpy.linalg import norm",
    "with np.errstate(over='ignore'): pass", "from numpy import errstate",
    "def vector_norms(x):\n    return np.linalg.norm(x)", "def cosine_distance(u, v):\n    with np.errstate(): pass",
    "def cosine_distance(u, v):\n    def inner(w):\n        return np.linalg.norm(w)",
])
def test_the_one_norm_check_sees_each_stray_norm(source):
    assert _norms_astray(source), source


@pytest.mark.parametrize("source", [
    "def cosine_distance(u, v):\n    return np.linalg.norm(u)",
    "def vector_norms(x):\n    with np.errstate(over='ignore'):\n        return x", "np.linalg.svd(m)",
    "vector_norms(v)", "norm = 1.0", "from numpy.linalg import svd",
])
def test_the_one_norm_check_lets_the_homes_and_other_calls_pass(source):
    assert not _norms_astray(source), source


def test_every_vector_is_judged_by_the_one_norm():
    modules = sorted(Path(retrieval.__file__).parent.glob("*.py"))
    assert Path(retrieval.__file__) in modules
    found = {path.name: _norms_astray(path.read_text(encoding="utf-8")) for path in modules}
    assert not {name: uses for name, uses in found.items() if uses}


# ---------------------------------------------------------------- vector index

def test_build_vector_index_shape_and_norms():
    index = build_vector_index([("a", [3.0, 4.0]), ("b", [1.0, 0.0])])
    assert index.dim == 2
    assert index.ids == ["a", "b"]
    assert index.norms[0] == pytest.approx(5.0)


def test_vector_index_dim_is_the_matrix_width():
    index = build_vector_index([("a", [3.0, 4.0, 0.0])])
    assert index.dim == index.matrix.shape[1] == 3
    assert [f.name for f in dataclasses.fields(VectorIndex)] == ["ids", "matrix", "norms"]


def test_vector_indices_compare_by_identity():
    # an index holds arrays, whose == is elementwise, so equality is identity, as for KeywordIndex
    rows = [("a", [3.0, 4.0]), ("b", [1.0, 0.0])]
    index, twin = build_vector_index(rows), build_vector_index(rows)
    assert index == index and index != twin
    assert {index, twin, index} == {index, twin}


def test_vector_index_works_out_its_own_norms():
    # norms a caller passed would score a query equal to row "71" at 0.2, not 1.0
    with pytest.raises(TypeError):
        VectorIndex(["71", "72"], np.eye(2), np.array([5.0, 5.0]))
    assert vector_search(VectorIndex(["71", "72"], np.eye(2)), [1.0, 0.0], 1)[0].score == 1.0
    matrix = np.random.default_rng(2).standard_normal((5, 3))
    assert VectorIndex([f"7{i}" for i in range(5)], matrix).norms.tobytes() == vector_norms(matrix).tobytes()


@pytest.mark.parametrize("ids, matrix, error, message", [
    ([], np.empty((0, 2)), EmptyCorpusError, "no vectors to index"),
    (["71B"], np.array([1.0, 0.0]), DimMismatchError, "the vectors are an array of rank 1, not a matrix"),
    (["71B", "73D"], np.eye(3), DimMismatchError, "3 vector rows for 2 ids"),
    (["71B", "71B"], np.eye(2), DuplicateDocIdError, "duplicate doc id '71B'"),
    (["71B", "73D"], np.array([[1.0, 0.0], [0.0, 0.0]]), ZeroVectorError,
     "'73D': zero or non-finite vector cannot be indexed"),
], ids=["empty", "flat", "rows_for_other_ids", "repeated_id", "zero_row"])
def test_vector_index_checks_what_it_is_built_from(ids, matrix, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        VectorIndex(ids, matrix)


def test_build_vector_index_rejects_bad_rows():
    with pytest.raises(DuplicateDocIdError):
        build_vector_index([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(DimMismatchError):
        build_vector_index([("a", [1.0, 0.0]), ("b", [1.0])])
    with pytest.raises(ZeroVectorError):
        build_vector_index([("a", [0.0, 0.0])])
    with pytest.raises(EmptyCorpusError):
        build_vector_index([])


@pytest.mark.parametrize("rows, message", [
    # rows of more than one shape do not stack, and the shapes are named in the order they came
    ([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0]), ("11H", [1.0]), ("25F", [1.0])],
     "rows of shapes (2,), (1,) do not stack"),
    ([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0]), ("11H", [[1.0, 0.0], [0.0, 1.0]]), ("25F", [1.0])],
     "rows of shapes (2,), (2, 2), (1,) do not stack"),
    ([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0]), ("11H", 1.0), ("25F", [1.0])],
     "rows of shapes (2,), (), (1,) do not stack"),
    # rows of one shape stack, and VectorIndex refuses the array if it is not a matrix
    ([("71B", [[1.0, 0.0]]), ("73D", [[0.0, 1.0]])], "the vectors are an array of rank 3, not a matrix"),
    ([("71B", 1.0), ("73D", 2.0)], "the vectors are an array of rank 1, not a matrix"),
], ids=["ragged", "2-d", "scalar", "all-2-d", "all-scalar"])
def test_build_vector_index_refuses_rows_that_do_not_make_a_matrix(rows, message):
    with pytest.raises(DimMismatchError, match=f"^{re.escape(message)}$"):
        build_vector_index(rows)


def test_build_vector_index_lets_a_value_that_is_not_a_number_fail_as_numpy_fails_it():
    # the rows are of one shape, so they stack: numpy's own ValueError about the value is the one raised
    with pytest.raises(ValueError, match="could not convert string to float") as caught:
        build_vector_index([("71B", [1.0, 0.0]), ("73D", [0.0, "north"])])
    assert type(caught.value) is ValueError


def test_build_vector_index_names_the_first_repeat():
    with pytest.raises(DuplicateDocIdError, match="^duplicate doc id '73D'$"):
        build_vector_index([("71B", [1.0]), ("73D", [1.0]), ("11H", [1.0]), ("73D", [2.0]), ("71B", [3.0])])


def test_vector_search_self_query_is_rank_one():
    docs = [("71B32", [1.0, 0.0, 0.0]), ("71B33", [0.0, 1.0, 0.0]), ("73D2", [0.6, 0.8, 0.0])]
    index = build_vector_index(docs)
    for doc_id, vec in docs:
        hits = vector_search(index, vec, 3)
        assert hits[0].code.raw == doc_id
        assert hits[0].score == pytest.approx(1.0, abs=1e-7)
        assert hits[0].rank == 1


def test_vector_search_orders_by_angle():
    index = build_vector_index(
        [
            ("73D", [-1.0, 0.0]),   # antipodal
            ("71B", [1.0, 0.0]),    # aligned
            ("73D2", [0.0, 1.0]),   # orthogonal
            ("71B3", [1.0, 1.0]),   # 45 degrees
        ]
    )
    hits = vector_search(index, [1.0, 0.0], 4)
    assert [h.code.raw for h in hits] == ["71B", "71B3", "73D2", "73D"]


def test_vector_search_k_larger_than_corpus():
    index = build_vector_index([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0])])
    assert len(vector_search(index, [1.0, 1.0], 50)) == 2


def test_vector_search_rejects_bad_queries():
    index = build_vector_index([("71B", [1.0, 0.0])])
    with pytest.raises(DimMismatchError):
        vector_search(index, [1.0, 0.0, 0.0], 1)
    with pytest.raises(ZeroVectorError):
        vector_search(index, [0.0, 0.0], 1)


def test_vector_search_matches_per_doc_oracle():
    # exhaustive scan must equal scoring each stored vector with
    # cosine_distance one at a time, including exact float equality
    rng = np.random.default_rng(20240818)
    n, dim = 300, 24
    vectors = rng.standard_normal((n, dim))
    rows = [(f"7{i}", vectors[i]) for i in range(n)]
    index = build_vector_index(rows)
    for _ in range(20):
        query = rng.standard_normal(dim)
        oracle = sorted(
            ((cosine_distance(vec, query), doc_id) for doc_id, vec in rows)
        )
        hits = vector_search(index, query, n)
        assert [h.code.raw for h in hits] == [doc_id for _, doc_id in oracle]
        assert [h.score for h in hits] == [1.0 - dist for dist, _ in oracle]


def test_vector_search_and_vote_are_exact_at_1536d():
    # dense rows, k = every row: both scans must equal a sorted
    # cosine_distance oracle bit for bit, text search tied by id and the
    # vote by row; norms must equal np.linalg.norm of each row
    rng = np.random.default_rng(1536)
    n, dim = 400, 1536
    vectors = rng.standard_normal((n, dim))
    ids = [f"7{i}" for i in range(n)]
    index = build_vector_index(zip(ids, vectors))
    assert np.array_equal(index.norms, [np.linalg.norm(v) for v in vectors])
    # one label per row, so the k=n vote table lists rows in neighbour order
    refs = ImageReferenceSet([[parse_code(doc_id)] for doc_id in ids], vectors)
    for _ in range(5):
        query = rng.standard_normal(dim).tolist()
        dists = [cosine_distance(vectors[i], query) for i in range(n)]
        by_id = sorted(zip(dists, ids))
        hits = vector_search(index, query, n)
        assert [(h.code.raw, h.score) for h in hits] == [(doc_id, 1.0 - dist) for dist, doc_id in by_id]
        by_row = sorted(zip(dists, range(n)))
        _, table = image_vote_classify(query, refs, k=n)
        assert [(e.code.raw, e.best_rank) for e in table] == [
            (ids[row], rank) for rank, (_, row) in enumerate(by_row, start=1)
        ]


def _oracle_hits(vectors, query, ids, k):
    """(id, similarity.hex()) of the k rows nearest by cosine_distance, ties by id: what vector_search returns."""
    return [(i, (1.0 - d).hex()) for d, i in sorted(zip((cosine_distance(v, query) for v in vectors), ids))[:k]]


def _oracle_votes(vectors, query, k):
    """(row, best rank) of the k rows nearest by cosine_distance, ties by row: the vote table of one label a row."""
    return [(row, rank) for rank, (_, row) in enumerate(sorted(
        (cosine_distance(v, query), row) for row, v in enumerate(vectors))[:k], start=1)]


def _hit_hexes(hits):
    return [(h.code.raw, h.score.hex()) for h in hits]


def _vote_rows(refs, query, k):
    _, table = image_vote_classify(query, refs, k=k)
    return [(int(e.code.raw[1:]), e.best_rank) for e in table]  # one label a row, "7<row>"


@pytest.fixture()
def scans(monkeypatch):
    """The row counts of the matrices that the gemv scans, one per call: the one full pass of a query."""
    return _counted(monkeypatch, "_scan")


@pytest.fixture()
def rescores(monkeypatch):
    """The row counts of the matrices that np.vecdot scores exactly, one per call: a shortlist or a full _distances."""
    return _counted(monkeypatch, "_row_dots")


def _counted(monkeypatch, name):
    counts = []
    fn = getattr(retrieval, name)
    monkeypatch.setattr(retrieval, name, lambda matrix, q: counts.append(len(matrix)) or fn(matrix, q))
    return counts


def test_a_scan_is_exact_with_ties(scans, rescores):
    # an odd dim, and 20 distinct rows repeated 50 times each, so that distances tie and the id, or the reference
    # row, breaks each tie; k cuts through the ties and past them
    dim, n = 7, 1000
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((20, dim))[rng.integers(0, 20, n)]
    ids = [f"7{i}" for i in range(n)]
    index = build_vector_index(zip(ids, vectors))
    refs = ImageReferenceSet([[parse_code(doc_id)] for doc_id in ids], vectors)
    for q in rng.standard_normal((4, dim)):
        oracle = np.array([cosine_distance(vec, q) for vec in vectors])
        assert retrieval._distances(index, q).tobytes() == oracle.tobytes()
        del scans[:], rescores[:]
        for k in (1, 49, 50, 51, 60, 1000):
            assert _hit_hexes(vector_search(index, q, k)) == _oracle_hits(vectors, q, ids, k)
            assert _vote_rows(refs, q, k) == _oracle_votes(vectors, q, k)
        assert scans == [n, n]  # one gemv for each matrix, the other rankings of q cut from the kept one
        # every row tied with the nearest, about 50 of them, is rescored even at k = 1
        assert len(rescores) == 12 and min(rescores) >= np.count_nonzero(oracle == oracle.min()) > 30


def _gamma(dim: int) -> float:
    u = 2.0 ** -53
    return dim * u / (1 - dim * u)


@pytest.mark.parametrize("dim", [7, 16, 512])
def test_the_shortlist_is_exact_for_every_scan_within_the_bound(monkeypatch, dim):
    # near-ties: a row b, copies of it with one entry moved by an ulp, and exact duplicates of those under other ids,
    # so that the nearest costs tie or differ in their last bits. Any gemv may differ from np.vecdot by up to
    # 2γ_d‖m‖‖q‖ (two summation orders, Higham 2002 §3.1). The adversary scan moves each dot by 0.99 of that, the
    # rows the oracle ranks within k away from the query and the others towards it: the ranking must not change
    rng = np.random.default_rng(dim)
    b = rng.standard_normal(dim)
    near = [b] + [b.copy() for _ in range(2 * dim)]
    for i, row in enumerate(near[1:]):
        row[i // 2] = np.nextafter(row[i // 2], math.inf if i % 2 else -math.inf)
    vectors = np.array(near + near[::3] + list(rng.standard_normal((40, dim))))
    vectors = vectors[rng.permutation(len(vectors))]
    ids = [f"7{i}" for i in range(len(vectors))]
    index = build_vector_index(zip(ids, vectors))
    refs = ImageReferenceSet([[parse_code(doc_id)] for doc_id in ids], vectors)
    query = b + 1e-3 * rng.standard_normal(dim)
    exact = np.vecdot(vectors, query)
    slack = 0.99 * 2 * _gamma(dim) * index.norms * float(vector_norms(query))
    assert len({cosine_distance(v, query) for v in near}) < len(near)  # some near rows tie exactly
    for k in (1, 2, 3, 5, 8, 13, 21, len(near)):
        expected, votes = _oracle_hits(vectors, query, ids, k), _oracle_votes(vectors, query, k)
        assert _hit_hexes(vector_search(index, query, k)) == expected
        assert _vote_rows(refs, query, k) == votes
        for within in ({ids.index(i) for i, _ in expected}, {row for row, _ in votes}):
            away = np.array([row in within for row in range(len(vectors))])
            monkeypatch.setattr(retrieval, "_scan", lambda matrix, q: np.where(away, exact - slack, exact + slack))
            for memo in (index, refs.index):
                memo._last = (None, None, None)
            assert _hit_hexes(vector_search(index, query, k)) == expected
            assert _vote_rows(refs, query, k) == votes
            monkeypatch.undo()


def _edge_row(rng, dim):
    """A row whose squared norm is as near the float range's top as np.vecdot leaves finite, with its norm's
    square finite too: its dot with itself may overflow when summed in another order."""
    top = np.finfo(np.float64).max
    row = rng.standard_normal(dim)
    row *= math.sqrt(top * (1 - 1e-13)) / math.sqrt(np.vecdot(row, row))
    while True:
        up = row * (1 + 1e-15)
        if not math.isfinite(math.sqrt(np.vecdot(up, up)) ** 2):
            return row
        row = up


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("gemv", ["as computed", math.inf, -math.inf, math.nan])
def test_a_row_whose_scan_is_not_finite_is_still_rescored(monkeypatch, rescores, gemv):
    # row 1 has a norm near 1.34e154 and is the query itself, so ‖m‖‖q‖ is near the float range's top and its gemv
    # may overflow: with OpenBLAS 0.3.31's Haswell kernels at seed 29 it reads inf, where np.vecdot's is finite.
    # Row 0 is it scaled by 2^-600, so its cost equals row 1's bit for bit and its smaller id or row ranks it first.
    # Injected values stand for any BLAS: a row whose gemv is ±inf or NaN must still reach the shortlist and be
    # rescored
    rng = np.random.default_rng(29)
    edge = _edge_row(rng, 7)
    vectors = np.vstack([edge * 2.0 ** -600, edge, rng.standard_normal((30, 7))])
    ids = [f"7{i}" for i in range(len(vectors))]
    assert cosine_distance(vectors[0], edge).hex() == cosine_distance(edge, edge).hex()
    index = build_vector_index(zip(ids, vectors))
    refs = ImageReferenceSet([[parse_code(doc_id)] for doc_id in ids], vectors)
    if gemv != "as computed":
        scan = retrieval._scan
        monkeypatch.setattr(retrieval, "_scan", lambda matrix, q: np.where(np.arange(len(matrix)) == 1, gemv,
                                                                             scan(matrix, q)))
    for k in (1, 2, 3, len(vectors)):
        del rescores[:]
        assert _hit_hexes(vector_search(index, edge, k)) == _oracle_hits(vectors, edge, ids, k)
        assert _vote_rows(refs, edge, k) == _oracle_votes(vectors, edge, k)
        assert min(rescores) >= 2  # rows 0 and 1 at every k


def test_the_shortlist_rescores_few_rows(rescores):
    # 2048 x 512 random rows: the bound is about 2γ_d = 1.1e-13 wide, far below the gaps between the nearest rows,
    # so each ranking rescores k rows and a few more at most, never the whole matrix
    rng = np.random.default_rng(2048)
    vectors = rng.standard_normal((2048, 512))
    ids = [f"7{i}" for i in range(len(vectors))]
    index = build_vector_index(zip(ids, vectors))
    refs = ImageReferenceSet([[parse_code(doc_id)] for doc_id in ids], vectors)
    for query in rng.standard_normal((10, 512)):
        assert _hit_hexes(vector_search(index, query, 5)) == _oracle_hits(vectors, query, ids, 5)
        assert _vote_rows(refs, query, 5) == _oracle_votes(vectors, query, 5)
    assert len(rescores) == 20 and max(rescores) <= 5 + 8


@pytest.mark.parametrize("dim", [7, 16, 512])
def test_a_rows_dot_is_the_same_in_a_copy_of_a_few_rows(dim):
    # the rescore takes np.vecdot of a fancy-indexed copy; its rows start at other offsets than in the whole
    # matrix (an odd dim leaves every other row off 16-byte alignment), and each value must still be the same
    rng = np.random.default_rng(dim)
    matrix = rng.standard_normal((257, dim))
    query = rng.standard_normal(dim)
    whole = retrieval._row_dots(matrix, query)
    for rows in (np.arange(1, 257, 2), np.array([256, 3, 0, 5]), rng.permutation(257)[:17], np.array([1])):
        assert retrieval._row_dots(matrix[rows], query).tobytes() == whole[rows].tobytes()
    # a caller's Fortran-ordered or strided matrix is stored C-ordered, so its rows are scored as the same rows of
    # a C-ordered matrix are, in the whole scan and in the shortlist alike
    ids = [f"7{i}" for i in range(257)]
    for layout in (np.asfortranarray(matrix), np.repeat(matrix, 2, axis=1)[:, ::2]):
        index = retrieval.VectorIndex(ids, layout)
        assert index.matrix.flags.c_contiguous and index.matrix.dtype == np.float64
        assert retrieval._row_dots(index.matrix, query).tobytes() == whole.tobytes()
        for k in (1, 5, 257):
            assert _hit_hexes(vector_search(index, query, k)) == _oracle_hits(matrix, query, ids, k)


def test_a_main_thread_scan_starts_no_thread():
    # 2048 x 512 = 2^21 entries: a scan this large still runs on the calling thread alone
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((2048, 512))
    index = build_vector_index((f"7{i}", vec) for i, vec in enumerate(vectors))
    refs = ImageReferenceSet([[parse_code(f"7{i % 13}")] for i in range(len(vectors))], vectors)
    query = rng.standard_normal(512)
    vector_search(index, query, 5)
    image_vote_classify(query, refs, k=5)
    assert not [t.name for t in threading.enumerate() if t.name.startswith("iconclassify-scan")]


def _search_200_rows() -> list[tuple[str, str]]:
    rng = np.random.default_rng(5)
    index = build_vector_index((f"7{i}", vec) for i, vec in enumerate(rng.standard_normal((200, 7))))
    return _hit_hexes(vector_search(index, rng.standard_normal(7), 200))


def _on_another_thread(fn):
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    [result] = out
    return result


def test_a_scan_on_another_thread_hands_off_nothing(scans):
    # each scan is one call on the whole matrix, on the thread that asks for it
    assert _on_another_thread(_search_200_rows) == _search_200_rows()
    assert scans == [200, 200]
    assert not [t.name for t in threading.enumerate() if t.name.startswith("iconclassify-scan")]


def test_a_scan_waits_for_another_threads_scan(scans):
    # the gemvs of rows scanned side by side would contend for the BLAS's one thread pool, so they take turns
    want = _search_200_rows()
    scans.clear()
    out = []
    with retrieval._SCAN_LOCK:  # as another thread's scan holds it
        thread = threading.Thread(target=lambda: out.append(_search_200_rows()))
        thread.start()
        for _ in range(300):  # 30 s for the thread to reach its scan
            if scans:
                break
            time.sleep(0.1)
        thread.join(timeout=0.2)
        assert scans == [200] and thread.is_alive() and not out
    thread.join(timeout=30)
    assert not thread.is_alive() and out == [want]


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_scans_in_blocks_too(scans, rescores):
    # 2048 x 16 is past OpenBLAS's threading threshold for a gemv, so the parent's scan runs on BLAS threads
    # before the fork; the child scans on the same path, one gemv and one rescore a ranking, and gets the same hits
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((2048, 16))
    rows = [(f"7{i}", vec) for i, vec in enumerate(vectors)]
    index, twin = build_vector_index(rows), build_vector_index(rows)
    query = rng.standard_normal(16)
    # leaves `index` with no scan the child could reuse
    want = [_hit_hexes(vector_search(twin, query, k)) for k in (5, 2048)]
    assert want == [_oracle_hits(vectors, query, [doc_id for doc_id, _ in rows], k) for k in (5, 2048)]
    assert scans == [2048] and len(rescores) == 2
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = [_hit_hexes(vector_search(index, query, k)) for k in (5, 2048)]
            code = 0 if got == want and scans == [2048, 2048] and len(rescores) == 4 else 2
        finally:
            os._exit(code)
    for _ in range(300):  # 30 s
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's scan did not finish in 30 s")
    assert os.waitstatus_to_exitcode(status) == 0
    assert scans == [2048] and len(rescores) == 2  # the child's scan was the child's own


def test_a_hybrid_after_a_vector_search_of_its_query_scans_nothing(scans, rescores):
    rng = np.random.default_rng(13)
    rows = [(f"7{i}", vec) for i, vec in enumerate(rng.standard_normal((200, 7)))]
    kw = build_keyword_index((doc_id, "ark flood" if i % 2 else "ark") for i, (doc_id, _) in enumerate(rows))
    vec, twin = build_vector_index(rows), build_vector_index(rows)
    query, other = rng.standard_normal((2, 7))
    vector_search(vec, query, 5)
    assert scans == [200] and len(rescores) == 1
    hits = hybrid_search(kw, vec, "flood", query, k=5)
    assert scans == [200]  # the vector search's scan, kept by the index
    assert len(rescores) == 2  # the pool's own shortlist, cut from it
    assert hits == hybrid_search(kw, twin, "flood", query, k=5)
    assert scans == [200, 200]  # another index scans
    hybrid_search(kw, vec, "flood", other, k=5)
    assert scans == [200, 200, 200]  # and so does another query
    assert len(rescores) == 4


def test_a_repeat_query_gets_the_read_only_array_of_the_first(scans):
    rng = np.random.default_rng(17)
    kw = build_keyword_index(SCAN_DOCS)
    vec = build_vector_index((doc_id, v) for (doc_id, _), v in zip(SCAN_DOCS, rng.standard_normal((6, 3))))
    query = rng.standard_normal(3)
    vector_search(vec, query, 2)
    first_lo, first_hi = vec._last[1:]
    vector_search(vec, query.tolist(), 4)
    for first, again in ((retrieval._keyword_scores(kw, "the ark"), retrieval._keyword_scores(kw, "the ark")),
                         (first_lo, vec._last[1]), (first_hi, vec._last[2])):
        assert again is first and not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0
    assert scans == [6]  # the list form of the query is the same bytes, so the kept bounds serve it


def test_k_cutting_through_a_tie_keeps_the_smallest_ids():
    near, tied, far = [1.0, 0.0], [0.6, 0.8], [-1.0, 0.1]
    index = build_vector_index(
        [("75", tied), ("79", near), ("71", tied), ("78", tied), ("70", far), ("72", tied)]
    )
    for k, expected in ((2, ["79", "71"]), (3, ["79", "71", "72"]), (5, ["79", "71", "72", "75", "78"])):
        assert [h.code.raw for h in vector_search(index, [1.0, 0.0], k)] == expected


def test_vote_k_cutting_through_a_tie_keeps_the_smallest_rows():
    near, tied, far = [1.0, 0.0], [0.6, 0.8], [-1.0, 0.1]
    labels = ["11Q", "73D2", "71B32", "71H14", "73D231", "71B3"]
    vectors = [far, tied, tied, near, tied, tied]
    refs = ImageReferenceSet([[parse_code(c)] for c in labels], np.array(vectors))
    _, table = image_vote_classify([1.0, 0.0], refs, k=3)
    # rows 3 (near), then tied rows 1 and 2; rows 4 and 5 tie too but rank later
    assert [(e.code.raw, e.best_rank) for e in table] == [("71H14", 1), ("73D2", 2), ("71B32", 3)]


def test_non_finite_vectors_are_rejected():
    # a NaN distance would drop out of the top-k selection, leaving no neighbours
    refs = ImageReferenceSet([[parse_code("73D")]], np.array([_ray(0)]))
    index = build_vector_index([("71B", [1.0, 0.0])])
    for bad in ([math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(ZeroVectorError):
            image_vote_classify(bad, refs, k=1)
        with pytest.raises(ZeroVectorError):
            vector_search(index, bad, 1)
        with pytest.raises(ZeroVectorError):
            ImageReferenceSet([[parse_code("73D")]], np.array([bad]))


def test_searches_reject_k_below_one():
    kw = build_keyword_index(TOY_DOCS)
    vec = build_vector_index([("71B32", [1.0, 0.0]), ("73D2", [0.0, 1.0])])
    for k in (0, -1):
        with pytest.raises(ValueError):
            keyword_search(kw, "ark", k)
        with pytest.raises(ValueError):
            vector_search(vec, [1.0, 0.0], k)
        with pytest.raises(ValueError, match="^k must be >= 1"):  # _kth checks k for every ranking
            hybrid_search(kw, vec, "ark", [1.0, 0.0], k=k)
        with pytest.raises(ValueError):
            hybrid_search(kw, vec, "ark", [1.0, 0.0], pool=k)


# ---------------------------------------------------------------- hybrid

def test_hybrid_two_doc_fusion_values():
    kw = build_keyword_index([("71B32", "ark flood"), ("73D2", "dove")])
    vec = build_vector_index([("71B32", [1.0, 0.0]), ("73D2", [0.0, 1.0])])
    hits = hybrid_search(kw, vec, "ark", [0.0, 1.0], alpha=0.75, k=10)
    assert [(h.code.raw, h.score) for h in hits] == [("73D2", 0.75), ("71B32", 0.25)]
    assert [h.rank for h in hits] == [1, 2]


def test_hybrid_absent_doc_counts_as_zero_in_normalization():
    # 73D231 never matches the query text, so the keyword min over the
    # union is 0 and present docs normalize against the top score alone
    kw = build_keyword_index(
        [("71B32", "ark ark building"), ("71B33", "ark flood"), ("73D231", "washing feet")]
    )
    vec = build_vector_index(
        [("71B32", [1.0, 0.0, 0.0]), ("71B33", [0.0, 1.0, 0.0]), ("73D231", [0.0, 0.0, 1.0])]
    )
    s1 = bm25_score(kw, ["ark"], "71B32")
    s2 = bm25_score(kw, ["ark"], "71B33")
    hits = hybrid_search(kw, vec, "ark", [0.0, 0.0, 1.0], alpha=0.5, k=10)
    by_id = {h.code.raw: h.score for h in hits}
    assert by_id["71B32"] == pytest.approx(0.5)            # kw_norm 1, vec_norm 0
    assert by_id["73D231"] == pytest.approx(0.5)           # kw_norm 0, vec_norm 1
    assert by_id["71B33"] == pytest.approx(0.5 * s2 / s1)  # kw_norm s2/s1
    # 0.5 tie resolves by ascending notation
    assert [h.code.raw for h in hits] == ["71B32", "73D231", "71B33"]


def test_hybrid_degenerate_pool_normalizes_positive_to_one():
    kw = build_keyword_index([("71B", "ark"), ("73D", "ark")])
    vec = build_vector_index([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0])])
    hits = hybrid_search(kw, vec, "ark", [1.0, 0.0], alpha=0.5, k=10)
    by_id = {h.code.raw: h.score for h in hits}
    # both docs score identically on keyword, so both normalize to 1.0
    assert by_id["71B"] == pytest.approx(1.0)
    assert by_id["73D"] == pytest.approx(0.5)


def test_hybrid_alpha_one_reproduces_vector_order():
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(7)
    vec = build_vector_index([(d, rng.standard_normal(16)) for d, _ in docs])
    for _ in range(5):
        query_vec = rng.standard_normal(16)
        hits = hybrid_search(kw, vec, "building of the ark", query_vec, alpha=1.0, k=len(docs), pool=len(docs))
        pure = vector_search(vec, query_vec, len(docs))
        assert [h.code.raw for h in hits] == [h.code.raw for h in pure]


def test_hybrid_alpha_zero_reproduces_keyword_order():
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(11)
    vec = build_vector_index([(d, rng.standard_normal(16)) for d, _ in docs])
    query_vec = rng.standard_normal(16)
    hits = hybrid_search(kw, vec, "David slings a stone", query_vec, alpha=0.0, k=len(docs), pool=len(docs))
    pure = keyword_search(kw, "David slings a stone", len(docs))
    lead = [h.code.raw for h in hits[: len(pure)]]
    assert lead == [h.code.raw for h in pure]
    # the rest of the union carries fused score 0 in ascending id order
    tail = hits[len(pure):]
    assert all(h.score == 0.0 for h in tail)
    assert [h.code.raw for h in tail] == sorted(h.code.raw for h in tail)


def test_hybrid_scores_stay_in_unit_interval():
    docs = _fixture_docs(DatabaseKind.HIERARCHICAL)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(13)
    vec = build_vector_index([(d, rng.standard_normal(12)) for d, _ in docs])
    py_rng = random.Random(13)
    for _ in range(20):
        alpha = py_rng.random()
        hits = hybrid_search(kw, vec, "Noah ark flood", rng.standard_normal(12), alpha=alpha, k=20)
        assert all(0.0 <= h.score <= 1.0 for h in hits)


def test_hybrid_rejects_alpha_out_of_range():
    kw = build_keyword_index(TOY_DOCS)
    vec = build_vector_index([(d, [1.0, float(i)]) for i, (d, _) in enumerate(TOY_DOCS)])
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError):
            hybrid_search(kw, vec, "ark", [1.0, 0.0], alpha=alpha)


def test_keyword_and_hybrid_k_cutting_through_a_tie_keep_the_smallest_ids():
    # the four "ark flood" docs tie on both scores; "79" alone also holds "noah"
    near, tied, far = [1.0, 0.0], [0.6, 0.8], [-1.0, 0.1]
    rows = [("75", "ark flood", tied), ("79", "ark noah", near), ("71", "ark flood", tied),
            ("78", "ark flood", tied), ("70", "dove peace", far), ("72", "ark flood", tied)]
    kw = build_keyword_index((d, text) for d, text, _ in rows)
    vec = build_vector_index((d, v) for d, _, v in rows)
    for k, expected in ((2, ["79", "71"]), (3, ["79", "71", "72"]), (5, ["79", "71", "72", "75", "78"])):
        assert [h.code.raw for h in keyword_search(kw, "ark noah", k)] == expected
        assert [h.code.raw for h in hybrid_search(kw, vec, "ark noah", near, k=k, pool=len(rows))] == expected


def _hybrid_by_dicts(kw, vec, text, query_vec, alpha, k, pool):
    """The min-max fusion over dicts of Python floats: the reference that
    hybrid_search's array fusion must equal bit for bit."""
    kw_raw = {h.code.raw: h.score for h in keyword_search(kw, text, pool)}
    vec_raw = {h.code.raw: h.score for h in vector_search(vec, query_vec, pool)}
    union = sorted(set(kw_raw) | set(vec_raw))

    def minmax(values):
        lo, hi = min(values.values()), max(values.values())
        if hi > lo:
            return {d: (v - lo) / (hi - lo) for d, v in values.items()}
        return {d: (1.0 if v > 0 else 0.0) for d, v in values.items()}

    kw_norm = minmax({d: kw_raw.get(d, 0.0) for d in union})
    vec_norm = minmax({d: vec_raw.get(d, 0.0) for d in union})
    fused = {d: alpha * vec_norm[d] + (1.0 - alpha) * kw_norm[d] for d in union}
    ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
    return [(d, i + 1, float.hex(s)) for i, (d, s) in enumerate(ranked[:k])]


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.75, 1.0])
def test_hybrid_array_fusion_equals_the_dict_fusion_bit_for_bit(alpha):
    docs = _fixture_docs(DatabaseKind.HIERARCHICAL)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(17)
    vec = build_vector_index([(d, rng.standard_normal(12)) for d, _ in docs])
    # "zebra" matches no doc, so its keyword pool is all 0: a degenerate min-max
    for text in ("Noah ark flood", "the washing of the feet", "David slings a stone", "zebra"):
        query_vec = rng.standard_normal(12)
        for pool in (1, 3, len(docs)):
            for k in (5, len(docs)):
                hits = hybrid_search(kw, vec, text, query_vec, alpha=alpha, k=k, pool=pool)
                assert [(h.code.raw, h.rank, float.hex(h.score)) for h in hits] == \
                    _hybrid_by_dicts(kw, vec, text, query_vec, alpha, k, pool)


def test_hybrid_parses_only_the_codes_it_returns(monkeypatch):
    rng = random.Random(19)
    words = ["ark", "noah", "flood", "dove", "raven", "peter", "paul", "supper", "basin", "cross"]
    docs = [(f"7{i}", " ".join(rng.choices(words, k=rng.randint(3, 9)))) for i in range(300)]
    kw = build_keyword_index(docs)
    vectors = np.random.default_rng(19).standard_normal((len(docs), 8))
    vec = build_vector_index((d, v) for (d, _), v in zip(docs, vectors))
    parsed = []
    monkeypatch.setattr(retrieval, "parse_code", lambda text: parsed.append(text) or parse_code(text))
    retrieval._code.cache_clear()  # so that each code hybrid parses, through the cache or not, reaches parse_code
    hits = hybrid_search(kw, vec, "noah and the flood", np.ones(8), k=5, pool=100)
    assert len(hits) == 5
    assert parsed == [h.code.raw for h in hits]


def test_hybrid_pool_limits_candidates():
    kw = build_keyword_index(TOY_DOCS)
    vec = build_vector_index(
        [("71B32", [1.0, 0.0]), ("71B33", [0.9, 0.1]), ("73D2", [0.0, 1.0])]
    )
    hits = hybrid_search(kw, vec, "the flood", [1.0, 0.0], alpha=0.5, k=10, pool=1)
    assert len(hits) <= 2  # top-1 keyword union top-1 vector


# ---------------------------------------------------------------- image vote

def _ray(angle_deg: float) -> list[float]:
    rad = math.radians(angle_deg)
    return [math.cos(rad), math.sin(rad)]


def test_image_vote_plurality_wins():
    refs = ImageReferenceSet([[parse_code("71B32")], [parse_code("73D2")], [parse_code("71B32")], [parse_code("73D2")]],
                             np.array([_ray(0), _ray(10), _ray(20), _ray(170)]))
    winner, table = image_vote_classify(_ray(1), refs, k=3)
    assert winner.raw == "71B32"
    assert table[0] == table[0].__class__(code=table[0].code, votes=2, best_rank=1)


def test_reference_set_refuses_a_row_with_no_codes():
    # as from_jsonl refuses a record with no codes: every neighbour of a vote then gives at least one vote
    with pytest.raises(ValueError, match="^'reference 2': a reference carries no codes$"):
        ImageReferenceSet([[parse_code("73D2")], (parse_code("71B"),), []], np.array([_ray(0), _ray(10), _ray(90)]))


def test_image_vote_unanimous():
    refs = ImageReferenceSet([[parse_code("73D231")] for _ in range(5)], np.array([_ray(i * 10) for i in range(5)]))
    winner, table = image_vote_classify(_ray(0), refs, k=5)
    assert winner.raw == "73D231"
    assert table[0].votes == 5


def test_image_vote_tie_breaks_by_nearest_supporter():
    # equal votes: the lexicographically larger code wins because its
    # supporting neighbour ranks first
    refs = ImageReferenceSet([[parse_code("73D2")], [parse_code("71B3")]], np.array([_ray(5), _ray(40)]))
    winner, table = image_vote_classify(_ray(0), refs, k=2)
    assert winner.raw == "73D2"
    assert [(e.code.raw, e.votes, e.best_rank) for e in table] == [
        ("73D2", 1, 1),
        ("71B3", 1, 2),
    ]


def test_image_vote_final_tie_breaks_lexicographically():
    refs = ImageReferenceSet([[parse_code("73D23"), parse_code("71B32")]], np.array([_ray(0)]))
    winner, table = image_vote_classify(_ray(3), refs, k=1)
    assert winner.raw == "71B32"
    assert [e.code.raw for e in table] == ["71B32", "73D23"]


def test_image_vote_neighbour_votes_once_per_code():
    refs = ImageReferenceSet([[parse_code("73D"), parse_code("73D")]], np.array([_ray(0)]))
    _, table = image_vote_classify(_ray(0), refs, k=1)
    assert table[0].votes == 1


def test_image_vote_total_votes_property():
    rng = random.Random(99)
    codes = ["71B3", "71B32", "73D2", "73D23", "71H14"]
    labels = [[parse_code(c) for c in rng.sample(codes, rng.randint(1, 3))] for _ in range(30)]
    refs = ImageReferenceSet(labels, np.array([_ray(i * 12.0 + 0.5) for i in range(30)]))
    k = 10
    _, table = image_vote_classify(_ray(33.0), refs, k=k)
    dists = sorted(
        (cosine_distance(refs.index.matrix[i], _ray(33.0)), i) for i in range(len(refs))
    )
    expected = sum(len({c.raw for c in refs.labels[i]}) for _, i in dists[:k])
    assert sum(e.votes for e in table) == expected


def test_image_vote_rejects_bad_inputs(tmp_path):
    refs = ImageReferenceSet([[parse_code("73D")]], np.array([_ray(0)]))
    with pytest.raises(ValueError):
        image_vote_classify(_ray(0), refs, k=0)
    with pytest.raises(DimMismatchError):
        image_vote_classify([1.0, 0.0, 0.0], refs, k=1)
    with pytest.raises(EmptyReferenceSetError):
        ImageReferenceSet([], np.empty((0, 2)))
    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(EmptyReferenceSetError, match=f"^{re.escape(str(tmp_path / 'empty.jsonl'))}: "):
        ImageReferenceSet.from_jsonl(tmp_path / "empty.jsonl")


def test_reference_set_rejects_zero_and_ragged_rows():
    labels = [[parse_code("73D")], [parse_code("71B")]]
    with pytest.raises(ZeroVectorError, match="^'reference 1': zero or non-finite vector"):
        ImageReferenceSet(labels, np.array([[1.0, 0.0], [0.0, 0.0]]))
    # a flat array is no matrix of rows, even with one number per label
    with pytest.raises(DimMismatchError, match="^the vectors are an array of rank 1, not a matrix$"):
        ImageReferenceSet(labels, np.array([1.0, 0.0]))


def test_reference_set_refuses_labels_and_rows_that_differ_in_number():
    labels = [[parse_code("73D")], [parse_code("25F")], [parse_code("71B")]]
    for rows in (2, 4):
        with pytest.raises(DimMismatchError, match=f"^{rows} vector rows for 3 ids$"):
            ImageReferenceSet(labels, np.array([_ray(i * 10) for i in range(rows)]))
    assert len(ImageReferenceSet(labels, np.array([_ray(i * 10) for i in range(3)]))) == 3


def test_reference_set_from_jsonl(fixtures_dir):
    refs = ImageReferenceSet.from_jsonl(fixtures_dir / "refs.jsonl")
    assert len(refs) == 24
    assert refs.index.dim == 8
    # each distinct code is parsed once, and every row that carries it holds that one IconclassCode
    labels = [code for codes in refs.labels for code in codes]
    shared = {code.raw: code for code in labels}
    assert (len(labels), len(shared)) == (24, 12)
    assert all(code is shared[code.raw] and code == parse_code(code.raw) for code in labels)


def test_reference_set_rejects_a_vector_of_strings_and_booleans(tmp_path):
    # read leniently, ["1.5", true, "2"] would load as [1.5, 1.0, 2.0] and win the vote
    path = tmp_path / "refs.jsonl"
    path.write_text('{"vector": [0.0, 1.0, 0.0], "codes": ["73D"]}\n'
                    '{"vector": ["1.5", true, "2"], "codes": ["71B"]}\n')
    with pytest.raises(MalformedLineError, match=r"^line 2: .*refs\.jsonl: bad reference record"):
        ImageReferenceSet.from_jsonl(path)


def test_reference_set_rejects_codes_given_as_a_string(tmp_path):
    # read as a sequence, "71" would load as the codes 7 and 1
    path = tmp_path / "refs.jsonl"
    path.write_text('{"vector": [0.0, 1.0], "codes": ["73D"]}\n'
                    '{"vector": [1.0, 0.0], "codes": "71"}\n')
    with pytest.raises(MalformedLineError, match=r"^line 2: .*refs\.jsonl: bad reference record.*codes must be a list"):
        ImageReferenceSet.from_jsonl(path)


_NO_DIRECTION = "bad reference record: TypeError('a zero or non-finite vector has no direction')"


def test_reference_set_rejects_a_nan_vector(tmp_path):
    path = tmp_path / "refs.jsonl"
    path.write_text('{"vector": [0.0, 1.0], "codes": ["73D"]}\n'
                    '{"vector": [NaN, 1.0], "codes": ["71B"]}\n')
    with pytest.raises(MalformedLineError, match=rf"^line 2: .*refs\.jsonl: {re.escape(_NO_DIRECTION)}$"):
        ImageReferenceSet.from_jsonl(path)


@pytest.mark.parametrize("line_no, edit, reason", [
    (3, lambda vector: vector[:-1], "dim 7 != reference set dim 8"),
    (4, lambda vector: [0.0] * len(vector), _NO_DIRECTION),
    (5, lambda vector: [1e200] * len(vector), _NO_DIRECTION),
], ids=["other_dim", "zero", "too_large_to_square"])
def test_reference_set_names_the_line_and_file_of_a_bad_vector(tmp_path, line_no, edit, reason):
    lines = (FIXTURES / "refs.jsonl").read_text().splitlines()
    record = json.loads(lines[line_no - 1])
    lines[line_no - 1] = json.dumps({**record, "vector": edit(record["vector"])})
    path = tmp_path / "refs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLineError, match=rf"^line {line_no}: .*refs\.jsonl: {re.escape(reason)}$"):
        ImageReferenceSet.from_jsonl(path)


def test_reference_set_names_the_first_of_several_bad_vectors(tmp_path):
    # each vector is judged as its line is read, so the load stops at the first bad one
    path = tmp_path / "refs.jsonl"
    path.write_text('{"vector": [0.0, 1.0], "codes": ["73D"]}\n{"vector": [1e200, 1.0], "codes": ["71B"]}\n'
                    '{"vector": [0.0, 0.0], "codes": ["71B"]}\n')
    with pytest.raises(MalformedLineError, match=rf"^line 2: .*refs\.jsonl: {re.escape(_NO_DIRECTION)}$"):
        ImageReferenceSet.from_jsonl(path)


def test_reference_set_names_a_zero_vector_before_a_later_line_of_another_dim(tmp_path):
    # judged only once every line was read, the zero vector on line 2 would go unseen behind line 3's dim
    path = tmp_path / "refs.jsonl"
    path.write_text('{"vector": [0.0, 1.0], "codes": ["73D"]}\n{"vector": [0.0, 0.0], "codes": ["71B"]}\n'
                    '{"vector": [1.0, 0.0, 0.0], "codes": ["71B"]}\n')
    with pytest.raises(MalformedLineError, match=rf"^line 2: .*refs\.jsonl: {re.escape(_NO_DIRECTION)}$"):
        ImageReferenceSet.from_jsonl(path)


@pytest.mark.parametrize("value", [[0.0, 0.0], [], [math.nan, 1.0], [math.inf, 1.0], [1e200, 1.0]],
                         ids=["zero", "empty", "nan", "inf", "too_large_to_square"])
def test_number_list_refuses_a_vector_with_no_direction(value):
    with pytest.raises(TypeError, match="^a zero or non-finite vector has no direction$"):
        retrieval.number_list(value)


def _refs_file(path: Path, matrix: np.ndarray) -> Path:
    """A reference set file of `matrix`'s rows in order, each carrying one of 50 codes."""
    path.write_text("".join(json.dumps({"vector": row.tolist(), "codes": [f"7{i % 50}"]}) + "\n"
                            for i, row in enumerate(matrix)))
    return path


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_reference_matrix_equals_the_stacked_record_vectors(tmp_path, source):
    path = FIXTURES / "refs.jsonl" if source == "fixture" else \
        _refs_file(tmp_path / "refs.jsonl", np.random.default_rng(5).standard_normal((300, 48)))
    want = np.stack([retrieval.number_list(obj["vector"]) for _, obj in iter_jsonl(path)])
    matrix = ImageReferenceSet.from_jsonl(path).index.matrix
    assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
    assert matrix.shape == want.shape and matrix.tobytes() == want.tobytes()


def test_reference_set_skips_blank_lines_and_reads_a_last_line_without_a_newline(tmp_path):
    path = tmp_path / "refs.jsonl"
    path.write_text('\n{"vector": [0.0, 1.0], "codes": ["73D"]}\n  \n\t\n{"vector": [1.0, 0.5], "codes": ["71B"]}\n\n'
                    '{"vector": [2.0, 0.0], "codes": ["71B", "73D"]}')
    refs = ImageReferenceSet.from_jsonl(path)
    assert refs.index.matrix.tolist() == [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]
    assert [[code.raw for code in codes] for codes in refs.labels] == [["73D"], ["71B"], ["71B", "73D"]]
    assert (len(refs), refs.index.ids) == (3, ["reference 0", "reference 1", "reference 2"])


def test_reference_set_loads_from_a_pipe():
    # the file is read once, so a pipe, such as <(cat refs.jsonl), loads as the file does
    data = (FIXTURES / "refs.jsonl").read_bytes()
    want = ImageReferenceSet.from_jsonl(FIXTURES / "refs.jsonl")
    read_end, write_end = os.pipe()
    try:
        assert os.write(write_end, data) == len(data) == 1770  # within the pipe's buffer, so no writer thread
        os.close(write_end)
        refs = ImageReferenceSet.from_jsonl(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert refs.index.matrix.tobytes() == want.index.matrix.tobytes() and refs.index.dim == want.index.dim
    assert [[c.raw for c in codes] for codes in refs.labels] == [[c.raw for c in codes] for codes in want.labels]


def test_reference_set_loads_a_pipe_larger_than_its_buffer(tmp_path):
    # a writer fills the pipe while the load reads it, so the load never holds the whole file before its first row
    matrix = np.random.default_rng(13).standard_normal((600, 48))
    data = _refs_file(tmp_path / "refs.jsonl", matrix).read_bytes()
    assert len(data) > 4 * 65536
    read_end, write_end = os.pipe()

    def write():
        try:
            with open(write_end, "wb") as out:
                out.write(data)
        except BrokenPipeError:  # the load stopped reading; its own error is what the test reports
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        refs = ImageReferenceSet.from_jsonl(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert refs.index.matrix.tobytes() == matrix.tobytes() and len(refs) == 600


def test_reference_set_names_the_line_of_a_bad_record_read_from_a_pipe():
    # a pipe is read once, so its line numbers count the blank lines as a file's do
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b'{"vector": [0.0, 1.0], "codes": ["73D"]}\n\n{"vector": [1.0, 0.0], "codes": []}\n')
        os.close(write_end)
        with pytest.raises(MalformedLineError, match=rf"^line 3: /dev/fd/{read_end}: reference record has no codes$"):
            ImageReferenceSet.from_jsonl(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_reference_set_reads_a_wide_record_after_many_blank_lines(tmp_path):
    # the matrix grows by the records read, so 100,000 blank lines add no rows to it
    path = tmp_path / "refs.jsonl"
    path.write_text("\n" * 100_000 + json.dumps({"vector": [0.5] * 200_000, "codes": ["73D"]}) + "\n")
    refs = ImageReferenceSet.from_jsonl(path)
    assert refs.index.matrix.shape == (1, 200_000) and (refs.index.matrix == 0.5).all()
    assert [[code.raw for code in codes] for codes in refs.labels] == [["73D"]]


def test_reference_set_load_holds_one_matrix(tmp_path):
    # each vector is copied into its row as it is read: no array per record, and no stacked copy of them all
    matrix = np.random.default_rng(11).standard_normal((2000, 256))
    path = _refs_file(tmp_path / "refs.jsonl", matrix)
    refs, peak = _peak_bytes(lambda: ImageReferenceSet.from_jsonl(path))
    assert refs.index.matrix.tobytes() == matrix.tobytes()
    assert peak < 1.5 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f} x the matrix"


def test_image_vote_on_reference_fixture(fixtures_dir):
    refs = ImageReferenceSet.from_jsonl(fixtures_dir / "refs.jsonl")
    query = json.loads((fixtures_dir / "vectors" / "img001.json").read_text())
    winner, _ = image_vote_classify(query, refs, k=10)
    assert winner.raw == "71B32"


# ---------------------------------------------------------------- persistence

def test_save_and_load_round_trip_queries(tmp_path):
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(5)
    vec = build_vector_index([(d, rng.standard_normal(8)) for d, _ in docs])
    save_index(tmp_path / "idx", kw, vec, config={"database": "basic"})
    kw2, vec2, meta = load_index(tmp_path / "idx")

    assert (meta["keyword"]["k1"], meta["keyword"]["b"]) == (1.2, 0.75)
    assert meta["keyword"]["doc_count"] == len(docs)
    assert meta["vector"]["dim"] == 8
    assert meta["config"] == {"database": "basic"}

    query_vec = rng.standard_normal(8)
    for query in ("the building of the ark", "Goliath"):
        before = keyword_search(kw, query, 10)
        after = keyword_search(kw2, query, 10)
        assert [(h.code.raw, h.score) for h in before] == [(h.code.raw, h.score) for h in after]
    before = vector_search(vec, query_vec, 10)
    after = vector_search(vec2, query_vec, 10)
    assert [(h.code.raw, h.score) for h in before] == [(h.code.raw, h.score) for h in after]
    before = hybrid_search(kw, vec, "story of Noah", query_vec, alpha=0.75, k=10)
    after = hybrid_search(kw2, vec2, "story of Noah", query_vec, alpha=0.75, k=10)
    assert [(h.code.raw, h.score) for h in before] == [(h.code.raw, h.score) for h in after]
    assert vec2.ids == vec.ids
    assert vec2.matrix.tobytes() == vec.matrix.tobytes()
    assert vec2.norms.tobytes() == vec.norms.tobytes()


def test_saved_data_files_are_byte_stable(tmp_path):
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(5)
    vec = build_vector_index([(d, rng.standard_normal(8)) for d, _ in docs])
    save_index(tmp_path / "a", kw, vec)
    save_index(tmp_path / "b", kw, vec)
    assert sorted(path.name for path in (tmp_path / "a").iterdir()) == sorted(INDEX_FILES)
    for name in INDEX_FILES[:-1]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    meta_a = json.loads((tmp_path / "a" / "meta.json").read_text())
    meta_b = json.loads((tmp_path / "b" / "meta.json").read_text())
    meta_a.pop("created_at")
    meta_b.pop("created_at")
    assert meta_a == meta_b
    assert meta_a["format"] == 3


def _npy_bytes(descr: str, shape: str, data: bytes) -> bytes:
    """A version 1.0 .npy: magic, header length, the header padded to 128 bytes in all, then the raw data."""
    header = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape}, }}".encode()
    return b"\x93NUMPY\x01\x00\x76\x00" + header + b" " * (117 - len(header)) + b"\n" + data


def test_saved_data_files_match_format_3_bytes(tmp_path):
    # tf 2 for "noah" in 71B, "ark" shared by all three docs, ids arriving out of order, and floats
    # that decimal text could get wrong: each .npy holds its array's raw bytes
    kw = build_keyword_index([("71B", "Noah noah ark"), ("73D", "ark of Noah"), ("11H", "ark")])
    vec = build_vector_index([("71B", [0.1, 1 / 3]), ("73D", [5e-324, -1.0]), ("11H", [-0.0, 2.5])])
    save_index(tmp_path / "idx", kw, vec)
    saved = {path.name: path.read_bytes() for path in (tmp_path / "idx").iterdir()}
    assert saved.pop("keyword.json").decode() == '{"ids": ["11H", "71B", "73D"], "terms": ["ark", "noah", "of"]}\n'
    assert saved.pop("keyword-offsets.npy") == _npy_bytes("<i8", "(4,)", struct.pack("<4q", 0, 3, 5, 6))
    # ark: 11H 71B 73D; noah: 71B 73D; of: 73D, by row, each term's rows ascending
    assert saved.pop("keyword-rows.npy") == _npy_bytes("<i4", "(6,)", struct.pack("<6i", 0, 1, 2, 1, 2, 2))
    assert saved.pop("keyword-tfs.npy") == _npy_bytes("<i4", "(6,)", struct.pack("<6i", 1, 1, 1, 2, 1, 1))
    assert saved.pop("keyword-lengths.npy") == _npy_bytes("<i4", "(3,)", struct.pack("<3i", 1, 3, 3))
    assert saved.pop("vectors.jsonl").decode() == '{"id": "71B"}\n{"id": "73D"}\n{"id": "11H"}\n'
    assert saved.pop("vectors.npy") == _npy_bytes("<f8", "(3, 2)", struct.pack("<6d", 0.1, 1 / 3, 5e-324, -1.0,
                                                                               -0.0, 2.5))
    assert list(saved) == ["meta.json"]
    loaded, loaded_vec, _ = load_index(tmp_path / "idx")
    assert loaded_vec.matrix.tobytes() == vec.matrix.tobytes()
    assert (loaded.postings, loaded.doc_lengths) == (kw.postings, kw.doc_lengths) == (
        {"ark": [("11H", 1), ("71B", 1), ("73D", 1)], "noah": [("71B", 2), ("73D", 1)], "of": [("73D", 1)]},
        {"11H": 1, "71B": 3, "73D": 3})


def test_load_index_reports_missing_files(tmp_path):
    docs = [("71B", "ark")]
    kw = build_keyword_index(docs)
    vec = build_vector_index([("71B", [1.0, 0.0])])
    for name in INDEX_FILES:
        save_index(tmp_path / name, kw, vec)
        (tmp_path / name / name).unlink()
        with pytest.raises(MissingIndexError, match=f"^missing index file {re.escape(str(tmp_path / name / name))}$"):
            load_index(tmp_path / name)
    with pytest.raises(MissingIndexError):
        load_index(tmp_path / "nowhere")


def test_load_index_rejects_a_truncated_or_mismatched_index(tmp_path):
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(7)
    vec = build_vector_index([(d, rng.standard_normal(8)) for d, _ in docs])
    save_index(tmp_path / "idx", kw, vec)
    ids_path = tmp_path / "idx" / "vectors.jsonl"
    whole = ids_path.read_text()
    lines = whole.splitlines(keepends=True)
    refused = f"^{re.escape(str(tmp_path / 'idx'))}: .*rebuild it with `index build`$"

    ids_path.write_text("".join(lines[:2]))  # cut at a line boundary: fewer ids than rows
    with pytest.raises(MissingIndexError, match=refused) as info:
        load_index(tmp_path / "idx")
    assert "DimMismatchError('50 vector rows for 2 ids')" in str(info.value)
    ids_path.write_text("".join(lines[:3]) + lines[3][:6])  # cut inside a record
    with pytest.raises(MissingIndexError, match="line 4: .*vectors.jsonl.*rebuild the index with `index build`$"):
        load_index(tmp_path / "idx")
    ids_path.write_text('{"id": "99Z"}\n' + "".join(lines[1:]))
    with pytest.raises(MissingIndexError, match="incomplete index: .* under other ids; rebuild it"):
        load_index(tmp_path / "idx")
    ids_path.write_text(whole)
    kw_path = tmp_path / "idx" / "keyword.json"
    kw_json = json.loads(kw_path.read_text())
    for field, value in [("ids", "".join(kw_json["ids"])), ("terms", [*kw_json["terms"][:-1], None])]:
        kw_path.write_text(json.dumps({**kw_json, field: value}))
        with pytest.raises(MissingIndexError, match=refused) as info:
            load_index(tmp_path / "idx")
        assert "TypeError('the doc ids and the terms must be lists of strings')" in str(info.value)
    kw_path.write_text(json.dumps(kw_json))
    assert load_index(tmp_path / "idx")[1].ids == vec.ids


def _save_npz(path, matrix):
    with open(path, "wb") as fh:  # np.savez would add .npz to a path's name
        np.savez(fh, matrix)


# each way an index's vector files can fail to be what save_index wrote, given the index
# directory, its matrix and the bytes of its vectors.npy
_BROKEN_VECTORS = {
    "float32": lambda idx, m, npy: np.save(idx / "vectors.npy", m.astype(np.float32)),
    "big_endian": lambda idx, m, npy: np.save(idx / "vectors.npy", m.astype(">f8")),
    "one_d": lambda idx, m, npy: np.save(idx / "vectors.npy", m.ravel()),
    "more_rows": lambda idx, m, npy: np.save(idx / "vectors.npy", np.vstack([m, m[:1]])),
    "fewer_rows": lambda idx, m, npy: np.save(idx / "vectors.npy", m[:-1]),
    "fortran_order": lambda idx, m, npy: np.save(idx / "vectors.npy", np.asfortranarray(m)),
    "pickled_objects": lambda idx, m, npy: np.save(idx / "vectors.npy", m.astype(object), allow_pickle=True),
    "cut_in_data": lambda idx, m, npy: (idx / "vectors.npy").write_bytes(npy[:-12]),
    "cut_in_header": lambda idx, m, npy: (idx / "vectors.npy").write_bytes(npy[:40]),
    # a header that claims 2**40 rows, which a reader that trusted it would allocate before it read a byte
    "inflated_rows": lambda idx, m, npy: (idx / "vectors.npy").write_bytes(npy_claiming(npy, shape=(2**40, 2))),
    "trailing_byte": lambda idx, m, npy: (idx / "vectors.npy").write_bytes(npy + b"\0"),
    "empty": lambda idx, m, npy: (idx / "vectors.npy").write_bytes(b""),
    "npz": lambda idx, m, npy: _save_npz(idx / "vectors.npy", m),
    "nan_row": lambda idx, m, npy: np.save(idx / "vectors.npy", m * [[1.0, 1.0], [math.nan, 1.0], [1.0, 1.0]]),
    "zero_row": lambda idx, m, npy: np.save(idx / "vectors.npy", m * [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
    # finite, but its square overflows: refused as non-finite, with no numpy warning on the way
    "row_too_large_to_square": lambda idx, m, npy: np.save(idx / "vectors.npy", m * [[1.0], [1e200], [1.0]]),
    "repeated_id": lambda idx, m, npy: (idx / "vectors.jsonl").write_text('{"id": "71B"}\n' * 2 + '{"id": "11H"}\n'),
}


@pytest.mark.parametrize("breaks", _BROKEN_VECTORS.values(), ids=_BROKEN_VECTORS)
def test_load_index_refuses_vectors_that_are_not_the_saved_matrix(tmp_path, breaks):
    idx = tmp_path / "idx"
    vec = build_vector_index([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0]), ("11H", [0.6, 0.8])])
    save_index(idx, build_keyword_index([("71B", "ark"), ("73D", "supper"), ("11H", "flood")]), vec)
    breaks(idx, vec.matrix, (idx / "vectors.npy").read_bytes())
    with pytest.raises(MissingIndexError, match=f"^{re.escape(str(idx))}: unreadable index file: "
                                                ".*; rebuild it with `index build`$"):
        load_index(idx)


def test_load_index_refuses_postings_that_name_an_unknown_doc(tmp_path):
    save_index(tmp_path / "idx", build_keyword_index([("71B", "ark"), ("73D", "supper")]),
               build_vector_index([("71B", [1.0, 0.0]), ("73D", [0.0, 1.0])]))
    for row in (2, -1):  # the counts still agree with meta.json, so only the row's range tells
        np.save(tmp_path / "idx" / "keyword-rows.npy", np.array([0, row], dtype=np.int32))
        with pytest.raises(MissingIndexError, match=f"^{re.escape(str(tmp_path / 'idx'))}: unreadable index file: "
                                                    r"ValueError\('a row outside \[0, 2\)'\); rebuild it"):
            load_index(tmp_path / "idx")


@pytest.mark.parametrize("field, value", [("k1", 1.4), ("b", 0.6)])
def test_load_index_refuses_other_bm25_parameters(tmp_path, field, value):
    # scoring uses k1 = 1.2 and b = 0.75 whatever the index records
    save_index(tmp_path / "idx", build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])]))
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["keyword"][field] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(MissingIndexError, match=f"{field}={value}.*rebuild"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("section, field, value", [
    ("keyword", "doc_count", 49), ("keyword", "avg_doc_length", 5.94), ("vector", "doc_count", 51),
    ("vector", "dim", 4),
])
def test_load_index_refuses_a_meta_json_that_disagrees_with_its_files(tmp_path, section, field, value):
    kw = build_keyword_index(_fixture_docs(DatabaseKind.HIERARCHICAL))
    rng = np.random.default_rng(3)
    save_index(tmp_path / "idx", kw, build_vector_index([(d, rng.standard_normal(8)) for d in kw.doc_lengths]))
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[section][field] = value
    meta_path.write_text(json.dumps(meta))
    recorded = (meta["keyword"]["doc_count"], meta["keyword"]["avg_doc_length"], meta["vector"]["doc_count"],
                meta["vector"]["dim"])
    with pytest.raises(MissingIndexError, match="incomplete index") as info:
        load_index(tmp_path / "idx")
    assert f"records (docs, mean length, vectors, dim) {recorded}, " in str(info.value)
    assert f"files hold (50, {kw.avg_doc_length}, 50, 8);" in str(info.value)


def test_save_index_writes_meta_json_last(tmp_path):
    (tmp_path / "idx" / "vectors.jsonl").mkdir(parents=True)  # the vector file cannot be written
    with pytest.raises(OSError):
        save_index(tmp_path / "idx", build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])]))
    assert (tmp_path / "idx" / "keyword.json").is_file()
    assert not (tmp_path / "idx" / "meta.json").exists()


def test_a_save_that_fails_over_an_index_leaves_no_meta_json(tmp_path):
    # the old meta.json would otherwise vouch for the new files: same counts and dim, another config
    kw, vec = build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])])
    save_index(tmp_path / "idx", kw, vec, config={"embedder": "offline-hash-32"})
    (tmp_path / "idx" / "vectors.npy").unlink()
    (tmp_path / "idx" / "vectors.npy").mkdir()  # the matrix cannot be written
    with pytest.raises(OSError):
        save_index(tmp_path / "idx", kw, vec, config={"embedder": "remote:embed"})
    assert not (tmp_path / "idx" / "meta.json").exists()
    with pytest.raises(MissingIndexError, match=f"^missing index file {re.escape(str(tmp_path / 'idx'))}/meta.json$"):
        load_index(tmp_path / "idx")


def test_a_save_that_fails_while_writing_leaves_the_old_index_loadable(tmp_path, monkeypatch):
    kw, vec = build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])])
    save_index(tmp_path / "idx", kw, vec, config={"embedder": "offline-hash-32"})
    before = {path.name: path.read_bytes() for path in (tmp_path / "idx").iterdir()}

    def no_room(fh, header):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", no_room)
    with pytest.raises(OSError) as info:
        save_index(tmp_path / "idx", kw, vec, config={"embedder": "remote:embed"})
    assert (info.value.filename, info.value.strerror) == (str(tmp_path / "idx" / "vectors.npy"),
                                                          "No space left on device")
    assert {path.name: path.read_bytes() for path in (tmp_path / "idx").iterdir()} == before  # and no temp file
    assert load_index(tmp_path / "idx")[2]["config"] == {"embedder": "offline-hash-32"}


def test_load_index_refuses_a_format_1_index(tmp_path):
    save_index(tmp_path / "idx", build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])]))
    meta_path = tmp_path / "idx" / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "format": 1}))
    # format 1 kept its vectors in vectors.jsonl: the format is checked before any other file is read
    (tmp_path / "idx" / "vectors.jsonl").write_text('{"id":"71B","vector":[1.0]}\n')
    (tmp_path / "idx" / "vectors.npy").unlink()
    with pytest.raises(MissingIndexError) as info:
        load_index(tmp_path / "idx")
    assert str(info.value) == f"{tmp_path / 'idx'}: index format 1 is no longer read; rebuild it with `index build`"


@pytest.mark.parametrize("name", ["keyword.json", "meta.json"])
def test_load_index_refuses_a_lone_surrogate_in_a_json_file(tmp_path, name):
    # read as any other outside JSON is: an escape no UTF can encode ends as one unreadable-file error
    save_index(tmp_path, build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])]),
               config={"database": "basic"})
    path = tmp_path / name
    path.write_text(path.read_text().replace('"ark"', '"\\ud800"').replace('"basic"', '"\\ud800"'))
    assert "\\ud800" in path.read_text()
    with pytest.raises(MissingIndexError) as info:
        load_index(tmp_path)
    assert str(info.value) == (f"{tmp_path}: unreadable index file: ValueError('a lone surrogate \\\\ud800 in a "
                               "string'); rebuild it with `index build`")


@pytest.mark.parametrize("name, text, reason", [
    ("keyword.json", '{"ids": ["71B"]}', "KeyError('terms')"),
    ("keyword.json", '{"ids": [], "terms": ["ark"]}', "1 lengths for 0 ids"),
    ("vectors.jsonl", "", "no vectors to index"),
], ids=["keyword_without_postings", "keyword_without_docs", "no_vectors"])
def test_load_index_refuses_an_unreadable_file(tmp_path, name, text, reason):
    save_index(tmp_path / "idx", build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])]))
    (tmp_path / "idx" / name).write_text(text)
    with pytest.raises(MissingIndexError, match="unreadable index file") as info:
        load_index(tmp_path / "idx")
    assert reason in str(info.value)
