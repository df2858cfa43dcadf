import dataclasses
import json
import math
import os
import random
import signal
import sys
import threading
import time
from concurrent import futures

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
    NoCandidatesError,
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
    vector_search,
)
from iconclassify.taxonomy import DatabaseKind, load_taxonomy, parse_code, render_doc

from conftest import FIXTURES

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
    index = KeywordIndex({"ark": [("d1", 1)]}, {"d1": 1, "d2": 0, "d3": 1})
    assert (index.doc_count, index.avg_doc_length) == (3, 2 / 3)
    assert [f.name for f in dataclasses.fields(KeywordIndex) if f.init] == ["postings", "doc_lengths"]
    with pytest.raises(EmptyCorpusError):
        KeywordIndex({}, {})


def test_build_keyword_index_rejects_duplicates():
    with pytest.raises(DuplicateDocIdError):
        build_keyword_index([("d1", "a"), ("d1", "b")])


def test_build_keyword_index_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_keyword_index([])


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
    assert list(loaded.doc_lengths) == sorted(built.doc_lengths) != list(built.doc_lengths)
    (first, _, score1), (second, _, score2) = _bm25_scan(built, "noah", 2)
    assert (first, second) == ("72", "75") and score1 == score2  # so k = 1 cuts a tie
    queries = ["the ark ark noah", "the", "Mariä", "noah", "the flood of mariä the rain", "zebra"]
    for query in queries:
        for k in (1, 2, 3, len(SCAN_DOCS) + 2):
            expected = _bm25_scan(built, query, k)
            for index in (built, loaded):
                hits = keyword_search(index, query, k)
                assert [(h.code.raw, h.rank, float.hex(h.score)) for h in hits] == expected, (query, k)


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


def test_build_vector_index_rejects_bad_rows():
    with pytest.raises(DuplicateDocIdError):
        build_vector_index([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(DimMismatchError):
        build_vector_index([("a", [1.0, 0.0]), ("b", [1.0])])
    with pytest.raises(ZeroVectorError):
        build_vector_index([("a", [0.0, 0.0])])
    with pytest.raises(EmptyCorpusError):
        build_vector_index([])


@pytest.mark.parametrize("bad", [[1.0], [[1.0, 0.0], [0.0, 1.0]], 1.0], ids=["ragged", "2-d", "scalar"])
def test_build_vector_index_names_the_first_row_that_does_not_stack(bad):
    rows = [("71B", [1.0, 0.0]), ("73D", [0.0, 1.0]), ("11H", bad), ("25F", [1.0])]
    with pytest.raises(DimMismatchError, match="^'11H'"):
        build_vector_index(rows)


@pytest.mark.parametrize("rows", [
    [("71B", [[1.0, 0.0]]), ("73D", [[0.0, 1.0]])],  # every row 2-d: stacks to 3-d
    [("71B", 1.0), ("73D", 2.0)],  # every row a scalar: stacks to 1-d
], ids=["all-2-d", "all-scalar"])
def test_build_vector_index_rejects_rows_that_stack_to_the_wrong_rank(rows):
    with pytest.raises(DimMismatchError, match="^'71B'"):
        build_vector_index(rows)


def test_build_vector_index_reports_a_bad_row_before_a_later_duplicate():
    with pytest.raises(DimMismatchError, match="^'73D'"):
        build_vector_index([("71B", [1.0, 0.0]), ("73D", [1.0]), ("71B", [0.0, 1.0])])


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
    refs = ImageReferenceSet([(vectors[i], [parse_code(ids[i])]) for i in range(n)])
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


def test_the_blocked_scan_is_exact_for_any_core_count(monkeypatch):
    # an odd dim, and 20 distinct rows repeated 50 times each, so that
    # distances tie, also across block edges; 64 rows per block at the least
    dim, n = 7, 1000
    monkeypatch.setattr(retrieval, "_MIN_BLOCK_VALUES", 64 * dim)
    monkeypatch.setattr(retrieval, "_MAX_BLOCKS", 3)
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((20, dim))[rng.integers(0, 20, n)]
    ids = [f"7{i}" for i in range(n)]
    words = ["ark", "flood", "dove", "raven", "rainbow"]
    kw_index = build_keyword_index((doc_id, " ".join(rng.choice(words, 3))) for doc_id in ids)
    vec_index = build_vector_index(zip(ids, vectors))
    refs = ImageReferenceSet([(vec, [parse_code(f"7{i % 13}")]) for i, vec in enumerate(vectors)])
    queries = rng.standard_normal((4, dim))
    results = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(retrieval, "_cores", lambda cores=cores: cores)
        for q in queries:
            oracle = np.array([cosine_distance(vec, q) for vec in vectors])
            assert retrieval._distances(vec_index, q).tobytes() == oracle.tobytes()
        results.append([
            (vector_search(vec_index, q, 60), hybrid_search(kw_index, vec_index, "ark dove", q, k=60),
             image_vote_classify(q, refs, k=60))
            for q in queries
        ])
    assert results[0] == results[1] == results[2]


def test_row_threads_share_the_cores(monkeypatch):
    # two cores: a scan alone hands one block to the pool, and a scan among
    # two row threads keeps to its share, one core, and hands off nothing
    monkeypatch.setattr(retrieval, "_MIN_BLOCK_VALUES", 64 * 7)
    monkeypatch.setattr(retrieval, "_cores", lambda: 2)
    handed = []

    class Pool:
        def submit(self, fn, *args, **kwargs):
            handed.append(len(args[0]))
            job = futures.Future()
            job.set_result(fn(*args, **kwargs))
            return job

    monkeypatch.setattr(retrieval, "_scan_pool", Pool)
    rng = np.random.default_rng(5)
    index = build_vector_index((f"7{i}", vec) for i, vec in enumerate(rng.standard_normal((200, 7))))
    query = rng.standard_normal(7)
    alone = retrieval._distances(index, query)
    assert handed == [100]
    with retrieval.row_threads(1):
        assert retrieval._distances(index, query).tobytes() == alone.tobytes()
        with retrieval.row_threads(1):
            assert retrieval._distances(index, query).tobytes() == alone.tobytes()
    assert handed == [100, 100]  # one row thread has both cores, two have one each
    assert retrieval._row_threads == []


def test_row_thread_counts_from_many_threads_lose_no_update():
    # more threads than cores enter and leave at once, with a short switch
    # interval: a lost extend or pop would leave the count wrong
    short = []

    def enter_and_leave():
        for _ in range(300):
            with retrieval.row_threads(3):
                short.append(len(retrieval._row_threads) < 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert short == [False] * 2400
    assert retrieval._row_threads == []


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_scans_in_blocks_too(monkeypatch):
    # the child inherits the pool but none of its threads: a scan there must not wait on them
    monkeypatch.setattr(retrieval, "_MIN_BLOCK_VALUES", 64 * 7)
    monkeypatch.setattr(retrieval, "_cores", lambda: 2)
    rng = np.random.default_rng(11)
    index = build_vector_index((f"7{i}", vec) for i, vec in enumerate(rng.standard_normal((200, 7))))
    query = rng.standard_normal(7)
    want = retrieval._distances(index, query).tobytes()  # starts the parent's pool threads
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if retrieval._distances(index, query).tobytes() == want else 2
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
    refs = ImageReferenceSet([(v, [parse_code(c)]) for v, c in zip(vectors, labels)])
    _, table = image_vote_classify([1.0, 0.0], refs, k=3)
    # rows 3 (near), then tied rows 1 and 2; rows 4 and 5 tie too but rank later
    assert [(e.code.raw, e.best_rank) for e in table] == [("71H14", 1), ("73D2", 2), ("71B32", 3)]


def test_non_finite_vectors_are_rejected():
    # a NaN distance would drop out of the top-k selection, leaving no neighbours
    refs = ImageReferenceSet([(_ray(0), [parse_code("73D")])])
    index = build_vector_index([("71B", [1.0, 0.0])])
    for bad in ([math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(ZeroVectorError):
            image_vote_classify(bad, refs, k=1)
        with pytest.raises(ZeroVectorError):
            vector_search(index, bad, 1)
        with pytest.raises(ZeroVectorError):
            ImageReferenceSet([(bad, [parse_code("73D")])])


def test_searches_reject_k_below_one():
    kw = build_keyword_index(TOY_DOCS)
    vec = build_vector_index([("71B32", [1.0, 0.0]), ("73D2", [0.0, 1.0])])
    for k in (0, -1):
        with pytest.raises(ValueError):
            keyword_search(kw, "ark", k)
        with pytest.raises(ValueError):
            vector_search(vec, [1.0, 0.0], k)
        with pytest.raises(ValueError):
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
    refs = ImageReferenceSet(
        [
            (_ray(0), [parse_code("71B32")]),
            (_ray(10), [parse_code("73D2")]),
            (_ray(20), [parse_code("71B32")]),
            (_ray(170), [parse_code("73D2")]),
        ]
    )
    winner, table = image_vote_classify(_ray(1), refs, k=3)
    assert winner.raw == "71B32"
    assert table[0] == table[0].__class__(code=table[0].code, votes=2, best_rank=1)


def test_image_vote_among_unlabelled_neighbours_has_no_candidates():
    refs = ImageReferenceSet([(_ray(0), []), (_ray(10), []), (_ray(90), [parse_code("73D2")])])
    with pytest.raises(NoCandidatesError):
        image_vote_classify(_ray(1), refs, k=2)


def test_image_vote_unanimous():
    refs = ImageReferenceSet([(_ray(i * 10), [parse_code("73D231")]) for i in range(5)])
    winner, table = image_vote_classify(_ray(0), refs, k=5)
    assert winner.raw == "73D231"
    assert table[0].votes == 5


def test_image_vote_tie_breaks_by_nearest_supporter():
    # equal votes: the lexicographically larger code wins because its
    # supporting neighbour ranks first
    refs = ImageReferenceSet(
        [
            (_ray(5), [parse_code("73D2")]),
            (_ray(40), [parse_code("71B3")]),
        ]
    )
    winner, table = image_vote_classify(_ray(0), refs, k=2)
    assert winner.raw == "73D2"
    assert [(e.code.raw, e.votes, e.best_rank) for e in table] == [
        ("73D2", 1, 1),
        ("71B3", 1, 2),
    ]


def test_image_vote_final_tie_breaks_lexicographically():
    refs = ImageReferenceSet([(_ray(0), [parse_code("73D23"), parse_code("71B32")])])
    winner, table = image_vote_classify(_ray(3), refs, k=1)
    assert winner.raw == "71B32"
    assert [e.code.raw for e in table] == ["71B32", "73D23"]


def test_image_vote_neighbour_votes_once_per_code():
    refs = ImageReferenceSet([(_ray(0), [parse_code("73D"), parse_code("73D")])])
    _, table = image_vote_classify(_ray(0), refs, k=1)
    assert table[0].votes == 1


def test_image_vote_total_votes_property():
    rng = random.Random(99)
    codes = ["71B3", "71B32", "73D2", "73D23", "71H14"]
    rows = []
    for i in range(30):
        labels = [parse_code(c) for c in rng.sample(codes, rng.randint(1, 3))]
        rows.append((_ray(i * 12.0 + 0.5), labels))
    refs = ImageReferenceSet(rows)
    k = 10
    _, table = image_vote_classify(_ray(33.0), refs, k=k)
    dists = sorted(
        (cosine_distance(refs.index.matrix[i], _ray(33.0)), i) for i in range(len(refs))
    )
    expected = sum(len({c.raw for c in refs.labels[i]}) for _, i in dists[:k])
    assert sum(e.votes for e in table) == expected


def test_image_vote_rejects_bad_inputs():
    refs = ImageReferenceSet([(_ray(0), [parse_code("73D")])])
    with pytest.raises(ValueError):
        image_vote_classify(_ray(0), refs, k=0)
    with pytest.raises(DimMismatchError):
        image_vote_classify([1.0, 0.0, 0.0], refs, k=1)
    with pytest.raises(EmptyReferenceSetError):
        ImageReferenceSet([])


def test_reference_set_rejects_zero_and_ragged_rows():
    with pytest.raises(ZeroVectorError):
        ImageReferenceSet([([0.0, 0.0], [parse_code("73D")])])
    with pytest.raises(DimMismatchError):
        ImageReferenceSet(
            [([1.0, 0.0], [parse_code("73D")]), ([1.0], [parse_code("71B")])]
        )


def test_reference_set_names_the_ragged_row():
    with pytest.raises(DimMismatchError, match="^'reference 2'"):
        ImageReferenceSet(
            [([1.0, 0.0], [parse_code("73D")]), ([0.0, 1.0], [parse_code("25F")]),
             (np.array([1.0]), [parse_code("71B")]), ([1.0, 1.0, 1.0], [parse_code("11H")])]
        )


def test_reference_set_from_jsonl(fixtures_dir):
    refs = ImageReferenceSet.from_jsonl(fixtures_dir / "refs.jsonl")
    assert len(refs) == 24
    assert refs.index.dim == 8


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


def test_reference_set_rejects_a_nan_vector(tmp_path):
    path = tmp_path / "refs.jsonl"
    path.write_text('{"vector": [0.0, 1.0], "codes": ["73D"]}\n'
                    '{"vector": [NaN, 1.0], "codes": ["71B"]}\n')
    with pytest.raises(MalformedLineError, match=r"^line 2: .*refs\.jsonl: bad reference record.*NaN or Infinity"):
        ImageReferenceSet.from_jsonl(path)


@pytest.mark.parametrize("line_no, edit, reason", [
    (3, lambda vector: vector[:-1], "dim 7 != reference set dim 8"),
    (4, lambda vector: [0.0] * len(vector), "zero or non-finite vector cannot be indexed"),
], ids=["other_dim", "zero"])
def test_reference_set_names_the_line_and_file_of_a_bad_vector(tmp_path, line_no, edit, reason):
    lines = (FIXTURES / "refs.jsonl").read_text().splitlines()
    record = json.loads(lines[line_no - 1])
    lines[line_no - 1] = json.dumps({**record, "vector": edit(record["vector"])})
    path = tmp_path / "refs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLineError, match=rf"^line {line_no}: .*refs\.jsonl: {reason}$"):
        ImageReferenceSet.from_jsonl(path)


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


def test_saved_data_files_are_byte_stable(tmp_path):
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(5)
    vec = build_vector_index([(d, rng.standard_normal(8)) for d, _ in docs])
    save_index(tmp_path / "a", kw, vec)
    save_index(tmp_path / "b", kw, vec)
    for name in ("keyword.json", "vectors.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    meta_a = json.loads((tmp_path / "a" / "meta.json").read_text())
    meta_b = json.loads((tmp_path / "b" / "meta.json").read_text())
    meta_a.pop("created_at")
    meta_b.pop("created_at")
    assert meta_a == meta_b


def test_saved_data_files_match_format_1_text(tmp_path):
    # tf 2 for "noah" in 71B, "ark" shared by all three docs, and floats
    # whose shortest round-trip text is easy to get wrong
    kw = build_keyword_index([("71B", "Noah noah ark"), ("73D", "ark of Noah"), ("11H", "ark")])
    vec = build_vector_index([("71B", [0.1, 1 / 3]), ("73D", [5e-324, -1.0]), ("11H", [-0.0, 2.5])])
    save_index(tmp_path / "idx", kw, vec)
    assert (tmp_path / "idx" / "keyword.json").read_text(encoding="utf-8") == (
        '{"doc_lengths": {"11H": 1, "71B": 3, "73D": 3}, '
        '"postings": {"ark": [["71B", 1], ["73D", 1], ["11H", 1]], '
        '"noah": [["71B", 2], ["73D", 1]], "of": [["73D", 1]]}}\n'
    )
    assert (tmp_path / "idx" / "vectors.jsonl").read_text(encoding="utf-8") == (
        '{"id":"71B","vector":[0.1,0.3333333333333333]}\n'
        '{"id":"73D","vector":[5e-324,-1.0]}\n'
        '{"id":"11H","vector":[-0.0,2.5]}\n'
    )


def test_load_index_reports_missing_files(tmp_path):
    docs = [("71B", "ark")]
    kw = build_keyword_index(docs)
    vec = build_vector_index([("71B", [1.0, 0.0])])
    save_index(tmp_path / "idx", kw, vec)
    (tmp_path / "idx" / "vectors.jsonl").unlink()
    with pytest.raises(MissingIndexError):
        load_index(tmp_path / "idx")
    with pytest.raises(MissingIndexError):
        load_index(tmp_path / "nowhere")


def test_load_index_rejects_a_truncated_or_mismatched_index(tmp_path):
    docs = _fixture_docs(DatabaseKind.BASIC)
    kw = build_keyword_index(docs)
    rng = np.random.default_rng(7)
    vec = build_vector_index([(d, rng.standard_normal(8)) for d, _ in docs])
    save_index(tmp_path / "idx", kw, vec)
    vec_path = tmp_path / "idx" / "vectors.jsonl"
    whole = vec_path.read_text()
    lines = whole.splitlines(keepends=True)

    vec_path.write_text("".join(lines[:2]))  # cut at a line boundary
    with pytest.raises(MissingIndexError, match="incomplete index"):
        load_index(tmp_path / "idx")
    vec_path.write_text(whole[: len(whole) // 2])  # cut inside a record
    with pytest.raises(MissingIndexError):
        load_index(tmp_path / "idx")
    renamed = json.loads(lines[0])
    renamed["id"] = "99Z"
    vec_path.write_text(json.dumps(renamed) + "\n" + "".join(lines[1:]))
    with pytest.raises(MissingIndexError, match="incomplete index"):
        load_index(tmp_path / "idx")
    vec_path.write_text(whole)
    assert load_index(tmp_path / "idx")[1].ids == vec.ids


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


@pytest.mark.parametrize("name, text, reason", [
    ("keyword.json", '{"doc_lengths": {"71B": 1}}', "KeyError('postings')"),
    ("keyword.json", '{"postings": {}, "doc_lengths": {}}', "no documents to index"),
    ("vectors.jsonl", "", "no vectors to index"),
], ids=["keyword_without_postings", "keyword_without_docs", "no_vectors"])
def test_load_index_refuses_an_unreadable_file(tmp_path, name, text, reason):
    save_index(tmp_path / "idx", build_keyword_index([("71B", "ark")]), build_vector_index([("71B", [1.0])]))
    (tmp_path / "idx" / name).write_text(text)
    with pytest.raises(MissingIndexError, match="unreadable index file") as info:
        load_index(tmp_path / "idx")
    assert reason in str(info.value)
