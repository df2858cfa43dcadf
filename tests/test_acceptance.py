"""Acceptance gate: eleven end-of-build checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal so a full
run doubles as a checklist. Wherever a check is about correctness, the
expected values come from independent oracles written in this file (a
different parsing strategy, brute-force scoring loops, hand-computed
formula values) rather than from the library's own internals.
"""

import json
import math
import random
import re
import time
from contextlib import contextmanager

from iconclassify import retrieval
from iconclassify.evaluation import (
    LevelComparison,
    MatchType,
    classify_match,
    compare,
    hierarchical_metrics,
    truncation_report,
    weighted_score,
)
from iconclassify.pipeline import (
    ClassifyContext,
    MethodSpec,
    QueryKind,
    classify,
    read_manifest,
)
from iconclassify.providers import OfflineHashEmbedder, offline_embed
from iconclassify.retrieval import (
    ImageReferenceSet,
    bm25_score,
    build_keyword_index,
    build_vector_index,
    cosine_distance,
    hybrid_search,
    image_vote_classify,
    keyword_search,
    tokenize,
    vector_search,
)
from iconclassify.taxonomy import DatabaseKind, load_taxonomy, parse_code, render_doc

from conftest import FIXTURES, random_code_text
from e2e_flow import GOLDEN, run_flow

import numpy as np


# ------- checklist output

@contextmanager
def _criterion(capsys, n: int, desc: str):
    """Print one PASS/FAIL line per criterion, bypassing pytest's capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n:2d}/11 FAIL  {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {n:2d}/11 PASS  {desc}", flush=True)


# ------- criterion 1: hierarchy parsing and rendering

LADDER_73D231 = ("7", "73", "73D", "73D2", "73D23", "73D231")

TEXTS_73D231 = (
    "Bible",
    "New Testament",
    "Passion of Christ",
    "the episode of the Last Supper",
    "Christ washes the feet of the apostles (John 13:1-20)",
    "Christ washes Peter's feet",
)

HIER_71B32 = (
    "Bible; Old Testament; Genesis from the descendants of Cain and Seth to"
    " Abraham; story of Noah; the building of the ark, and the embarkation"
    " (Genesis 7:5-9)"
)


def test_criterion_1_ladder_and_rendering(capsys):
    with _criterion(capsys, 1, "six-rung ladder and hierarchical rendering"):
        code = parse_code("73D231")
        assert code.levels == 6
        assert code.segments == LADDER_73D231

        taxonomy = load_taxonomy(FIXTURES / "taxonomy.tsv")
        ladder_doc = render_doc(taxonomy.get("73D231"), taxonomy, DatabaseKind.HIERARCHICAL)
        assert ladder_doc == "; ".join(TEXTS_73D231)
        doc = render_doc(taxonomy.get("71B32"), taxonomy, DatabaseKind.HIERARCHICAL)
        assert doc == HIER_71B32


# ------- criterion 2: shallow-prediction worked example

def test_criterion_2_shallow_prediction_scores(capsys):
    with _criterion(capsys, 2, "71H14 vs 71H1442 scores as a shallow partial"):
        c = compare(parse_code("71H14"), parse_code("71H1442"))
        precision, recall, _ = hierarchical_metrics(c)
        assert precision == 1.0
        assert abs(recall - 5 / 7) <= 1e-9
        assert classify_match(c) is MatchType.PARTIAL_A
        assert abs(weighted_score(c) - 85 * (5 / 7)) <= 1e-9


# ------- criterion 3: three-of-five-level worked example

def test_criterion_3_three_of_five_scores_51(capsys):
    with _criterion(capsys, 3, "3-of-5-level partial scores exactly 51.0"):
        c = LevelComparison(matched=3, pred_levels=3, gt_levels=5)
        assert classify_match(c) is MatchType.PARTIAL_A
        assert weighted_score(c) == 51.0


# ------- criterion 4: metric oracle equivalence

# regex tokenizer: a deliberately different parsing strategy from the
# shipped character-walk parser
_ORACLE_TOKEN = re.compile(r"\(\+[^)]+\)|\([^)]+\)|[0-9A-Z]")

_PLAIN = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _oracle_ladder(raw: str) -> list[str]:
    rungs: list[str] = []
    cur = ""
    for tok in _ORACLE_TOKEN.findall(raw):
        if tok.startswith("(+"):
            key = tok[2:-1]
            for j in range(1, len(key) + 1):
                rungs.append(f"{cur}(+{key[:j]})")
            cur = rungs[-1]
        else:
            cur += tok
            rungs.append(cur)
    return rungs


def _oracle_scores(pred_raw: str, gt_raw: str):
    """Brute force: build both ladders, count shared rungs via set
    intersection, then re-derive every downstream number from (m, p, g)."""
    pred_ladder = _oracle_ladder(pred_raw)
    gt_ladder = _oracle_ladder(gt_raw)
    m = len(set(pred_ladder) & set(gt_ladder))
    p, g = len(pred_ladder), len(gt_ladder)

    precision = m / p
    recall = m / g
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)

    if m == p == g:
        mt = MatchType.FULL
    elif m == g and p > g:
        mt = MatchType.EXTRA
    elif m == 0:
        mt = MatchType.NO_MATCH
    elif p < g and m == p:
        mt = MatchType.PARTIAL_A
    elif p < g:
        mt = MatchType.PARTIAL_B
    else:
        mt = MatchType.PARTIAL_C

    if mt is MatchType.FULL:
        weighted = 100.0
    elif mt is MatchType.EXTRA:
        weighted = 90.0
    elif mt is MatchType.NO_MATCH:
        weighted = 0.0
    elif mt is MatchType.PARTIAL_A:
        weighted = max(85 * (m / g), 42.5)
    elif mt is MatchType.PARTIAL_B:
        weighted = max(70 * (m / g) * (m / p), 35.0)
    else:
        weighted = max(60 * (m / g) * (m / p), 30.0)
    return m, p, g, precision, recall, f1, mt, weighted


def _ladder_pair(rng: random.Random) -> tuple[str, str]:
    """Two plain digit/letter codes sharing a random prefix, depths 1..9."""
    shared = rng.choice("123456789") + "".join(
        rng.choice(_PLAIN) for _ in range(rng.randint(0, 4))
    )

    def extend() -> str:
        tail = "".join(rng.choice(_PLAIN) for _ in range(rng.randint(0, 4)))
        return (shared + tail)[:9]

    return extend(), extend()


def test_criterion_4_metric_oracle_equivalence(capsys):
    with _criterion(capsys, 4, "metrics agree exactly with a brute-force oracle"):
        rng = random.Random(20260818)
        pairs = [_ladder_pair(rng) for _ in range(1100)]
        # beyond the required plain ladders, a slice with qualifiers and keys
        for _ in range(200):
            pairs.append((
                random_code_text(rng, qualifier_p=0.4, key_p=0.4),
                random_code_text(rng, qualifier_p=0.4, key_p=0.4),
            ))
        assert len(pairs) >= 1000
        depths = {len(_oracle_ladder(raw)) for pair in pairs for raw in pair}
        assert set(range(1, 10)) <= depths

        start = time.perf_counter()
        for pred_raw, gt_raw in pairs:
            m, p, g, precision, recall, f1, mt, weighted = _oracle_scores(pred_raw, gt_raw)
            c = compare(parse_code(pred_raw), parse_code(gt_raw))
            assert (c.matched, c.pred_levels, c.gt_levels) == (m, p, g)
            assert hierarchical_metrics(c) == (precision, recall, f1)
            assert classify_match(c) is mt
            assert weighted_score(c) == weighted
        assert time.perf_counter() - start < 5.0


# ------- criterion 5: BM25 hand values and score-all oracle

TOY_DOCS = [
    ("71B32", "the ark of noah"),
    ("71B33", "the flood of water"),
    ("73D2", "the dove of peace"),
]

LN_8_3 = 0.9808292530117262


def _word_pool(rng: random.Random, size: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(letters) for _ in range(rng.randint(3, 8))))
    return sorted(words)


def test_criterion_5_bm25_hand_values_and_oracle(capsys):
    with _criterion(capsys, 5, "BM25 matches hand values and a score-all oracle"):
        index = build_keyword_index(TOY_DOCS)
        # df=1, tf=1, doc length equals the average: idf alone survives
        assert abs(bm25_score(index, ["ark"], "71B32") - LN_8_3) <= 1e-6
        assert abs(bm25_score(index, ["ark"], "71B32") - math.log(8 / 3)) <= 1e-6
        # a term in every document still gets positive weight
        assert abs(bm25_score(index, ["the"], "71B32") - math.log(8 / 7)) <= 1e-6
        # query terms sum; absent terms contribute nothing
        two = bm25_score(index, ["ark", "noah"], "71B32")
        assert abs(two - 2 * math.log(8 / 3)) <= 1e-6
        assert bm25_score(index, ["zebra"], "71B32") == 0.0

        rng = random.Random(52)
        pool = _word_pool(rng, 180)
        ids = [f"7{i}" for i in range(1000)]
        corpus = [(doc_id, " ".join(rng.choices(pool, k=rng.randint(5, 30)))) for doc_id in ids]
        big = build_keyword_index(corpus)
        for _ in range(10):
            query = " ".join(rng.choices(pool, k=rng.randint(2, 6)))
            terms = tokenize(query)
            scored = [(-bm25_score(big, terms, doc_id), doc_id) for doc_id in ids]
            expected = [(doc_id, -neg) for neg, doc_id in sorted(scored) if neg < 0.0]
            hits = keyword_search(big, query, 400)
            assert [(h.code.raw, h.score) for h in hits] == expected[:400]


# ------- criterion 6: vector search oracle and speed

def test_criterion_6_vector_search_exact_and_fast(capsys, monkeypatch):
    with _criterion(capsys, 6, "vector search is exact, self-consistent, fast"):
        rng = random.Random(6)
        pool = _word_pool(rng, 220)
        texts: list[str] = []
        seen: set[str] = set()
        while len(texts) < 1000:
            text = " ".join(rng.choices(pool, k=rng.randint(4, 12)))
            if text not in seen:
                seen.add(text)
                texts.append(text)
        ids = [f"7{i}" for i in range(1000)]
        vecs = [offline_embed(text, 64) for text in texts]
        index = build_vector_index(zip(ids, vecs))

        for _ in range(20):
            qvec = offline_embed(" ".join(rng.choices(pool, k=5)), 64)
            oracle = sorted((cosine_distance(vecs[i], qvec), ids[i]) for i in range(1000))
            expected = [(doc_id, 1.0 - dist) for dist, doc_id in oracle]
            hits = vector_search(index, qvec, 1000)
            assert [(h.code.raw, h.score) for h in hits] == expected

        for i in range(1000):
            top = vector_search(index, vecs[i], 1)[0]
            assert top.code.raw == ids[i]
            assert abs(1.0 - top.score) <= 1e-7  # distance 0 within 1e-7

        big_rng = np.random.default_rng(20260818)
        big = big_rng.standard_normal((12600, 1536))
        big_index = build_vector_index((f"7{i}", big[i]) for i in range(12600))
        scans = []
        row_dots = retrieval._row_dots
        monkeypatch.setattr(retrieval, "_row_dots", lambda matrix, q: scans.append(1) or row_dots(matrix, q))
        vector_search(big_index, big_rng.standard_normal(1536), 10)  # warm-up
        timings = []
        for _ in range(3):
            # a fresh probe each time: the index keeps its last query's distances, and a repeat would scan nothing
            probe = big_rng.standard_normal(1536)
            scanned = len(scans)
            t0 = time.perf_counter()
            vector_search(big_index, probe, 10)
            timings.append(time.perf_counter() - t0)
            assert len(scans) == scanned + 1
        assert min(timings) < 0.1
        # the one scan call is exact at the paper's dim too, row for row
        oracle = np.array([cosine_distance(row, probe) for row in big])
        assert retrieval._distances(big_index, probe).tobytes() == oracle.tobytes()


# ------- criterion 7: hybrid fusion boundaries

def _fixture_engine(kind: DatabaseKind):
    taxonomy = load_taxonomy(FIXTURES / "taxonomy.tsv")
    docs = {entry.code.raw: render_doc(entry, taxonomy, kind) for entry in taxonomy}
    items = sorted(docs.items())
    kw_index = build_keyword_index(items)
    vec_index = build_vector_index((code, offline_embed(text, 64)) for code, text in items)
    return docs, kw_index, vec_index


def test_criterion_7_alpha_boundaries(capsys):
    with _criterion(capsys, 7, "alpha 1/0 reproduce the pure rankings"):
        docs, kw_index, vec_index = _fixture_engine(DatabaseKind.HIERARCHICAL)
        n = len(docs)
        words = sorted({w for text in docs.values() for w in tokenize(text)})
        rng = random.Random(7)
        for _ in range(100):
            query = " ".join(rng.choices(words, k=rng.randint(2, 6)))
            qvec = offline_embed(query, 64)
            vec_ids = [h.code.raw for h in vector_search(vec_index, qvec, n)]
            kw_ids = [h.code.raw for h in keyword_search(kw_index, query, n)]

            pure_vec = hybrid_search(kw_index, vec_index, query, qvec, alpha=1.0, k=n, pool=n)
            assert [h.code.raw for h in pure_vec] == vec_ids

            # keyword misses rank behind every hit, ordered by notation
            pure_kw = hybrid_search(kw_index, vec_index, query, qvec, alpha=0.0, k=n, pool=n)
            missed = sorted(set(vec_ids) - set(kw_ids))
            assert [h.code.raw for h in pure_kw] == kw_ids + missed


# ------- criterion 8: truncation properties

def test_criterion_8_truncation_properties(capsys):
    with _criterion(capsys, 8, "truncation is monotone with exact level steps"):
        rng = random.Random(8)
        pairs = [
            (parse_code(random_code_text(rng, max_plain=8)),
             parse_code(random_code_text(rng, max_plain=8)))
            for _ in range(200)
        ]
        rows = truncation_report(pairs, max_k=4)
        for prev, cur in zip(rows, rows[1:]):
            assert cur["recall"] <= prev["recall"]

        # all predictions at least 5 levels deep: every k=0..4 step stays
        # above the one-level floor, so avg_levels drops by exactly 1
        deep = []
        while len(deep) < 32:  # 32 pairs keep the averages exact in binary
            pred_raw, gt_raw = _ladder_pair(rng)
            pred = parse_code(pred_raw)
            if pred.levels >= 5:
                deep.append((pred, parse_code(gt_raw)))
        deep_rows = truncation_report(deep, max_k=4)
        for k, row in enumerate(deep_rows):
            assert row["avg_levels"] == deep_rows[0]["avg_levels"] - k

        # the k=0 row is the untruncated aggregate, bitwise
        n = len(pairs)
        p_sum = r_sum = f_sum = level_sum = 0.0
        for pred, gt in pairs:
            precision, recall, f1 = hierarchical_metrics(compare(pred, gt))
            p_sum += precision
            r_sum += recall
            f_sum += f1
            level_sum += pred.levels
        head = rows[0]
        assert (head["precision"], head["recall"], head["f1"], head["avg_levels"]) == (
            p_sum / n, r_sum / n, f_sum / n, level_sum / n)


# ------- criterion 9: image-vote plurality and tie-breaks

def _ray(deg: float) -> list[float]:
    rad = math.radians(deg)
    return [math.cos(rad), math.sin(rad)]


def _refs(*rows) -> ImageReferenceSet:
    return ImageReferenceSet([[parse_code(c) for c in codes] for _, codes in rows],
                             np.array([_ray(deg) for deg, _ in rows]))


def test_criterion_9_image_vote_cases(capsys):
    with _criterion(capsys, 9, "image vote matches 10 enumerated outcomes"):
        q = [1.0, 0.0]  # distance from q grows with the angle

        # 1. plain plurality: two votes beat one
        winner, _ = image_vote_classify(
            q, _refs((5, ["71B32"]), (10, ["71B32"]), (15, ["73D2"])), k=3)
        assert winner.raw == "71B32"

        # 2. unanimous neighbourhood
        winner, table = image_vote_classify(
            q, _refs(*((5 + i, ["73D231"]) for i in range(5))), k=5)
        assert winner.raw == "73D231"
        assert table[0].votes == 5

        # 3. vote tie: the code with the nearer supporter wins
        winner, _ = image_vote_classify(q, _refs((5, ["73D2"]), (10, ["71B32"])), k=2)
        assert winner.raw == "73D2"

        # 4. vote and rank tie on a single neighbour: smaller notation wins
        winner, _ = image_vote_classify(q, _refs((5, ["73D2", "71B32"])), k=1)
        assert winner.raw == "71B32"

        # 5. a label repeated on one neighbour still counts once
        winner, _ = image_vote_classify(
            q, _refs((5, ["71B32", "71B32"]), (10, ["73D2"]), (15, ["73D2"])), k=3)
        assert winner.raw == "73D2"

        # 6. k larger than the reference set clamps to all rows
        winner, table = image_vote_classify(q, _refs((5, ["71B3"]), (10, ["71B3"])), k=50)
        assert winner.raw == "71B3"
        assert table[0].votes == 2

        # 7. a twice-supported code beats a closer singleton
        winner, _ = image_vote_classify(
            q, _refs((2, ["73D23"]), (20, ["71B33"]), (30, ["71B33"])), k=3)
        assert winner.raw == "71B33"

        # 8. nearest neighbour wrong, majority right
        winner, _ = image_vote_classify(
            q, _refs((1, ["11Q"]), (10, ["71B32"]), (20, ["71B32"]), (30, ["71B32"])), k=4)
        assert winner.raw == "71B32"

        # 9. k=1 listens only to the nearest neighbour
        winner, table = image_vote_classify(
            q, _refs((1, ["11Q"]), (10, ["71B32"]), (20, ["71B32"])), k=1)
        assert winner.raw == "11Q"
        assert len(table) == 1

        # 10. three-way tie resolves by rank; the table orders by
        #     (votes, best rank, notation)
        winner, table = image_vote_classify(
            q, _refs((5, ["73D2"]), (10, ["11Q"]), (15, ["71B32"])), k=3)
        assert winner.raw == "73D2"
        assert [entry.code.raw for entry in table] == ["73D2", "11Q", "71B32"]
        assert [entry.best_rank for entry in table] == [1, 2, 3]


# ------- criterion 10: hermetic end-to-end flow vs frozen goldens

def test_criterion_10_end_to_end_golden(capsys, tmp_path):
    with _criterion(capsys, 10, "six-method flow reproduces the goldens, twice"):
        golden_files = sorted(p for p in GOLDEN.rglob("*") if p.is_file())
        assert golden_files, "golden fixtures are missing"

        first = tmp_path / "run1"
        second = tmp_path / "run2"
        first.mkdir()
        second.mkdir()

        start = time.perf_counter()
        out_first = run_flow(first)
        assert time.perf_counter() - start < 10.0
        out_second = run_flow(second)

        for golden in golden_files:
            rel = golden.relative_to(GOLDEN)
            assert (out_first / rel).read_bytes() == golden.read_bytes(), str(rel)
            assert (out_second / rel).read_bytes() == golden.read_bytes(), str(rel)


# ------- criterion 11: RAG containment

class _JunkChat:
    """Chat stand-in that never names a catalogued code."""

    def complete(self, prompt, image_bytes=None):
        return "none of these look right to me"


def test_criterion_11_rag_containment(capsys):
    with _criterion(capsys, 11, "RAG predictions stay inside their candidates"):
        manifest = read_manifest(FIXTURES / "manifest.csv")
        checked = 0
        violations = 0
        for kind in (DatabaseKind.BASIC, DatabaseKind.HIERARCHICAL):
            docs, kw_index, vec_index = _fixture_engine(kind)
            for chat in (None, _JunkChat()):
                ctx = ClassifyContext(
                    documents=docs,
                    keyword_index=kw_index,
                    vector_index=vec_index,
                    embedder=OfflineHashEmbedder(64),
                    chat=chat,
                )
                for query_kind in (QueryKind.RAG_VECTOR, QueryKind.RAG_HYBRID):
                    spec = MethodSpec(query_kind=query_kind, database_kind=kind)
                    for row in manifest:
                        pred = classify(row, spec, ctx)
                        checked += 1
                        members = {h.code.raw for h in pred.candidates}
                        if pred.predicted.raw not in members and not pred.fallback_flag:
                            violations += 1

        # the frozen end-to-end artifacts obey the same invariant
        golden_jsonl = GOLDEN / "rag-vector-page-basic" / "predictions.jsonl"
        for line in golden_jsonl.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            checked += 1
            members = {c["code"] for c in record["candidates"]}
            if record["predicted"] not in members and not record["fallback"]:
                violations += 1

        assert checked >= 96 + 12
        assert violations == 0
