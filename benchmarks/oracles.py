"""Score-everything oracles that the benchmark checks the program's outputs against.

Each oracle scores every candidate with its own loop instead of reusing the
index structures the program searches, in the style of the acceptance
suite's oracles. They run outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from iconclassify.retrieval import DEFAULT_B, DEFAULT_K1, bm25_score, build_keyword_index, cosine_distance

_TOKEN = re.compile(r"[^\W_]+")


class BM25Oracle:
    """BM25 of every document, from per-document term counts.

    The per-term expression and the summation order (query terms in order,
    repeats included) are those of the BM25 definition the program uses,
    so scores agree bit for bit.
    """

    def __init__(self, docs: dict[str, str], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        self.k1, self.b = k1, b
        self.counts = {doc_id: Counter(_TOKEN.findall(text.lower())) for doc_id, text in docs.items()}
        self.lengths = {doc_id: sum(c.values()) for doc_id, c in self.counts.items()}
        self.avg = sum(self.lengths.values()) / len(self.lengths)
        self.df: Counter[str] = Counter()
        for c in self.counts.values():
            self.df.update(c.keys())

    def top(self, query: str, k: int) -> list[tuple[str, float]]:
        terms = _TOKEN.findall(query.lower())
        n = len(self.counts)
        k1, b = self.k1, self.b
        idf = {t: math.log(1 + (n - self.df[t] + 0.5) / (self.df[t] + 0.5)) for t in terms if self.df[t]}
        scored = []
        for doc_id, counts in self.counts.items():
            score = 0.0
            doc_len = self.lengths[doc_id]
            for term in terms:
                tf = counts.get(term, 0)
                if tf:
                    denom = tf + k1 * (1 - b + b * doc_len / self.avg)
                    score += idf[term] * (tf * (k1 + 1)) / denom
            if score > 0.0:
                scored.append((-score, doc_id))
        scored.sort()
        return [(doc_id, -neg) for neg, doc_id in scored[:k]]


def keyword_matches(oracle: BM25Oracle, index, query: str, hits, k: int) -> bool:
    """Hits equal the oracle's top k, and each score equals `bm25_score`."""
    got = [(h.code.raw, h.score) for h in hits]
    if got != oracle.top(query, k):
        return False
    terms = _TOKEN.findall(query.lower())
    return all(bm25_score(index, terms, doc_id) == score for doc_id, score in got)


def vector_ranked(vec_index, query_vector) -> list[tuple[str, float]]:
    """Every row as (id, similarity), sorted by `cosine_distance`, then id."""
    ranked = sorted(
        (cosine_distance(vec_index.matrix[i], query_vector), doc_id)
        for i, doc_id in enumerate(vec_index.ids)
    )
    return [(doc_id, 1.0 - dist) for dist, doc_id in ranked]


def vector_matches(ranked: list[tuple[str, float]], hits, k: int) -> bool:
    """Hits equal the head of `vector_ranked`: its first k rows."""
    return [(h.code.raw, h.score) for h in hits] == ranked[:k]


def _minmax(raw: dict[str, float], ids: list[str]) -> dict[str, float]:
    values = [raw.get(doc_id, 0.0) for doc_id in ids]
    lo, hi = min(values), max(values)
    if hi > lo:
        return {doc_id: (v - lo) / (hi - lo) for doc_id, v in zip(ids, values)}
    return {doc_id: 1.0 if v > 0 else 0.0 for doc_id, v in zip(ids, values)}


def hybrid_top(keyword: list[tuple[str, float]], vector: list[tuple[str, float]],
               alpha: float, k: int, pool: int) -> list[tuple[str, float]]:
    """Fusion of the two oracles' top `pool` lists: min-max normalize each
    over their union (absent means 0), weight vector by alpha, and keep the
    k best by fused score, then id."""
    kw, vec = dict(keyword[:pool]), dict(vector[:pool])
    union = sorted(set(kw) | set(vec))
    kw_norm, vec_norm = _minmax(kw, union), _minmax(vec, union)
    fused = [(doc_id, alpha * vec_norm[doc_id] + (1.0 - alpha) * kw_norm[doc_id]) for doc_id in union]
    return sorted(fused, key=lambda pair: (-pair[1], pair[0]))[:k]


def jaccard_pick(description: str, candidates: list[tuple[str, str]]) -> str:
    """The candidate whose token set has the largest Jaccard overlap with the
    description's; ties go to the earlier candidate."""
    desc = set(_TOKEN.findall(description.lower()))
    overlaps = []
    for rank, (code, text) in enumerate(candidates):
        tokens = set(_TOKEN.findall(text.lower()))
        overlaps.append((len(desc & tokens) / (len(desc | tokens) or 1), -rank, code))
    return max(overlaps)[2]


def read_refs(path: Path) -> list[tuple[list[float], list[str]]]:
    with open(path, encoding="utf-8") as fh:
        return [(rec["vector"], rec["codes"]) for rec in map(json.loads, fh)]


def vote_table(refs: list[tuple[list[float], list[str]]], query: list[float], k: int) -> list[tuple[str, int]]:
    """Brute-force vote: one vote per distinct code among the k nearest
    references, as (code, votes), best first; ties go to the nearest
    supporter, then the smallest code."""
    ranked = sorted((cosine_distance(vec, query), i) for i, (vec, _) in enumerate(refs))
    votes: Counter[str] = Counter()
    best: dict[str, int] = {}
    for rank, (_, i) in enumerate(ranked[:k], start=1):
        for code in set(refs[i][1]):
            votes[code] += 1
            best.setdefault(code, rank)
    return [(code, votes[code]) for code in sorted(votes, key=lambda code: (-votes[code], best[code], code))]


def offline_rows(texts: list[str], dim: int) -> np.ndarray:
    """The offline hash embedding of every text, one row each.

    Same definition as the program's offline embedder (signed counts of
    keyed-blake2b-hashed character 3-grams, L2-normalized), with each gram
    hashed once for the whole corpus. The counts are small integers, so
    the rows agree bit for bit whatever order they are summed in.
    """
    buckets: dict[str, tuple[int, float]] = {}
    rows = np.zeros((len(texts), dim), dtype=np.float64)
    for r, text in enumerate(texts):
        s = text.lower()
        index, sign = [], []
        for i in range(len(s) - 2):
            gram = s[i : i + 3]
            hit = buckets.get(gram)
            if hit is None:
                digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=b"icx-gram").digest()
                h = int.from_bytes(digest, "big")
                hit = buckets[gram] = (h % dim, 1.0 if h < (1 << 63) else -1.0)
            index.append(hit[0])
            sign.append(hit[1])
        vec = np.bincount(index, weights=sign, minlength=dim)
        rows[r] = vec / float(np.linalg.norm(vec))
    return rows


def index_mismatches(loaded_kw, loaded_vec, docs: dict[str, str], dim: int) -> list[str]:
    """Ways the loaded index differs from one built in memory from `docs`:
    ids, postings, document lengths and every matrix row, bit for bit."""
    problems = []
    built = build_keyword_index(docs.items())
    if loaded_kw.postings != built.postings:
        problems.append("postings differ")
    if loaded_kw.doc_lengths != built.doc_lengths or loaded_kw.avg_doc_length != built.avg_doc_length:
        problems.append("document lengths differ")
    if loaded_vec.ids != list(docs):
        problems.append("vector ids differ")
    elif offline_rows(list(docs.values()), dim).tobytes() != loaded_vec.matrix.tobytes():
        problems.append("matrix differs")
    return problems
