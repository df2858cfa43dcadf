"""Tests of the benchmark itself: corpus, oracles and a toy-size run of every workload.

    python3 -m pytest benchmarks
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import oracles  # noqa: E402
from iconclassify.retrieval import (  # noqa: E402
    ImageReferenceSet,
    RankedHit,
    build_keyword_index,
    build_vector_index,
    hybrid_search,
    image_vote_classify,
    keyword_search,
    vector_search,
)
from iconclassify.providers import offline_embed, offline_select  # noqa: E402
from iconclassify.taxonomy import load_taxonomy, parse_code, render_hierarchical_doc  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    corpus.generate(tmp_path / "a", 7, corpus.TOY)
    corpus.generate(tmp_path / "b", 7, corpus.TOY)
    corpus.generate(tmp_path / "c", 8, corpus.TOY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["taxonomy.tsv"] != _files(tmp_path / "c")["taxonomy.tsv"]


def test_every_paper_scale_entry_renders_hierarchically(tmp_path):
    corpus.generate(tmp_path, 3, corpus.PAPER)
    tax = load_taxonomy(tmp_path / "taxonomy.tsv")
    assert tax.stats.kept == corpus.PAPER.entries
    assert tax.stats.filtered == corpus.PAPER.filtered
    for entry in tax:
        render_hierarchical_doc(entry, tax)  # raises MissingAncestorError on a gap
    depths = {entry.code.levels for entry in tax}
    assert max(depths) == 9 and min(depths) == 1
    raws = [entry.code.raw for entry in tax]
    assert sum("(+" in raw for raw in raws) > 1000
    assert sum("(" in raw and "(+" not in raw for raw in raws) > 1000
    with open(tmp_path / "manifest.csv", encoding="utf-8") as fh:
        rows = fh.readlines()[1:]
    assert len(rows) == corpus.PAPER.rows
    assert all(row.split(",")[1] in tax for row in rows)


@pytest.fixture(scope="module")
def toy_docs():
    rng = random.Random(5)
    words = ["ark", "noah", "flood", "dove", "raven", "peter", "paul", "supper", "basin", "cross"]
    return {f"7{i}": " ".join(rng.choices(words, k=rng.randint(3, 9))) for i in range(200)}


def test_offline_rows_match_the_program_bit_for_bit(toy_docs):
    rows = oracles.offline_rows(list(toy_docs.values()), 64)
    expected = [offline_embed(text, 64) for text in toy_docs.values()]
    assert rows.tobytes() == build_vector_index(zip(toy_docs, expected)).matrix.tobytes()


def _perturbed(hits: list[RankedHit]) -> list[list[RankedHit]]:
    swapped = [hits[1], hits[0], *hits[2:]]
    nudged = [RankedHit(hits[0].code, hits[0].score * (1 + 1e-15), 1), *hits[1:]]
    replaced = hits[:-1] + [RankedHit(parse_code("79"), hits[-1].score, hits[-1].rank)]
    return [swapped, nudged, replaced, hits[:-1]]


QUERY = "noah and the ark before the flood, with a dove, peter and paul at the supper"


def test_keyword_oracle_accepts_the_program_and_rejects_perturbed_hits(toy_docs):
    index = build_keyword_index(toy_docs.items())
    oracle = oracles.BM25Oracle(toy_docs)
    hits = keyword_search(index, QUERY, 5)
    assert oracles.keyword_matches(oracle, index, QUERY, hits, 5)
    for bad in _perturbed(hits):
        assert not oracles.keyword_matches(oracle, index, QUERY, bad, 5)


def test_vector_oracle_accepts_the_program_and_rejects_perturbed_hits(toy_docs):
    index = build_vector_index((doc_id, offline_embed(text, 64)) for doc_id, text in toy_docs.items())
    query = offline_embed(QUERY, 64)
    ranked = oracles.vector_ranked(index, query)
    hits = vector_search(index, query, 5)
    assert oracles.vector_matches(ranked, hits, 5)
    for bad in _perturbed(hits):
        assert not oracles.vector_matches(ranked, bad, 5)


def test_hybrid_and_rag_oracles_agree_with_the_program(toy_docs):
    kw_index = build_keyword_index(toy_docs.items())
    vec_index = build_vector_index((doc_id, offline_embed(text, 64)) for doc_id, text in toy_docs.items())
    query = offline_embed(QUERY, 64)
    keyword = oracles.BM25Oracle(toy_docs).top(QUERY, 20)
    vector = oracles.vector_ranked(vec_index, query)
    hits = hybrid_search(kw_index, vec_index, QUERY, query, alpha=0.75, k=5, pool=20)
    got = [(h.code.raw, h.score) for h in hits]
    assert got == oracles.hybrid_top(keyword, vector, 0.75, 5, 20)
    for bad in _perturbed(hits):
        assert [(h.code.raw, h.score) for h in bad] != oracles.hybrid_top(keyword, vector, 0.75, 5, 20)
    picked, _ = offline_select(QUERY, [(h.code, toy_docs[h.code.raw]) for h in hits])
    assert oracles.jaccard_pick(QUERY, [(code, toy_docs[code]) for code, _ in got]) == picked.raw


def test_vote_oracle_agrees_with_the_program(tmp_path):
    corpus.generate(tmp_path, 4, corpus.TOY)
    refs = oracles.read_refs(tmp_path / "refs.jsonl")
    ref_set = ImageReferenceSet.from_jsonl(tmp_path / "refs.jsonl")
    for path in sorted((tmp_path / "vectors").iterdir())[:10]:
        query = json.loads(path.read_text())
        winner, table = image_vote_classify(query, ref_set, k=10)
        expected = oracles.vote_table(refs, query, 10)
        assert expected[0][0] == winner.raw
        assert expected == [(entry.code.raw, entry.votes) for entry in table]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build", "classify-cli", "query"])
def test_toy_run(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("build", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
