"""The `query` workload's measuring process: the warm read path.

It loads the hierarchical index, the reference set, the rendered taxonomy
and the description cache (the set-up, timed several times), then calls
`pipeline.classify` one row at a time in a closed loop with one client.
Each cycle takes the next manifest row through keyword, vector, hybrid,
rag-hybrid and image classification. Outputs are checked against the
oracles after the loop. The process runs nothing else, so its peak RSS
belongs to this workload. It prints one JSON object on its last line.

Run by `run.py`; by hand:
    PYTHONPATH=src python3 benchmarks/query.py --corpus <dir> --prep <dir> --seconds 10 --min-cycles 50
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from iconclassify import pipeline, providers, retrieval
from iconclassify.pipeline import ClassifyContext, MethodSpec, QueryKind
from iconclassify.providers import DescriptionMode, OfflineHashEmbedder
from iconclassify.taxonomy import DatabaseKind

import oracles
from run import read_rendered
from tracing import Tracer, per_layer_metrics

METHODS = {
    "keyword": MethodSpec(QueryKind.KEYWORD, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL),
    "vector": MethodSpec(QueryKind.VECTOR, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL),
    "hybrid": MethodSpec(QueryKind.HYBRID, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL),
    "rag": MethodSpec(QueryKind.RAG_HYBRID, DescriptionMode.FULL_PAGE, DatabaseKind.HIERARCHICAL),
    "image": MethodSpec(QueryKind.IMAGE, DescriptionMode.ILLUSTRATION, DatabaseKind.BASIC),
}
SETUPS = 2
CHECKED_ROWS = 4  # rows per run whose outputs are compared with the oracles


def setup(corpus: Path, prep: Path) -> tuple[ClassifyContext, list, float]:
    """Load what the loop reads; `prep` holds the outputs of `taxonomy build`,
    `index build` and `describe` over the corpus."""
    start = time.perf_counter()
    kw_index, vec_index, _ = retrieval.load_index(prep / "index")
    ctx = ClassifyContext(
        documents=read_rendered(prep / "rendered.jsonl"),
        keyword_index=kw_index,
        vector_index=vec_index,
        embedder=OfflineHashEmbedder(dim=vec_index.dim),
        description_cache=providers.DescriptionCache(prep / "descriptions.jsonl"),
        references=retrieval.ImageReferenceSet.from_jsonl(corpus / "refs.jsonl"),
    )
    rows = pipeline.read_manifest(corpus / "manifest.csv")
    return ctx, rows, time.perf_counter() - start


def loop(ctx, rows, seconds: float, min_cycles: int):
    """Closed loop of at least `min_cycles` cycles and `seconds` seconds;
    returns per-method latencies (s), predictions, failures, cycles and wall time."""
    latencies = {name: [] for name in METHODS}
    predictions = []
    failures = 0
    start = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        row = rows[cycle % len(rows)]
        for name, spec in METHODS.items():
            t0 = time.perf_counter()
            try:
                pred = pipeline.classify(row, spec, ctx)
            except Exception as exc:  # a failed row is counted, not fatal
                failures += 1
                print(f"{row.image_id} {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            latencies[name].append(time.perf_counter() - t0)
            predictions.append((name, row, pred))
        cycle += 1
    return latencies, predictions, failures, cycle, time.perf_counter() - start


def summary(pred) -> tuple:
    return (pred.image_id, pred.method.label, pred.predicted.raw,
            [(h.code.raw, h.score, h.rank) for h in pred.candidates], pred.fallback_flag)


def check(ctx, corpus: Path, predictions) -> tuple[int, int]:
    """Oracle checks on the given predictions; returns (checks, mismatches)."""
    bm25 = oracles.BM25Oracle(ctx.documents)
    refs = oracles.read_refs(corpus / "refs.jsonl")
    ranked = {}  # image_id -> (keyword oracle's pool, vector oracle's full ranking)
    checks = mismatches = 0
    for name, row, pred in predictions:
        spec = METHODS[name]
        got = [(h.code.raw, h.score) for h in pred.candidates]
        if name == "image":
            query = json.loads(Path(row.vector_path).read_text(encoding="utf-8"))
            table = oracles.vote_table(refs, query, ctx.vote_k)
            ok = pred.predicted.raw == table[0][0] and got == [(code, float(v)) for code, v in table]
        else:
            description = ctx.description_cache.get(row.image_id, DescriptionMode.FULL_PAGE).text
            if row.image_id not in ranked:
                qvec = providers.offline_embed(description, ctx.vector_index.dim)
                ranked[row.image_id] = (bm25.top(description, ctx.hybrid_pool),
                                        oracles.vector_ranked(ctx.vector_index, qvec))
            keyword, vector = ranked[row.image_id]
            if name == "keyword":
                ok = oracles.keyword_matches(bm25, ctx.keyword_index, description, pred.candidates, spec.rag_k)
            elif name == "vector":
                ok = oracles.vector_matches(vector, pred.candidates, spec.rag_k)
            else:  # hybrid and rag
                ok = got == oracles.hybrid_top(keyword, vector, spec.alpha, spec.rag_k, ctx.hybrid_pool)
                if name == "rag":
                    pick = oracles.jaccard_pick(description, [(code, ctx.documents[code]) for code, _ in got])
                    ok = ok and pred.predicted.raw == pick and not pred.fallback_flag
        checks += 1
        if not ok:
            mismatches += 1
            print(f"{row.image_id} {name}: output differs from the oracle", file=sys.stderr)
    return checks, mismatches


def percentiles(values: list[float]) -> dict:
    # with n samples the p90 has n/10 samples beyond it
    return {"p50_ms": statistics.median(values) * 1e3,
            "p90_ms": statistics.quantiles(values, n=10)[-1] * 1e3, "samples": len(values)}


def measure(corpus: Path, prep: Path, seconds: float, min_cycles: int) -> dict:
    setup_times = []
    for _ in range(SETUPS):
        ctx = rows = None  # release the previous copy before loading the next
        ctx, rows, elapsed = setup(corpus, prep)
        setup_times.append(elapsed)
    latencies, predictions, failures, cycles, loop_s = loop(ctx, rows, seconds, min_cycles)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cycle_times = [sum(per_method) for per_method in zip(*latencies.values())]
    start = time.perf_counter()
    checks, mismatches = check(ctx, corpus, predictions[: CHECKED_ROWS * len(METHODS)])
    check_s = time.perf_counter() - start
    return {
        "setup_s": statistics.median(setup_times),
        "setup_runs_s": setup_times,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "cycles": cycles,
        "loop_s": loop_s,
        "check_s": check_s,
        "cycle_s": statistics.median(cycle_times),
        "methods": {name: percentiles(values) for name, values in latencies.items()},
        "attempted": len(predictions) + failures + checks,
        "failed": failures + mismatches,
        "checks": checks,
    }


def trace(corpus: Path, prep: Path, cycles: int, spans_path: Path) -> dict:
    """The same set-up and rows untraced, then traced; outputs must agree."""
    ctx, rows, plain_setup = setup(corpus, prep)
    _, plain, plain_failures, _, plain_loop = loop(ctx, rows, 0, cycles)
    ctx = rows = None
    tracer = Tracer()
    with tracer:
        ctx, rows, traced_setup = setup(corpus, prep)
        _, traced, traced_failures, _, traced_loop = loop(ctx, rows, 0, cycles)
    tracer.write(spans_path)
    same = [summary(p) for _, _, p in plain] == [summary(p) for _, _, p in traced]
    if not same:
        print("traced and untraced predictions differ", file=sys.stderr)
    tracer.counts["item_errors"] += traced_failures
    overhead = (traced_setup + traced_loop) - (plain_setup + plain_loop)
    return {
        "metrics": per_layer_metrics(tracer, {"trace.overhead_s": overhead}),
        "attempted": len(plain) + len(traced) + plain_failures + traced_failures + 1,
        "failed": plain_failures + traced_failures + (0 if same else 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--prep", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-cycles", type=int, required=True)
    parser.add_argument("--trace", type=Path, default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args()
    if args.trace:
        result = trace(args.corpus, args.prep, args.min_cycles, args.trace)
    else:
        result = measure(args.corpus, args.prep, args.seconds, args.min_cycles)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
