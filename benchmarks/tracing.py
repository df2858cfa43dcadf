"""Spans around calls into the package's public functions, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper wherever it
is looked up: `pipeline` imports `vector_search`, `embed_text` and others by
name, and `hybrid_search` calls the module globals of `retrieval`, so both
places are patched. `uninstall()` restores every original. Spans stay in
memory as (id, parent, name, start, end) and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from iconclassify import cli, evaluation, pipeline, providers, retrieval, taxonomy

# span name -> places the function is looked up, as (owner, attribute)
_FUNCTIONS = {
    "taxonomy.load": [(taxonomy, "load_taxonomy")],
    "taxonomy.render_basic": [(taxonomy, "render_basic_doc")],
    "taxonomy.render_hierarchical": [(taxonomy, "render_hierarchical_doc")],
    "providers.embed_many": [(providers, "embed_many")],
    "providers.embed_text": [(providers, "embed_text"), (pipeline, "embed_text")],
    "providers.embed": [(providers.OfflineHashEmbedder, "embed")],
    "providers.select": [(providers, "offline_select"), (pipeline, "offline_select")],
    "providers.desc_cache_load": [(providers.DescriptionCache, "__init__")],
    "retrieval.kw_build": [(retrieval, "build_keyword_index")],
    "retrieval.vec_build": [(retrieval, "build_vector_index")],
    "retrieval.save": [(retrieval, "save_index")],
    "retrieval.load": [(retrieval, "load_index")],
    "retrieval.refs_load": [(retrieval.ImageReferenceSet, "from_jsonl")],
    "retrieval.keyword": [(retrieval, "keyword_search"), (pipeline, "keyword_search")],
    "retrieval.vector": [(retrieval, "vector_search"), (pipeline, "vector_search")],
    "retrieval.hybrid": [(retrieval, "hybrid_search"), (pipeline, "hybrid_search")],
    "retrieval.vote": [(retrieval, "image_vote_classify"), (pipeline, "image_vote_classify")],
    "pipeline.manifest": [(pipeline, "read_manifest")],
    "pipeline.classify": [(pipeline, "classify")],
    "pipeline.batch": [(pipeline, "classify_batch")],
    "pipeline.write_jsonl": [(pipeline, "write_predictions_jsonl")],
    "pipeline.write_csv": [(pipeline, "write_predictions_csv")],
    "evaluation.read": [(evaluation, "read_predictions_csv")],
    "evaluation.pair": [(evaluation, "evaluate_pair")],
    "evaluation.report": [(evaluation, "build_report")],
    "evaluation.render": [(evaluation, "render_report_text")],
}

# each command's callback, keyed by the span name of the command
_COMMANDS = {
    "cli.taxonomy_build": cli.cmd_taxonomy_build,
    "cli.index_build": cli.cmd_index_build,
    "cli.describe": cli.cmd_describe,
    "cli.classify": cli.cmd_classify,
    "cli.evaluate": cli.cmd_evaluate,
}

CLASSIFY_METHODS = ("keyword", "vector", "hybrid", "rag-hybrid", "image")

# every per-layer metric with its unit, in report order
PER_LAYER = {
    "taxonomy.load_s": "s",
    "taxonomy.render_s": "s",
    "providers.embed_ms": "ms",
    "providers.embed_calls": "count",
    "providers.embed_cache_hits": "count",
    "providers.embed_cache_misses": "count",
    "providers.desc_cache_load_s": "s",
    "providers.select_ms": "ms",
    "retrieval.kw_build_s": "s",
    "retrieval.vec_build_s": "s",
    "retrieval.save_s": "s",
    "retrieval.index_bytes": "bytes",
    "retrieval.load_s": "s",
    "retrieval.refs_load_s": "s",
    "retrieval.keyword_ms": "ms",
    "retrieval.postings_scored": "count",
    "retrieval.vector_ms": "ms",
    "retrieval.hybrid_ms": "ms",
    "retrieval.vote_ms": "ms",
    "pipeline.manifest_s": "s",
    "pipeline.write_s": "s",
    **{f"pipeline.classify_ms.{m}": "ms" for m in CLASSIFY_METHODS},
    "pipeline.item_errors": "count",
    "pipeline.rag_fallbacks": "count",
    "evaluation.evaluate_s": "s",
    "cli.import_s": "s",
    **{f"{name}_s": "s" for name in _COMMANDS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [0]  # span 0 is the root
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []
        self.span_method: dict[int, str] = {}  # classify span id -> method query kind

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            tracer._count(name, span_id, args, result)
            return result

        return wrapper

    def _count(self, name: str, span_id: int, args, result) -> None:
        if name == "retrieval.keyword":
            index, query = args[0], args[1]
            self.counts["postings_scored"] += sum(
                len(index.postings.get(term, ())) for term in retrieval.tokenize(query)
            )
        elif name == "pipeline.classify":
            self.span_method[span_id] = args[1].query_kind.value
            if result.fallback_flag:
                self.counts["rag_fallbacks"] += 1
        elif name == "pipeline.batch":
            self.counts["item_errors"] += len(result.errors)
        elif name == "providers.embed_cache_get":
            self.counts["embed_cache_misses" if result is None else "embed_cache_hits"] += 1

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__))
        else:
            wrapped = self._wrap(name, original)
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for name, places in _FUNCTIONS.items():
            for owner, attr in places:
                self._patch(owner, attr, name)
        self._patch(providers.EmbeddingCache, "get", "providers.embed_cache_get")
        for name, command in _COMMANDS.items():
            self._patch(command, "callback", name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[tuple[int, str, float]]:
        """(span id, name, self time in s): duration minus the direct children's."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        return [(sid, name, (end - start) - child_time[sid]) for sid, _, name, start, end in self.spans]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            for sid, parent, name, start, end in self.spans
        ]
        path.write_text(json.dumps({"spans": records, "counts": dict(self.counts)}) + "\n", encoding="utf-8")


def per_layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric; a layer that did not run in this workload reads 0.

    `extra` carries what is measured outside the spans: the wall time of each
    child command, the CLI import time, the index size and the overhead.
    """
    by_name: dict[str, list[float]] = defaultdict(list)
    by_method: dict[str, list[float]] = defaultdict(list)
    for sid, name, self_s in tracer.self_times():
        by_name[name].append(self_s)
        if name == "pipeline.classify":
            by_method[tracer.span_method[sid]].append(self_s)

    def total(*names: str) -> float:
        return sum(sum(by_name[n]) for n in names)

    def p50_ms(values: list[float]) -> float:
        return statistics.median(values) * 1e3 if values else 0.0

    values = {
        "taxonomy.load_s": total("taxonomy.load"),
        "taxonomy.render_s": total("taxonomy.render_basic", "taxonomy.render_hierarchical"),
        "providers.embed_ms": p50_ms(by_name["providers.embed"]),
        "providers.embed_calls": len(by_name["providers.embed"]),
        "providers.embed_cache_hits": tracer.counts["embed_cache_hits"],
        "providers.embed_cache_misses": tracer.counts["embed_cache_misses"],
        "providers.desc_cache_load_s": total("providers.desc_cache_load"),
        "providers.select_ms": p50_ms(by_name["providers.select"]),
        "retrieval.kw_build_s": total("retrieval.kw_build"),
        "retrieval.vec_build_s": total("retrieval.vec_build"),
        "retrieval.save_s": total("retrieval.save"),
        "retrieval.load_s": total("retrieval.load"),
        "retrieval.refs_load_s": total("retrieval.refs_load"),
        "retrieval.keyword_ms": p50_ms(by_name["retrieval.keyword"]),
        "retrieval.postings_scored": tracer.counts["postings_scored"],
        "retrieval.vector_ms": p50_ms(by_name["retrieval.vector"]),
        "retrieval.hybrid_ms": p50_ms(by_name["retrieval.hybrid"]),
        "retrieval.vote_ms": p50_ms(by_name["retrieval.vote"]),
        "pipeline.manifest_s": total("pipeline.manifest"),
        "pipeline.write_s": total("pipeline.write_jsonl", "pipeline.write_csv"),
        **{f"pipeline.classify_ms.{m}": p50_ms(by_method[m]) for m in CLASSIFY_METHODS},
        "pipeline.item_errors": tracer.counts["item_errors"],
        "pipeline.rag_fallbacks": tracer.counts["rag_fallbacks"],
        "evaluation.evaluate_s": total("evaluation.read", "evaluation.pair",
                                       "evaluation.report", "evaluation.render"),
        "trace.spans": len(tracer.spans),
    }
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
