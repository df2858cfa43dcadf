"""Command-line front end: taxonomy build, index build, describe, classify,
evaluate. Runs compose into a reproducible batch pipeline; offline mode
swaps every remote provider for a deterministic substitute."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import click

from . import evaluation, pipeline, providers, retrieval, taxonomy
from .errors import IconclassifyError, MalformedCodeError, MalformedLineError, MissingIndexError

# config file (JSON) supplies defaults; environment overrides it; flags win
_ENV_ENDPOINT = "ICONCLASSIFY_ENDPOINT"
_ENV_API_KEY = "ICONCLASSIFY_API_KEY"
_ENV_CHAT_MODEL = "ICONCLASSIFY_CHAT_MODEL"
_ENV_EMBED_MODEL = "ICONCLASSIFY_EMBED_MODEL"


class _Commands(click.Group):
    """The one error boundary: an IconclassifyError ends as `Error: ...`, not a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except IconclassifyError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON file with per-command default values.")
@click.pass_context
def main(ctx: click.Context, config_path: Optional[str]):
    """Classify early modern religious images into Iconclass codes."""
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                defaults = json.load(fh)
            if not isinstance(defaults, dict):
                raise ValueError("expected a JSON object")
        except ValueError as exc:
            raise click.BadParameter(f"{config_path}: {exc}", param_hint="'--config'") from exc
        ctx.default_map = defaults


def _check_offline(offline: bool, endpoint: Optional[str], api_key: Optional[str]) -> None:
    if offline and (endpoint or api_key):
        raise click.UsageError(
            "offline mode forbids network settings; unset --endpoint/--api-key "
            f"(or the {_ENV_ENDPOINT}/{_ENV_API_KEY} variables)"
        )


def _make_embedder(offline: bool, dim: int, endpoint: Optional[str],
                   embed_model: Optional[str], api_key: Optional[str]) -> providers.EmbeddingProvider:
    if offline:
        return providers.OfflineHashEmbedder(dim=dim)
    if not endpoint or not embed_model:
        raise click.UsageError("remote embedding needs --endpoint and --embed-model (or env)")
    return providers.RemoteEmbeddingProvider(endpoint, embed_model, api_key=api_key)


def _make_chat(purpose: str, endpoint: Optional[str], chat_model: Optional[str],
               api_key: Optional[str]) -> providers.ChatProvider:
    if not endpoint or not chat_model:
        raise click.UsageError(f"{purpose} needs --endpoint and --chat-model (or env)")
    return providers.RemoteChatProvider(endpoint, chat_model, api_key=api_key)


def _parse_prefix_filter(text: Optional[str]) -> Optional[tuple[str, ...]]:
    if text is None:
        return taxonomy.DEFAULT_PREFIX_FILTER
    cleaned = tuple(part.strip() for part in text.split(",") if part.strip())
    return cleaned or None


@main.group("taxonomy")
def taxonomy_group():
    """Taxonomy ingestion."""


@taxonomy_group.command("build")
@click.option("--taxonomy", "source", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Raw taxonomy: code<TAB>description lines or JSONL with code/txt.")
@click.option("--prefix-filter", default=None,
              help="Comma-separated top-level categories to keep (default: 1,7). 'all' keeps everything.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Output JSONL with basic and hierarchical renderings per entry.")
def cmd_taxonomy_build(source: str, prefix_filter: Optional[str], out_path: str):
    """Load, filter, and render the taxonomy into an indexable file."""
    keep = None if (prefix_filter or "").strip().lower() == "all" else _parse_prefix_filter(prefix_filter)
    tax = taxonomy.load_taxonomy(source, keep)
    with open(out_path, "w", encoding="utf-8") as fh:
        for entry in tax:
            record = {
                "code": entry.code.raw,
                "basic": taxonomy.render_basic_doc(entry),
                "hierarchical": taxonomy.render_hierarchical_doc(entry, tax),
            }
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    meta = {
        "entries": tax.stats.kept,
        "filtered": tax.stats.filtered,
        "lines": tax.stats.lines,
        "prefix_filter": list(keep) if keep else None,
    }
    Path(out_path + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    click.echo(f"{tax.stats.kept} entries written ({tax.stats.filtered} filtered out)")


def _load_rendered_taxonomy(path: str) -> dict[str, dict[str, str]]:
    """Read the output of `taxonomy build`: code -> {basic, hierarchical}."""
    docs: dict[str, dict[str, str]] = {}
    try:
        for line_no, obj in taxonomy.iter_jsonl(path):
            if not {"code", "basic", "hierarchical"} <= obj.keys():
                raise MalformedLineError(line_no, f"{path}: needs code, basic and hierarchical fields")
            docs[obj["code"]] = {"basic": obj["basic"], "hierarchical": obj["hierarchical"]}
    except MalformedLineError as exc:
        raise MissingIndexError(f"{exc}; not a rendered taxonomy file, run `taxonomy build` first") from exc
    if not docs:
        raise MissingIndexError(f"{path}: rendered taxonomy is empty")
    return docs


@main.group("index")
def index_group():
    """Search index construction."""


@index_group.command("build")
@click.option("--taxonomy", "rendered_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Rendered taxonomy JSONL from `taxonomy build`.")
@click.option("--database", type=click.Choice(["basic", "hierarchical"]), default="basic", show_default=True)
@click.option("--index-dir", required=True, type=click.Path(file_okay=False))
@click.option("--offline", is_flag=True, help="Use the deterministic hash embedder.")
@click.option("--dim", type=click.IntRange(min=providers.MIN_OFFLINE_DIM),
              default=providers.DEFAULT_OFFLINE_DIM, show_default=True,
              help="Offline embedding dimension.")
@click.option("--endpoint", envvar=_ENV_ENDPOINT, default=None)
@click.option("--embed-model", envvar=_ENV_EMBED_MODEL, default=None)
@click.option("--api-key", envvar=_ENV_API_KEY, default=None)
@click.option("--embed-cache", type=click.Path(dir_okay=False), default=None,
              help="JSONL embedding cache (recommended for remote runs).")
@click.option("--k1", type=float, default=retrieval.DEFAULT_K1, show_default=True)
@click.option("--b", type=float, default=retrieval.DEFAULT_B, show_default=True)
def cmd_index_build(rendered_path: str, database: str, index_dir: str, offline: bool,
                    dim: int, endpoint: Optional[str], embed_model: Optional[str],
                    api_key: Optional[str], embed_cache: Optional[str], k1: float, b: float):
    """Build keyword and vector indices over one taxonomy rendering."""
    _check_offline(offline, endpoint, api_key)
    docs = _load_rendered_taxonomy(rendered_path)
    kind = taxonomy.DatabaseKind(database)
    texts = [(code, fields[kind.value]) for code, fields in docs.items()]
    kw_index = retrieval.build_keyword_index(texts, k1=k1, b=b)
    embedder = _make_embedder(offline, dim, endpoint, embed_model, api_key)
    cache = providers.EmbeddingCache(embed_cache) if embed_cache else None
    vectors = providers.embed_many([t for _, t in texts], embedder, cache)
    vec_index = retrieval.build_vector_index(
        (code, vec) for (code, _), vec in zip(texts, vectors)
    )
    config = {
        "database": kind.value,
        "embedder": embedder.provider_id,
        "k1": k1,
        "b": b,
        "doc_count": len(texts),
    }
    retrieval.save_index(index_dir, kw_index, vec_index, config=config)
    click.echo(f"indexed {len(texts)} documents into {index_dir} ({kind.value})")


def _read_image(path: Optional[str], image_id: str) -> bytes:
    if not path:
        raise IconclassifyError(f"{image_id}: no image path in manifest for this mode")
    data = Path(path).read_bytes()
    if not data:
        raise IconclassifyError(f"{image_id}: image file is empty")
    return data


@main.command("describe")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["page", "illustration"]), default="page", show_default=True)
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False),
              help="Description cache (JSONL, append-only).")
@click.option("--offline", is_flag=True,
              help="No model calls: only cached or manifest-supplied descriptions are accepted.")
@click.option("--endpoint", envvar=_ENV_ENDPOINT, default=None)
@click.option("--chat-model", envvar=_ENV_CHAT_MODEL, default=None)
@click.option("--api-key", envvar=_ENV_API_KEY, default=None)
@click.option("--workers", type=int, default=4, show_default=True)
def cmd_describe(manifest_path: str, mode: str, cache_path: str, offline: bool,
                 endpoint: Optional[str], chat_model: Optional[str],
                 api_key: Optional[str], workers: int):
    """Generate (or ingest) image descriptions for one mode, resumably."""
    _check_offline(offline, endpoint, api_key)
    desc_mode = providers.DescriptionMode(mode)
    rows = pipeline.read_manifest(manifest_path)
    cache = providers.DescriptionCache(cache_path)

    cached = passed = generated = 0
    pending: list[pipeline.ManifestRow] = []
    for row in rows:
        if cache.get(row.image_id, desc_mode) is not None:
            cached += 1
        elif row.description:
            cache.put(providers.DescriptionRecord(
                image_id=row.image_id,
                mode=desc_mode,
                text=row.description,
                model_id="manifest",
                created_at=providers.now_iso(),
            ))
            passed += 1
        else:
            pending.append(row)

    if pending and offline:
        raise click.ClickException(
            f"{len(pending)} images have no cached or manifest-supplied description; "
            "descriptions require a real model. Re-run without --offline, or add a "
            "description column to the manifest."
        )
    if pending:
        chat = _make_chat("describe", endpoint, chat_model, api_key)
        image_field = "page_image_path" if desc_mode is providers.DescriptionMode.FULL_PAGE \
            else "illustration_image_path"

        def work(row: pipeline.ManifestRow) -> Optional[str]:
            try:
                image = _read_image(getattr(row, image_field), row.image_id)
                providers.describe_image(
                    providers.DescriptionRequest(row.image_id, image, desc_mode), chat, cache
                )
                return None
            except Exception as exc:
                return f"{row.image_id}: {type(exc).__name__}: {exc}"

        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            failures = [msg for msg in pool.map(work, pending) if msg]
        generated = len(pending) - len(failures)
        for msg in failures:
            click.echo(msg, err=True)
        if failures:
            click.echo(f"described {generated}, cached {cached}, ingested {passed}, "
                       f"failed {len(failures)}")
            sys.exit(1)
    click.echo(f"described {generated}, cached {cached}, ingested {passed}")


@main.command("classify")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", "method_name", required=True,
              type=click.Choice([k.value for k in pipeline.QueryKind]))
@click.option("--mode", type=click.Choice(["page", "illustration"]), default="page", show_default=True)
@click.option("--database", type=click.Choice(["basic", "hierarchical"]), default="basic", show_default=True)
@click.option("--alpha", type=float, default=retrieval.DEFAULT_ALPHA, show_default=True)
@click.option("--rag-k", type=click.IntRange(min=1), default=pipeline.DEFAULT_RAG_K, show_default=True)
@click.option("--pool", type=click.IntRange(min=1), default=retrieval.DEFAULT_POOL, show_default=True,
              help="Hybrid candidate pool size per method.")
@click.option("--vote-k", type=click.IntRange(min=1), default=retrieval.DEFAULT_VOTE_K, show_default=True,
              help="Neighbours consulted by the image method.")
@click.option("--taxonomy", "rendered_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Rendered taxonomy JSONL from `taxonomy build`.")
@click.option("--index-dir", type=click.Path(file_okay=False), default=None)
@click.option("--refs", "refs_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Reference image vectors JSONL (image method).")
@click.option("--cache", "cache_path", type=click.Path(dir_okay=False), default=None,
              help="Description cache from `describe`.")
@click.option("--embed-cache", type=click.Path(dir_okay=False), default=None)
@click.option("--offline", is_flag=True)
@click.option("--endpoint", envvar=_ENV_ENDPOINT, default=None)
@click.option("--chat-model", envvar=_ENV_CHAT_MODEL, default=None)
@click.option("--embed-model", envvar=_ENV_EMBED_MODEL, default=None)
@click.option("--api-key", envvar=_ENV_API_KEY, default=None)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--out", "out_prefix", required=True,
              help="Output prefix; writes <out>.jsonl, <out>.csv, <out>.meta.json.")
def cmd_classify(manifest_path: str, method_name: str, mode: str, database: str,
                 alpha: float, rag_k: int, pool: int, vote_k: int,
                 rendered_path: str, index_dir: Optional[str], refs_path: Optional[str],
                 cache_path: Optional[str], embed_cache: Optional[str], offline: bool,
                 endpoint: Optional[str], chat_model: Optional[str],
                 embed_model: Optional[str], api_key: Optional[str],
                 workers: int, out_prefix: str):
    """Classify every manifest row with one method; write predictions."""
    _check_offline(offline, endpoint, api_key)
    method = pipeline.MethodSpec(
        query_kind=pipeline.QueryKind(method_name),
        description_mode=providers.DescriptionMode(mode),
        database_kind=taxonomy.DatabaseKind(database),
        alpha=alpha,
        rag_k=rag_k,
    )
    rows = pipeline.read_manifest(manifest_path)
    rendered = _load_rendered_taxonomy(rendered_path)
    documents = {code: fields[method.database_kind.value] for code, fields in rendered.items()}

    ctx = pipeline.ClassifyContext(documents=documents, hybrid_pool=pool, vote_k=vote_k)
    needs_index = method.query_kind is not pipeline.QueryKind.IMAGE
    if needs_index:
        if not index_dir:
            raise MissingIndexError(f"--index-dir is required for method {method.label}")
        kw_index, vec_index, index_meta = retrieval.load_index(index_dir)
        ctx.keyword_index = kw_index
        ctx.vector_index = vec_index
        ctx.embedder = _make_embedder(offline, vec_index.dim, endpoint, embed_model, api_key)
        if embed_cache:
            ctx.embedding_cache = providers.EmbeddingCache(embed_cache)
        if method.query_kind in (pipeline.QueryKind.RAG_VECTOR, pipeline.QueryKind.RAG_HYBRID) \
                and not offline:
            ctx.chat = _make_chat("RAG selection", endpoint, chat_model, api_key)
        built = index_meta.get("config", {})
        for field, wanted in (("database", database), ("embedder", ctx.embedder.provider_id)):
            if built.get(field) != wanted:
                raise IconclassifyError(f"{index_dir} was built with {field} {built.get(field)!r}, "
                                        f"but this run uses {wanted!r}; rebuild the index or match it")
    else:
        if not refs_path:
            raise MissingIndexError("--refs is required for the image method")
        ctx.references = retrieval.ImageReferenceSet.from_jsonl(refs_path)
    if cache_path:
        ctx.description_cache = providers.DescriptionCache(cache_path)

    result = pipeline.classify_batch(rows, method, ctx, workers=max(1, workers))
    pipeline.write_predictions_jsonl(result.predictions, out_prefix + ".jsonl")
    pipeline.write_predictions_csv(result.predictions, out_prefix + ".csv")
    meta_out = {
        "method": method.to_dict(),
        "offline": offline,
        "hybrid_pool": pool,
        "vote_k": vote_k,
        "workers": workers,
        "predictions": len(result.predictions),
        "errors": [{"image_id": e.image_id, "error": e.error} for e in result.errors],
    }
    Path(out_prefix + ".meta.json").write_text(
        json.dumps(meta_out, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for err in result.errors:
        click.echo(f"{err.image_id}: {err.error}", err=True)
    click.echo(f"wrote {len(result.predictions)} predictions, {len(result.errors)} errors")


@main.command("evaluate")
@click.option("--predictions", "pred_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="CSV with image_id, predicted_code, ground_truth_code.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--label", default=None, help="Report label (default: predictions file stem).")
@click.option("--max-level", type=int, default=9, show_default=True)
@click.option("--max-k", type=int, default=4, show_default=True)
def cmd_evaluate(pred_path: str, out_dir: str, label: Optional[str], max_level: int, max_k: int):
    """Score predictions against ground truth; write report.json and report.txt."""
    rows = evaluation.read_predictions_csv(pred_path)
    if not rows:
        raise click.ClickException(f"{pred_path}: no prediction rows to evaluate")
    records = []
    pairs = []
    for row in rows:
        try:
            pred = taxonomy.parse_code(row.predicted)
            gt = taxonomy.parse_code(row.ground_truth)
        except MalformedCodeError as exc:
            raise click.ClickException(f"{row.image_id}: {exc}")
        records.append(evaluation.evaluate_pair(row.image_id, pred, gt, group=row.group))
        pairs.append((pred, gt))
    report_label = label or Path(pred_path).stem
    config = {"label": report_label, "max_level": max_level, "max_k": max_k}
    report = evaluation.build_report(
        report_label, records, pairs, max_level=max_level, max_k=max_k, config=config
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text(evaluation.render_report_text(report), encoding="utf-8")
    s = report["summary"]
    click.echo(
        f"{report_label}: n={report['count']} weighted={s['avg_weighted']:.5f} "
        f"precision={s['avg_precision']:.4f} recall={s['avg_recall']:.4f} f1={s['avg_f1']:.4f}"
    )


if __name__ == "__main__":
    main()
