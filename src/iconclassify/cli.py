"""Command-line front end: taxonomy build, index build, describe, classify,
evaluate. Runs compose into a reproducible batch pipeline; offline mode
swaps every remote provider for a deterministic substitute."""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

import click

# `pipeline`, `providers` and `retrieval` import numpy, so only the commands that use them import them
from . import evaluation, taxonomy
from .errors import IconclassifyError, MalformedCodeError, MalformedLineError, MissingIndexError
from .methods import (DEFAULT_ALPHA, DEFAULT_OFFLINE_DIM, DEFAULT_POOL, DEFAULT_RAG_K, DEFAULT_VOTE_K,
                      MIN_OFFLINE_DIM, DescriptionMode, QueryKind)
from .outputs import write_outputs

_DATABASES = [kind.value for kind in taxonomy.DatabaseKind]  # also the rendering fields of `taxonomy build`
_MODES = [mode.value for mode in DescriptionMode]


class _Commands(click.Group):
    """The one error boundary: an IconclassifyError or an OSError ends as `Error: ...`, not a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except IconclassifyError as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            raise click.ClickException(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)) from exc


@click.group(cls=_Commands)
def main():
    """Classify early modern religious images into Iconclass codes."""


def _provider_options(*models: str):
    """--endpoint, each of `models`, then --api-key; each also read from ICONCLASSIFY_<NAME>, and a flag wins."""
    def decorate(fn):
        for name in reversed(("endpoint", *models, "api-key")):
            envvar = "ICONCLASSIFY_" + name.upper().replace("-", "_")
            fn = click.option(f"--{name}", envvar=envvar, default=None)(fn)
        return fn
    return decorate


def _check_offline(offline: bool, endpoint: Optional[str], api_key: Optional[str]) -> None:
    if offline and (endpoint or api_key):
        raise click.UsageError(
            "offline mode forbids network settings; unset --endpoint/--api-key "
            "(or the ICONCLASSIFY_ENDPOINT/ICONCLASSIFY_API_KEY variables)"
        )


def _remote(purpose: str, flag: str, endpoint: Optional[str], model: Optional[str],
            api_key: Optional[str]) -> providers.RemoteProvider:
    from . import providers

    if not endpoint or not model:
        raise click.UsageError(f"{purpose} needs --endpoint and --{flag} (or env)")
    return providers.RemoteProvider(endpoint, model, api_key=api_key)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_prefix_filter(text: Optional[str]) -> Optional[tuple[str, ...]]:
    """--prefix-filter as the top-level categories to keep; None keeps every category."""
    if text is None:
        return taxonomy.DEFAULT_PREFIX_FILTER
    if text.strip().lower() == "all":
        return None
    cleaned = tuple(part.strip() for part in text.split(",") if part.strip())
    if not cleaned:
        raise click.BadParameter("name at least one top-level category, or 'all'",
                                 param_hint="'--prefix-filter'")
    for part in cleaned:
        if not (len(part) == 1 and "0" <= part <= "9"):  # a code's top level is its first digit
            raise click.BadParameter(f"{part!r} is not a top-level category, one digit 0-9",
                                     param_hint="'--prefix-filter'")
    return cleaned


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
    keep = _parse_prefix_filter(prefix_filter)
    tax = taxonomy.load_taxonomy(source, keep)

    def rendered(fh):
        for entry in tax:
            record = {kind.value: taxonomy.render_doc(entry, tax, kind) for kind in taxonomy.DatabaseKind}
            record["code"] = entry.code.raw
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")

    meta = {
        "entries": tax.stats.kept,
        "filtered": tax.stats.filtered,
        "lines": tax.stats.lines,
        "prefix_filter": list(keep) if keep else None,
    }
    write_outputs((out_path, rendered), (out_path + ".meta.json", _json_text(meta)))
    click.echo(f"{tax.stats.kept} entries written ({tax.stats.filtered} filtered out)")


def _load_rendered_taxonomy(path: str, kind: taxonomy.DatabaseKind, parse: bool) -> tuple[dict[str, str], str]:
    """Read the output of `taxonomy build` in one pass: code -> the `kind` rendering, and the sha256 of the bytes
    read. Each code must appear once, and every field must be a string. With `parse`, each code must also parse as
    itself; without it, the caller must check the digest against one recorded by a read that parsed."""
    docs: dict[str, str] = {}
    digest = hashlib.sha256()
    try:
        for line_no, obj in taxonomy.iter_jsonl(path, digest):
            if not all(isinstance(obj.get(name), str) for name in ("code", *_DATABASES)):
                fields = " and ".join(_DATABASES)
                raise MalformedLineError(line_no, f"{path}: needs code, {fields} fields, each a string")
            code = obj["code"]
            if parse:
                try:
                    parsed = taxonomy.parse_code(code)
                except MalformedCodeError as exc:
                    raise MalformedLineError(line_no, f"{path}: {exc}") from exc
                if parsed.raw != code:  # " 71" parses, but its hits would come back as "71"
                    raise MalformedLineError(line_no, f"{path}: {code!r}: whitespace around the code")
            if code in docs:
                raise MalformedLineError(line_no, f"{path}: duplicate code {code!r}")
            docs[code] = obj[kind.value]
    except MalformedLineError as exc:
        raise MissingIndexError(f"{exc}; not a rendered taxonomy file, run `taxonomy build` first") from exc
    if not docs:
        raise MissingIndexError(f"{path}: rendered taxonomy is empty")
    return docs, digest.hexdigest()


@main.group("index")
def index_group():
    """Search index construction."""


@index_group.command("build")
@click.option("--taxonomy", "rendered_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Rendered taxonomy JSONL from `taxonomy build`.")
@click.option("--database", type=click.Choice(_DATABASES), default=taxonomy.DatabaseKind.BASIC.value, show_default=True)
@click.option("--index-dir", required=True, type=click.Path(file_okay=False))
@click.option("--offline", is_flag=True, help="Use the deterministic hash embedder.")
@click.option("--dim", type=click.IntRange(min=MIN_OFFLINE_DIM), default=DEFAULT_OFFLINE_DIM, show_default=True,
              help="Offline embedding dimension.")
@_provider_options("embed-model")
@click.option("--embed-cache", type=click.Path(dir_okay=False), default=None,
              help="JSONL embedding cache (recommended for remote runs).")
def cmd_index_build(rendered_path: str, database: str, index_dir: str, offline: bool,
                    dim: int, endpoint: Optional[str], embed_model: Optional[str],
                    api_key: Optional[str], embed_cache: Optional[str]):
    """Build keyword and vector indices over one taxonomy rendering."""
    from . import providers, retrieval

    _check_offline(offline, endpoint, api_key)
    embedder = providers.OfflineHashEmbedder(dim=dim) if offline else \
        _remote("remote embedding", "embed-model", endpoint, embed_model, api_key)
    kind = taxonomy.DatabaseKind(database)
    docs, digest = _load_rendered_taxonomy(rendered_path, kind, parse=True)
    kw_index = retrieval.build_keyword_index(docs.items())
    cache = providers.EmbeddingCache(embed_cache) if embed_cache else None
    ids = list(docs)
    vec_index = retrieval.VectorIndex(ids, providers.embed_many(list(docs.values()), embedder, cache, names=ids))
    config = {"database": kind.value, "embedder": embedder.provider_id, "taxonomy_sha256": digest}
    retrieval.save_index(index_dir, kw_index, vec_index, config=config)
    click.echo(f"indexed {len(docs)} documents into {index_dir} ({kind.value})")


def _read_image(path: Optional[str], image_id: str) -> bytes:
    if not path:
        raise IconclassifyError(f"{image_id}: no image path in manifest for this mode")
    data = Path(path).read_bytes()
    if not data:
        raise IconclassifyError(f"{image_id}: image file is empty")
    return data


@main.command("describe")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(_MODES), default=DescriptionMode.FULL_PAGE.value, show_default=True)
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False),
              help="Description cache (JSONL, append-only).")
@click.option("--offline", is_flag=True,
              help="No model calls: only cached or manifest-supplied descriptions are accepted.")
@_provider_options("chat-model")
@click.option("--workers", type=click.IntRange(min=1), default=4, show_default=True)
def cmd_describe(manifest_path: str, mode: str, cache_path: str, offline: bool,
                 endpoint: Optional[str], chat_model: Optional[str],
                 api_key: Optional[str], workers: int):
    """Generate (or ingest) image descriptions for one mode, resumably."""
    from . import pipeline, providers

    _check_offline(offline, endpoint, api_key)
    desc_mode = DescriptionMode(mode)
    rows = pipeline.read_manifest(manifest_path)
    cache = providers.DescriptionCache(cache_path)

    cached = passed = 0
    others: Counter[str] = Counter()  # cached records that another chat model wrote
    pending: list[pipeline.ManifestRow] = []
    for row in rows:
        hit = cache.get(row.image_id, desc_mode)
        if hit is not None:
            cached += 1
            if chat_model and hit.model_id not in ("", chat_model, "manifest"):  # "" names no model
                others[hit.model_id] += 1
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
    described, failures = [], []
    if pending:
        chat = _remote("describe", "chat-model", endpoint, chat_model, api_key)
        image_field = "page_image_path" if desc_mode is DescriptionMode.FULL_PAGE \
            else "illustration_image_path"

        def describe(row: pipeline.ManifestRow) -> providers.DescriptionRecord:
            image = _read_image(getattr(row, image_field), row.image_id)
            record = providers.describe_image(row.image_id, image, desc_mode, chat)
            cache.put(record)
            return record

        described, failures = pipeline.run_rows(describe, pending, workers)
        for err in failures:
            click.echo(f"{err.image_id}: {err.error}", err=True)
    by_model = ", ".join(f"{n} by {model}" for model, n in sorted(others.items()))
    cached_text = f"cached {cached} ({by_model})" if by_model else f"cached {cached}"
    summary = f"described {len(described)}, {cached_text}, ingested {passed}"
    if failures:
        click.echo(f"{summary}, failed {len(failures)}")
        sys.exit(1)
    click.echo(summary)


@main.command("classify")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", "method_name", required=True,
              type=click.Choice([k.value for k in QueryKind]))
@click.option("--mode", type=click.Choice(_MODES), default=DescriptionMode.FULL_PAGE.value, show_default=True)
@click.option("--database", type=click.Choice(_DATABASES), default=taxonomy.DatabaseKind.BASIC.value, show_default=True)
@click.option("--alpha", type=click.FloatRange(0.0, 1.0), default=DEFAULT_ALPHA, show_default=True)
@click.option("--rag-k", type=click.IntRange(min=1), default=DEFAULT_RAG_K, show_default=True)
@click.option("--pool", type=click.IntRange(min=1), default=DEFAULT_POOL, show_default=True,
              help="Hybrid candidate pool size per method.")
@click.option("--vote-k", type=click.IntRange(min=1), default=DEFAULT_VOTE_K, show_default=True,
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
@_provider_options("chat-model", "embed-model")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
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
    from . import pipeline, providers, retrieval

    _check_offline(offline, endpoint, api_key)
    method = pipeline.MethodSpec(
        query_kind=QueryKind(method_name),
        description_mode=DescriptionMode(mode),
        database_kind=taxonomy.DatabaseKind(database),
        alpha=alpha,
        rag_k=rag_k,
    )
    ctx = pipeline.ClassifyContext(hybrid_pool=pool, vote_k=vote_k)
    rag = method.query_kind in (QueryKind.RAG_VECTOR, QueryKind.RAG_HYBRID)
    # every text method but keyword embeds its query: a missing remote flag is a usage error before any file is
    # read, as in `index build`; only the offline embedder waits for the index, whose dim it takes
    embeds = method.query_kind not in (QueryKind.KEYWORD, QueryKind.IMAGE)
    if embeds and not offline:
        ctx.embedder = _remote("remote embedding", "embed-model", endpoint, embed_model, api_key)
    if rag and not offline:
        ctx.chat = _remote("RAG selection", "chat-model", endpoint, chat_model, api_key)
    rows = pipeline.read_manifest(manifest_path)
    # RAG selection reads candidate texts and the image method's votes are checked against the codes; the other
    # methods' hits come from an index whose recorded digest, checked below, proves it was built from this file.
    # That digest is of bytes `index build` parsed, so the RAG methods parse no code; the image method has no index
    digest = None
    if rag or method.query_kind is QueryKind.IMAGE:
        ctx.documents, digest = _load_rendered_taxonomy(rendered_path, method.database_kind, parse=not rag)
    if method.query_kind is not QueryKind.IMAGE:
        if not index_dir:
            raise MissingIndexError(f"--index-dir is required for method {method.label}")
        kw_index, vec_index, index_meta = retrieval.load_index(index_dir)
        ctx.keyword_index = kw_index
        ctx.vector_index = vec_index
        wanted_config = {"database": database}
        if embeds:
            if offline:
                ctx.embedder = providers.OfflineHashEmbedder(dim=vec_index.dim)
            wanted_config["embedder"] = ctx.embedder.provider_id
            if embed_cache:
                ctx.embedding_cache = providers.EmbeddingCache(embed_cache)
        built = index_meta.get("config", {})
        for field, wanted in wanted_config.items():
            if built.get(field) != wanted:
                raise IconclassifyError(f"{index_dir} was built with {field} {built.get(field)!r}, "
                                        f"but this run uses {wanted!r}; rebuild the index or match it")
        # the index's ids and texts come from one rendered file: another one would score codes by other texts
        if built.get("taxonomy_sha256") != (digest or hashlib.sha256(Path(rendered_path).read_bytes()).hexdigest()):
            raise IconclassifyError(f"{index_dir} was built from another taxonomy file than {rendered_path}; "
                                    "rebuild the index from it, or pass the file it was built from")
    else:
        if not refs_path:
            raise MissingIndexError("--refs is required for the image method")
        ctx.references = retrieval.ImageReferenceSet.from_jsonl(refs_path)
    if cache_path:
        ctx.description_cache = providers.DescriptionCache(cache_path)

    result = pipeline.classify_batch(rows, method, ctx, workers=workers)
    meta_out = {
        "method": method.to_dict(),
        "offline": offline,
        "hybrid_pool": pool,
        "vote_k": vote_k,
        "workers": workers,
        "predictions": len(result.predictions),
        "errors": [{"image_id": e.image_id, "error": e.error} for e in result.errors],
    }
    write_outputs(
        (out_prefix + ".jsonl", lambda fh: pipeline.write_predictions_jsonl(result.predictions, fh)),
        (out_prefix + ".csv", lambda fh: pipeline.write_predictions_csv(result.predictions, fh)),
        (out_prefix + ".meta.json", _json_text(meta_out)),
    )
    for err in result.errors:
        click.echo(f"{err.image_id}: {err.error}", err=True)
    click.echo(f"wrote {len(result.predictions)} predictions, {len(result.errors)} errors")


@main.command("evaluate")
@click.option("--predictions", "pred_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="CSV with image_id, predicted_code, ground_truth_code.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--label", default=None, help="Report label (default: predictions file stem).")
@click.option("--max-level", type=click.IntRange(min=1), default=9, show_default=True)
@click.option("--max-k", type=click.IntRange(min=0), default=4, show_default=True)
def cmd_evaluate(pred_path: str, out_dir: str, label: Optional[str], max_level: int, max_k: int):
    """Score predictions against ground truth; write report.json and report.txt."""
    rows = evaluation.read_predictions_csv(pred_path)
    if not rows:
        raise click.ClickException(f"{pred_path}: no prediction rows to evaluate")
    report = evaluation.build_report(label or Path(pred_path).stem, rows, max_level=max_level, max_k=max_k)
    out = Path(out_dir)
    write_outputs((out / "report.txt", evaluation.render_report_text(report)),
                  (out / "report.json", _json_text(report)))
    s = report["summary"]
    click.echo(
        f"{report['label']}: n={report['count']} weighted={s['avg_weighted']:.5f} "
        f"precision={s['avg_precision']:.4f} recall={s['avg_recall']:.4f} f1={s['avg_f1']:.4f}"
    )


if __name__ == "__main__":
    main()
