import doctest
import hashlib
import json
import math
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import requests
from click.testing import CliRunner

from iconclassify import providers, retrieval
from iconclassify.cli import main
from iconclassify.errors import ZeroVectorError

from conftest import FIXTURES, npy_claiming

HIER_71B32 = (
    "Bible; Old Testament; Genesis from the descendants of Cain and Seth to "
    "Abraham; story of Noah; the building of the ark, and the embarkation "
    "(Genesis 7:5-9)"
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Rendered taxonomy plus offline indices, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli-workspace")
    runner = CliRunner()
    rendered = root / "rendered.jsonl"
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--out", str(rendered),
    ])
    assert result.exit_code == 0, result.output
    for database in ("basic", "hierarchical"):
        result = runner.invoke(main, [
            "index", "build",
            "--taxonomy", str(rendered),
            "--database", database,
            "--index-dir", str(root / f"index-{database}"),
            "--offline", "--dim", "64",
        ])
        assert result.exit_code == 0, result.output
    return root


# ---------------------------------------------------------------- taxonomy build

def test_taxonomy_build_counts_and_renderings(runner, tmp_path):
    out = tmp_path / "rendered.jsonl"
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "50 entries written (2 filtered out)" in result.output

    records = {json.loads(line)["code"]: json.loads(line) for line in out.read_text().splitlines()}
    assert len(records) == 50
    assert records["71B32"]["basic"] == (
        "the building of the ark, and the embarkation (Genesis 7:5-9)"
    )
    assert records["71B32"]["hierarchical"] == HIER_71B32

    meta = json.loads((tmp_path / "rendered.jsonl.meta.json").read_text())
    assert meta == {"entries": 50, "filtered": 2, "lines": 52, "prefix_filter": ["1", "7"]}


def test_taxonomy_build_prefix_all(runner, tmp_path):
    source = tmp_path / "complete.tsv"
    source.write_text(
        "2\tnature\n25\tearth, world as celestial body\n25F\tanimals\n"
        "7\tBible\n73\tNew Testament\n"
    )
    out = tmp_path / "all.jsonl"
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(source),
        "--prefix-filter", "all",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "5 entries written (0 filtered out)" in result.output
    meta = json.loads((tmp_path / "all.jsonl.meta.json").read_text())
    assert meta["prefix_filter"] is None


def test_taxonomy_build_reports_orphan_branches(runner, tmp_path):
    # keeping everything exposes entries whose ancestors were never supplied
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--prefix-filter", "all",
        "--out", str(tmp_path / "all.jsonl"),
    ])
    assert result.exit_code == 1
    assert "missing ancestor" in result.output
    assert not (tmp_path / "all.jsonl").exists()
    assert not (tmp_path / "all.jsonl.meta.json").exists()

    earlier = tmp_path / "earlier.jsonl"
    earlier.write_bytes(b'{"code": "7"}\n')
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--prefix-filter", "all",
        "--out", str(earlier),
    ])
    assert result.exit_code == 1
    assert earlier.read_bytes() == b'{"code": "7"}\n'


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_taxonomy_build_rejects_an_empty_prefix_filter(runner, tmp_path, value):
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--prefix-filter", value,
        "--out", str(tmp_path / "o.jsonl"),
    ])
    assert result.exit_code == 2
    assert "--prefix-filter" in result.output
    assert not (tmp_path / "o.jsonl").exists()


def test_taxonomy_build_single_prefix(runner, tmp_path):
    expected = sum(
        1 for line in (FIXTURES / "taxonomy.tsv").read_text().splitlines()
        if line.startswith("7")
    )
    out = tmp_path / "seven.jsonl"
    result = runner.invoke(main, [
        "taxonomy", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--prefix-filter", "7",
        "--out", str(out),
    ])
    assert result.exit_code == 0
    assert len(out.read_text().splitlines()) == expected


def test_taxonomy_build_rejects_malformed_source(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("71B32\tthe ark\n?oops\tnot a code\n")
    result = runner.invoke(main, [
        "taxonomy", "build", "--taxonomy", str(bad), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_taxonomy_build_rejects_duplicates(runner, tmp_path):
    bad = tmp_path / "dup.tsv"
    bad.write_text("71B32\tthe ark\n71B32\tagain\n")
    result = runner.invoke(main, [
        "taxonomy", "build", "--taxonomy", str(bad), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert result.exit_code != 0


def test_taxonomy_build_skips_a_byte_order_mark(runner, tmp_path):
    text = (FIXTURES / "taxonomy.tsv").read_bytes()
    (tmp_path / "bom.tsv").write_bytes(b"\xef\xbb\xbf" + text)
    (tmp_path / "plain.tsv").write_bytes(text)
    for name in ("bom", "plain"):
        result = runner.invoke(main, [
            "taxonomy", "build", "--taxonomy", str(tmp_path / f"{name}.tsv"), "--out", str(tmp_path / f"{name}.jsonl"),
        ])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "bom.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


def test_rendering_and_mode_choices_come_from_the_enums():
    from iconclassify.providers import DescriptionMode
    from iconclassify.taxonomy import DatabaseKind

    for command in (main.commands["index"].commands["build"], main.commands["classify"]):
        [database] = [p for p in command.params if p.name == "database"]
        assert list(database.type.choices) == [kind.value for kind in DatabaseKind]
    for command in (main.commands["describe"], main.commands["classify"]):
        [mode] = [p for p in command.params if p.name == "mode"]
        assert list(mode.type.choices) == [m.value for m in DescriptionMode]


# ---------------------------------------------------------------- index build

def test_index_build_is_deterministic(runner, tmp_path, workspace):
    for name in ("a", "b"):
        result = runner.invoke(main, [
            "index", "build",
            "--taxonomy", str(workspace / "rendered.jsonl"),
            "--index-dir", str(tmp_path / name),
            "--offline", "--dim", "32",
        ])
        assert result.exit_code == 0, result.output
        assert "indexed 50 documents" in result.output
    files = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "b").iterdir()) and len(files) == 8
    for name in set(files) - {"meta.json"}:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    meta_a = json.loads((tmp_path / "a" / "meta.json").read_text())
    meta_b = json.loads((tmp_path / "b" / "meta.json").read_text())
    assert meta_a.pop("created_at") != ""
    meta_b.pop("created_at")
    assert meta_a == meta_b
    assert meta_a["config"]["embedder"] == "offline-hash-32"
    assert meta_a["config"]["database"] == "basic"
    rendered = (workspace / "rendered.jsonl").read_bytes()
    assert meta_a["config"]["taxonomy_sha256"] == hashlib.sha256(rendered).hexdigest()
    # config echoes carry no filesystem paths
    assert str(tmp_path) not in json.dumps(meta_a)


def test_index_build_records_the_digest_of_every_byte_it_read(runner, tmp_path, workspace):
    # a byte-order mark, a blank line and no final newline: each is read past, and each is in the digest
    rendered = tmp_path / "rendered.jsonl"
    rendered.write_bytes(b"\xef\xbb\xbf" + (workspace / "rendered.jsonl").read_bytes().replace(b"\n", b"\n\n", 1)[:-1])
    result = runner.invoke(main, ["index", "build", "--taxonomy", str(rendered), "--index-dir", str(tmp_path / "idx"),
                                  "--offline", "--dim", "64"])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
    assert meta["config"]["taxonomy_sha256"] == hashlib.sha256(rendered.read_bytes()).hexdigest()
    args = _classify_args(workspace, tmp_path / "x", method="rag-hybrid")
    args[args.index("--taxonomy") + 1], args[args.index("--index-dir") + 1] = str(rendered), str(tmp_path / "idx")
    result = runner.invoke(main, args)  # the RAG read hashes the same bytes
    assert result.exit_code == 0, result.output
    assert "wrote 12 predictions, 0 errors" in result.output


def test_index_build_names_the_doc_whose_cached_vector_has_another_dim(runner, tmp_path, workspace):
    # the cache serves offline-hash-16 vectors of two dims; the docs it does not hold are embedded at 16
    records = [json.loads(line) for line in (workspace / "rendered.jsonl").read_text().splitlines()]
    cache = providers.EmbeddingCache(tmp_path / "emb.jsonl")
    cache.put("offline-hash-16", records[0]["basic"], providers.offline_embed(records[0]["basic"], 16))
    cache.put("offline-hash-16", records[3]["basic"], providers.offline_embed(records[3]["basic"], 17))
    result = runner.invoke(main, ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"),
                                  "--index-dir", str(tmp_path / "idx"), "--offline", "--dim", "16",
                                  "--embed-cache", str(tmp_path / "emb.jsonl")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output == f"Error: {records[3]['code']!r}: dim 17 != index dim 16\n"
    assert not (tmp_path / "idx").exists()


@pytest.mark.parametrize("command", ["index build", "classify"])
def test_a_cached_vector_with_no_direction_stops_the_load_naming_the_cache(runner, tmp_path, workspace, command):
    # served, the zero vector would fail entry 11 as if its text were at fault, or the row as a zero query, every rerun
    if command == "index build":
        text = next(r["basic"] for r in map(json.loads, (workspace / "rendered.jsonl").read_text().splitlines())
                    if r["code"] == "11")
        args = ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"), "--index-dir", str(tmp_path / "idx"),
                "--offline", "--dim", "64"]
    else:
        text = (FIXTURES / "manifest.csv").read_text().splitlines()[1].split('"')[1]
        args = _classify_args(workspace, tmp_path / "x", method="rag-hybrid")
    cache = tmp_path / "emb.jsonl"
    cache.write_text(json.dumps({"provider": "offline-hash-64", "hash": hashlib.sha256(text.encode()).hexdigest(),
                                 "vector": [0.0] * 64}) + "\n")
    result = runner.invoke(main, [*args, "--embed-cache", str(cache)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output == (f"Error: line 1: {cache}: bad cache record: "
                             "TypeError('a zero or non-finite vector has no direction')\n")
    assert not (tmp_path / "idx").exists() and not (tmp_path / "x.jsonl").exists()


def test_index_build_quotes_the_text_it_cannot_embed(runner, tmp_path):
    # "Ox" passes taxonomy build, but has no 3-gram to embed: the error must let one find it among 12.6k entries
    (tmp_path / "t.tsv").write_text("7\tBible\n71\tOx\n73\tNew Testament\n")
    result = runner.invoke(main, ["taxonomy", "build", "--taxonomy", str(tmp_path / "t.tsv"),
                                  "--out", str(tmp_path / "r.jsonl")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["index", "build", "--taxonomy", str(tmp_path / "r.jsonl"),
                                  "--index-dir", str(tmp_path / "idx"), "--offline"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output == "Error: 'Ox': need at least 3 characters to embed\n"
    assert not (tmp_path / "idx").exists()


def test_index_build_rejects_raw_taxonomy(runner, tmp_path):
    result = runner.invoke(main, [
        "index", "build",
        "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
        "--index-dir", str(tmp_path / "idx"),
        "--offline",
    ])
    assert result.exit_code != 0
    assert "taxonomy build" in result.output


def test_index_build_offline_forbids_endpoint(runner, tmp_path, workspace):
    result = runner.invoke(main, [
        "index", "build",
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--index-dir", str(tmp_path / "idx"),
        "--offline", "--endpoint", "http://h",
    ])
    assert result.exit_code == 2
    assert "offline mode forbids" in result.output


def test_index_build_env_endpoint_also_forbidden(runner, tmp_path, workspace):
    result = runner.invoke(
        main,
        [
            "index", "build",
            "--taxonomy", str(workspace / "rendered.jsonl"),
            "--index-dir", str(tmp_path / "idx"),
            "--offline",
        ],
        env={"ICONCLASSIFY_ENDPOINT": "http://h"},
    )
    assert result.exit_code == 2


def test_index_build_remote_needs_endpoint(runner, tmp_path, workspace):
    result = runner.invoke(main, [
        "index", "build",
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--index-dir", str(tmp_path / "idx"),
    ])
    assert result.exit_code == 2
    assert "remote embedding needs" in result.output


# ---------------------------------------------------------------- describe

def test_describe_ingests_then_hits_cache(runner, tmp_path):
    cache = tmp_path / "desc.jsonl"
    args = [
        "describe",
        "--manifest", str(FIXTURES / "manifest.csv"),
        "--cache", str(cache),
        "--offline",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "described 0, cached 0, ingested 12" in result.output
    assert len(cache.read_text().splitlines()) == 12

    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "described 0, cached 12, ingested 0" in result.output
    assert len(cache.read_text().splitlines()) == 12  # no duplicate records


def test_describe_resumes_after_a_torn_cache_line(runner, tmp_path):
    cache = tmp_path / "desc.jsonl"
    args = ["describe", "--manifest", str(FIXTURES / "manifest.csv"), "--cache", str(cache), "--offline"]
    assert runner.invoke(main, args).exit_code == 0
    cache.write_bytes(cache.read_bytes()[:-20])  # the last append was cut short

    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "cached 11, ingested 1" in result.output
    assert len(cache.read_text().splitlines()) == 12
    assert all(json.loads(line) for line in cache.read_text().splitlines())

    cache.write_text("{not json\n" + cache.read_text())
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "line 1:" in result.output and "Traceback" not in result.output


def test_describe_modes_are_cached_separately(runner, tmp_path):
    cache = tmp_path / "desc.jsonl"
    for mode in ("page", "illustration"):
        result = runner.invoke(main, [
            "describe",
            "--manifest", str(FIXTURES / "manifest.csv"),
            "--mode", mode,
            "--cache", str(cache),
            "--offline",
        ])
        assert result.exit_code == 0
        assert "ingested 12" in result.output
    assert len(cache.read_text().splitlines()) == 24


def test_describe_offline_without_descriptions_explains(runner, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id\nimgX\nimgY\n")
    result = runner.invoke(main, [
        "describe", "--manifest", str(manifest),
        "--cache", str(tmp_path / "c.jsonl"), "--offline",
    ])
    assert result.exit_code != 0
    assert "descriptions require a real model" in result.output
    assert "Re-run without --offline" in result.output


def test_describe_ingests_a_manifest_that_begins_with_a_byte_order_mark(runner, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"\xef\xbb\xbfimage_id,description\nimgX,the ark\n")  # a spreadsheet's "CSV UTF-8"
    cache = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["describe", "--manifest", str(manifest), "--cache", str(cache), "--offline"])
    assert result.exit_code == 0, result.output
    assert "ingested 1" in result.output
    assert json.loads(cache.read_text())["image_id"] == "imgX"


def test_describe_ingests_a_jsonl_manifest_that_begins_with_a_byte_order_mark(runner, tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(b'\xef\xbb\xbf{"image_id": "imgX", "description": "the ark"}\n')
    cache = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["describe", "--manifest", str(manifest), "--cache", str(cache), "--offline"])
    assert result.exit_code == 0, result.output
    assert "ingested 1" in result.output
    assert json.loads(cache.read_text())["image_id"] == "imgX"


def test_describe_rejects_a_manifest_quote_that_is_never_closed(runner, tmp_path):
    # read leniently, the open quote would swallow rows b and c into a's description
    manifest = tmp_path / "m.csv"
    manifest.write_text('image_id,description\na,"the ark\nb,the flood\nc,the tower\n')
    cache = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["describe", "--manifest", str(manifest), "--cache", str(cache), "--offline"])
    assert result.exit_code == 1
    assert result.output == f"Error: line 4: {manifest}: unexpected end of data\n"
    assert not cache.exists()


def test_describe_rejects_workers_below_one(runner, tmp_path):
    for value in ("0", "-3"):
        result = runner.invoke(main, [
            "describe", "--manifest", str(FIXTURES / "manifest.csv"),
            "--cache", str(tmp_path / "c.jsonl"), "--offline", "--workers", value,
        ])
        assert result.exit_code == 2
        assert "Invalid value" in result.output
    assert not (tmp_path / "c.jsonl").exists()


_NO_REMOTE_ENV = {f"ICONCLASSIFY_{name}": None for name in ("ENDPOINT", "CHAT_MODEL", "EMBED_MODEL", "API_KEY")}


@pytest.mark.parametrize("command, message", [
    ("index-build", "remote embedding needs --endpoint and --embed-model (or env)"),
    ("describe", "describe needs --endpoint and --chat-model (or env)"),
    ("classify-rag", "RAG selection needs --endpoint and --chat-model (or env)"),
], ids=["index-build", "describe", "classify-rag"])
def test_a_remote_run_without_its_model_names_the_options_it_needs(runner, tmp_path, workspace, command, message):
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id\nimgX\n")
    args = {
        "index-build": ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"),
                        "--index-dir", str(tmp_path / "out")],
        "describe": ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "out")],
        # the embedder is made first, so the run names the chat model it lacks
        "classify-rag": _classify_args(workspace, tmp_path / "out", method="rag-vector",
                                       extra=("--endpoint", "http://h", "--embed-model", "embed")),
    }[command]
    result = runner.invoke(main, [arg for arg in args if arg != "--offline"], env=_NO_REMOTE_ENV)
    assert result.exit_code == 2
    assert result.output.endswith(f"\nError: {message}\n")
    assert not list(tmp_path.glob("out*"))


def test_index_build_checks_its_provider_flags_before_it_reads_the_taxonomy(runner, tmp_path):
    # the embedder is made first, so a run without --embed-model names it, not the file it would have read
    (tmp_path / "r.jsonl").write_text("not json\n")
    result = runner.invoke(main, ["index", "build", "--taxonomy", str(tmp_path / "r.jsonl"),
                                  "--index-dir", str(tmp_path / "idx")], env=_NO_REMOTE_ENV)
    assert result.exit_code == 2
    assert result.output.endswith("\nError: remote embedding needs --endpoint and --embed-model (or env)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


@pytest.mark.parametrize("method", ["vector", "hybrid", "rag-hybrid"])
def test_classify_checks_its_provider_flags_before_it_reads_the_index(runner, tmp_path, method):
    # the remote embedder is made first, so a run without --embed-model names it, not the index it would have read
    (tmp_path / "r.jsonl").write_text("not json\n")
    result = runner.invoke(main, ["classify", "--manifest", str(FIXTURES / "manifest.csv"), "--method", method,
                                  "--taxonomy", str(tmp_path / "r.jsonl"), "--index-dir", str(tmp_path / "idx"),
                                  "--out", str(tmp_path / "out")], env=_NO_REMOTE_ENV)
    assert result.exit_code == 2
    assert result.output.endswith("\nError: remote embedding needs --endpoint and --embed-model (or env)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


def _describe_remote(runner, tmp_path, monkeypatch, reply):
    """`describe` of one image, imgX, against a chat endpoint that answers `reply`."""
    image = tmp_path / "page.png"
    image.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 8)
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"image_id,page_image_path\nimgX,{image.name}\n")

    body = {"choices": [{"message": {"content": reply}}]}

    class FakeResponse:
        status_code = 200

        def json(self):
            return body

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
    return runner.invoke(main, [
        "describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
        "--endpoint", "http://h", "--chat-model", "vision",
    ])


def test_describe_remote_generates(runner, tmp_path, monkeypatch):
    result = _describe_remote(runner, tmp_path, monkeypatch, "a woodcut of the flood")
    cache = tmp_path / "c.jsonl"
    assert result.exit_code == 0, result.output
    assert "described 1, cached 0, ingested 0" in result.output
    lines = cache.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # the generated record is written once
    record = json.loads(lines[0])
    assert record["text"] == "a woodcut of the flood"
    assert record["model_id"] == "vision"
    served = providers.DescriptionCache(cache).get("imgX", providers.DescriptionMode.FULL_PAGE)
    assert (served.image_id, served.text, served.model_id) == ("imgX", "a woodcut of the flood", "vision")


def test_a_second_remote_describe_serves_the_cache_and_posts_nothing(runner, tmp_path, monkeypatch):
    first = _describe_remote(runner, tmp_path, monkeypatch, "a woodcut of the flood")
    assert first.exit_code == 0, first.output
    cache = tmp_path / "c.jsonl"
    written = cache.read_bytes()

    def no_post(*args, **kwargs):
        raise AssertionError("describe posted for a cached image")

    monkeypatch.setattr(requests, "post", no_post)
    result = runner.invoke(main, [
        "describe", "--manifest", str(tmp_path / "m.csv"), "--cache", str(cache),
        "--endpoint", "http://h", "--chat-model", "vision",
    ])
    assert result.exit_code == 0, result.output
    assert result.output == "described 0, cached 1, ingested 0\n"
    assert cache.read_bytes() == written


def test_describe_refuses_a_reply_with_a_lone_surrogate(runner, tmp_path, monkeypatch):
    # no UTF encodes the lone half of a surrogate pair, so the cache could not hold the reply
    result = _describe_remote(runner, tmp_path, monkeypatch, "Noah \ud800 builds the ark")
    assert result.exit_code == 1
    assert "imgX: EmptyResponseError: imgX: the description holds a lone surrogate\n" in result.output
    assert "described 0, cached 0, ingested 0, failed 1" in result.output
    assert not (tmp_path / "c.jsonl").exists()


def test_describe_names_the_other_models_whose_records_it_served(runner, tmp_path):
    writers = {"a": "llava", "b": "gpt-4o", "c": "llava", "d": "manifest", "e": "other-model"}
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id\n" + "".join(f"{image_id}\n" for image_id in writers))
    cache = tmp_path / "c.jsonl"
    cache.write_text("".join(
        json.dumps({"image_id": image_id, "mode": "page", "text": "the ark", "model_id": model}) + "\n"
        for image_id, model in writers.items()
    ))
    args = ["describe", "--manifest", str(manifest), "--cache", str(cache)]
    result = runner.invoke(main, [*args, "--endpoint", "http://h", "--chat-model", "other-model"])
    assert result.exit_code == 0, result.output
    assert result.output == "described 0, cached 5 (1 by gpt-4o, 2 by llava), ingested 0\n"
    result = runner.invoke(main, [*args, "--offline"], env={"ICONCLASSIFY_CHAT_MODEL": None})
    assert result.output == "described 0, cached 5, ingested 0\n"  # no chat model, no run's own model to compare


def test_describe_remote_reports_missing_images(runner, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id\nimgX\n")
    result = runner.invoke(main, [
        "describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
        "--endpoint", "http://h", "--chat-model", "vision",
    ])
    assert result.exit_code == 1
    assert "failed 1" in result.output
    assert "no image path" in result.output


def test_describe_reports_an_empty_image_file_and_calls_no_model(runner, tmp_path, monkeypatch):
    (tmp_path / "page.png").write_bytes(b"")
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id,page_image_path\nimgX,page.png\n")

    def no_call(*args, **kwargs):
        raise AssertionError("describe called the model for an empty image")

    monkeypatch.setattr(requests, "post", no_call)
    cache = tmp_path / "c.jsonl"
    result = runner.invoke(main, [
        "describe", "--manifest", str(manifest), "--cache", str(cache),
        "--endpoint", "http://h", "--chat-model", "vision",
    ])
    assert result.exit_code == 1
    assert "imgX: IconclassifyError: imgX: image file is empty" in result.output
    assert not cache.exists()


# ---------------------------------------------------------------- classify

def _classify_args(workspace, out_prefix, method="keyword", database="basic", extra=()):
    return [
        "classify",
        "--manifest", str(FIXTURES / "manifest.csv"),
        "--method", method,
        "--database", database,
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--index-dir", str(workspace / f"index-{database}"),
        "--offline",
        "--out", str(out_prefix),
        *extra,
    ]


def test_classify_keyword_writes_all_outputs(runner, tmp_path, workspace):
    out = tmp_path / "kw"
    result = runner.invoke(main, _classify_args(workspace, out))
    assert result.exit_code == 0, result.output
    assert "wrote 12 predictions, 0 errors" in result.output

    csv_lines = (tmp_path / "kw.csv").read_text().splitlines()
    assert csv_lines[0] == "image_id,predicted_code,ground_truth_code,group"
    assert len(csv_lines) == 13

    jsonl = [json.loads(line) for line in (tmp_path / "kw.jsonl").read_text().splitlines()]
    assert len(jsonl) == 12
    assert jsonl[0]["method"]["label"] == "keyword/page/basic"

    meta = json.loads((tmp_path / "kw.meta.json").read_text())
    assert meta["predictions"] == 12
    assert meta["errors"] == []
    assert meta["offline"] is True
    assert str(tmp_path) not in json.dumps(meta)


def test_classify_outputs_are_byte_identical_across_runs(runner, tmp_path, workspace):
    for name in ("r1", "r2"):
        result = runner.invoke(
            main, _classify_args(workspace, tmp_path / name, method="hybrid", database="hierarchical")
        )
        assert result.exit_code == 0, result.output
    for suffix in (".jsonl", ".csv", ".meta.json"):
        assert (tmp_path / ("r1" + suffix)).read_bytes() == (tmp_path / ("r2" + suffix)).read_bytes()


def test_classify_reuses_its_embedding_cache(runner, tmp_path, workspace):
    cache = tmp_path / "emb.jsonl"
    for name in ("r1", "r2"):
        result = runner.invoke(main, _classify_args(
            workspace, tmp_path / name, method="hybrid", extra=("--embed-cache", str(cache))))
        assert result.exit_code == 0, result.output
        if name == "r1":
            first = cache.read_bytes()
            assert len(first.splitlines()) == 12
    assert cache.read_bytes() == first  # the second run embedded nothing
    for suffix in (".jsonl", ".csv", ".meta.json"):
        assert (tmp_path / ("r1" + suffix)).read_bytes() == (tmp_path / ("r2" + suffix)).read_bytes()


def test_classify_reports_a_failed_row_and_goes_on(runner, tmp_path, workspace):
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id,description\nimgA,the building of the ark\nimgB,\n")
    args = _classify_args(workspace, tmp_path / "x")
    args[args.index("--manifest") + 1] = str(manifest)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "imgB: MissingDescriptionError: " in result.output
    assert "wrote 1 predictions, 1 errors" in result.output
    [error] = json.loads((tmp_path / "x.meta.json").read_text())["errors"]
    assert error["image_id"] == "imgB" and error["error"].startswith("MissingDescriptionError: ")


def test_out_parent_directories_are_created(runner, tmp_path, workspace):
    rendered = tmp_path / "new" / "sub" / "rendered.jsonl"
    result = runner.invoke(main, [
        "taxonomy", "build", "--taxonomy", str(FIXTURES / "taxonomy.tsv"), "--out", str(rendered),
    ])
    assert result.exit_code == 0, result.output
    assert rendered.read_bytes() == (workspace / "rendered.jsonl").read_bytes()

    prefix = tmp_path / "new" / "other" / "x"
    result = runner.invoke(main, _classify_args(workspace, prefix))
    assert result.exit_code == 0, result.output
    for suffix in (".jsonl", ".csv", ".meta.json"):
        assert (prefix.parent / ("x" + suffix)).is_file()


def test_a_failed_classify_leaves_no_out_directory(runner, tmp_path, workspace):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    prefix = tmp_path / "o" / "x"
    result = runner.invoke(main, [
        "classify", "--manifest", str(FIXTURES / "manifest.csv"), "--method", "image",
        "--taxonomy", str(workspace / "rendered.jsonl"), "--refs", str(empty), "--offline", "--out", str(prefix),
    ])
    assert result.exit_code == 1
    assert result.output == f"Error: {empty}: reference set is empty\n"
    assert not prefix.parent.exists()


def test_classify_image_method(runner, tmp_path, workspace):
    out = tmp_path / "img"
    result = runner.invoke(main, [
        "classify",
        "--manifest", str(FIXTURES / "manifest.csv"),
        "--method", "image",
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--refs", str(FIXTURES / "refs.jsonl"),
        "--offline",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in (tmp_path / "img.jsonl").read_text().splitlines()]
    assert rows[0]["image_id"] == "img001"
    assert rows[0]["predicted"] == "71B32"
    assert rows[0]["method"]["label"] == "image/illustration/image"


def test_classify_rag_vector_offline(runner, tmp_path, workspace):
    out = tmp_path / "rag"
    result = runner.invoke(
        main,
        _classify_args(workspace, out, method="rag-vector", extra=("--rag-k", "7")),
    )
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "rag.meta.json").read_text())
    assert meta["method"]["rag_k"] == 7
    assert meta["method"]["query"] == "rag-vector"
    rows = [json.loads(line) for line in (tmp_path / "rag.jsonl").read_text().splitlines()]
    for row in rows:
        assert len(row["candidates"]) <= 7
        assert row["predicted"] in {c["code"] for c in row["candidates"]}


def test_classify_refuses_an_index_built_for_another_database_or_embedder(runner, tmp_path, workspace):
    args = _classify_args(workspace, tmp_path / "x", database="basic")
    args[args.index("--index-dir") + 1] = str(workspace / "index-hierarchical")
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "built with database 'hierarchical'" in result.output
    assert not (tmp_path / "x.jsonl").exists()

    args = _classify_args(workspace, tmp_path / "y", method="vector")
    args.remove("--offline")
    args += ["--endpoint", "http://h", "--embed-model", "embed"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "built with embedder 'offline-hash-64'" in result.output
    assert "'remote:embed'" in result.output


def test_classify_keyword_needs_no_embedding_settings(runner, tmp_path, workspace):
    # keyword search never embeds a query, so neither the run's embedder nor the index's matters
    result = runner.invoke(main, _classify_args(workspace, tmp_path / "offline"))
    assert result.exit_code == 0, result.output

    args = _classify_args(workspace, tmp_path / "remote")
    args.remove("--offline")
    result = runner.invoke(main, args, env={"ICONCLASSIFY_ENDPOINT": None, "ICONCLASSIFY_EMBED_MODEL": None})
    assert result.exit_code == 0, result.output
    assert (tmp_path / "remote.csv").read_bytes() == (tmp_path / "offline.csv").read_bytes()

    index, args = _copied_index(workspace, tmp_path, tmp_path / "remote-index")
    meta = json.loads((index / "meta.json").read_text())
    meta["config"]["embedder"] = "remote:embed"
    (index / "meta.json").write_text(json.dumps(meta))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert (tmp_path / "remote-index.csv").read_bytes() == (tmp_path / "offline.csv").read_bytes()

    args[args.index("--method") + 1] = "vector"  # a method that embeds still checks the embedder
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "built with embedder 'remote:embed'" in result.output


@pytest.mark.parametrize("option", ["--rag-k", "--pool", "--vote-k", "--workers"])
def test_classify_rejects_k_below_one(runner, tmp_path, workspace, option):
    for value in ("0", "-1"):
        result = runner.invoke(
            main, _classify_args(workspace, tmp_path / "x", method="rag-hybrid", extra=(option, value))
        )
        assert result.exit_code == 2
        assert "Invalid value" in result.output
    assert not (tmp_path / "x.jsonl").exists()


def test_classify_rejects_alpha_outside_zero_to_one(runner, tmp_path, workspace):
    for value in ("-0.5", "1.5"):
        result = runner.invoke(
            main, _classify_args(workspace, tmp_path / "x", method="hybrid", extra=("--alpha", value))
        )
        assert result.exit_code == 2
        assert "--alpha" in result.output
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("module, unloaded", [
    ("iconclassify.cli", ["numpy", "requests"]),
    ("iconclassify.taxonomy", ["numpy", "requests"]),
    ("iconclassify.evaluation", ["numpy", "requests"]),
], ids=["cli", "taxonomy", "evaluation"])
def test_cli_import_leaves_requests_unloaded(module, unloaded):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = f"import sys, {module}; print([name for name in {unloaded!r} if name in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_help_taxonomy_build_and_evaluate_run_without_numpy(workspace, tmp_path):
    # None in sys.modules makes `import numpy` raise ImportError
    golden = FIXTURES / "golden" / "rag-vector-page-basic"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys; sys.modules['numpy'] = None; from iconclassify.cli import main; main()"
    for args in (
        ["--help"],
        ["taxonomy", "build", "--taxonomy", str(FIXTURES / "taxonomy.tsv"), "--out", str(tmp_path / "rendered.jsonl")],
        ["evaluate", "--predictions", str(golden / "predictions.csv"), "--out", str(tmp_path / "report"),
         "--label", "rag-vector/page/basic"],
    ):
        out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
    for name in ("rendered.jsonl", "rendered.jsonl.meta.json"):
        assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes()
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "report" / name).read_bytes() == (golden / name).read_bytes()


def test_cli_import_starts_no_thread():
    # the scan pool is made by the first split scan
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import threading, iconclassify.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


def test_classify_unknown_method_is_usage_error(runner, tmp_path, workspace):
    result = runner.invoke(main, _classify_args(workspace, tmp_path / "x", method="psychic"))
    assert result.exit_code == 2
    assert "Invalid value" in result.output


def test_classify_text_method_requires_index_dir(runner, tmp_path, workspace):
    result = runner.invoke(main, [
        "classify",
        "--manifest", str(FIXTURES / "manifest.csv"),
        "--method", "keyword",
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--offline",
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code == 1
    assert "--index-dir is required" in result.output


def test_classify_image_method_requires_refs(runner, tmp_path, workspace):
    result = runner.invoke(main, [
        "classify",
        "--manifest", str(FIXTURES / "manifest.csv"),
        "--method", "image",
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--offline",
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code == 1
    assert "--refs is required" in result.output


# ---------------------------------------------------------------- evaluate

def test_evaluate_all_match_types(runner, tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "image_id,predicted_code,ground_truth_code\n"
        "full,73D231,73D231\n"
        "extra,71H1442,71H14\n"
        "partial_a,71H14,71H1442\n"
        "partial_b,73D25,73D2311\n"
        "partial_c,73D232,73D231\n"
        "no_match,111,731111\n"
    )
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["match_counts"] == {
        "full": 1, "extra": 1, "partial_a": 1, "partial_b": 1, "partial_c": 1, "no_match": 1,
    }
    assert report["label"] == "preds"
    assert report["count"] == 6
    text = (tmp_path / "report" / "report.txt").read_text()
    assert "== Summary ==" in text
    assert "preds" in result.output
    assert "weighted=" in result.output


def test_evaluate_shallow_prediction_metrics(runner, tmp_path):
    preds = tmp_path / "one.csv"
    preds.write_text(
        "image_id,predicted_code,ground_truth_code\nimg,71H14,71H1442\n"
    )
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"),
        "--label", "shallow-demo",
    ])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["label"] == "shallow-demo"
    assert report["summary"]["avg_precision"] == 1.0
    assert report["summary"]["avg_recall"] == pytest.approx(5 / 7, abs=1e-4)
    assert report["summary"]["avg_weighted"] == pytest.approx(85 * 5 / 7, abs=1e-6)
    assert "recall=0.7143" in result.output


def test_evaluate_reports_groups(runner, tmp_path):
    preds = tmp_path / "g.csv"
    preds.write_text(
        "image_id,predicted_code,ground_truth_code,group\n"
        "a,73D231,73D231,set-a\n"
        "b,111,731111,set-b\n"
    )
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"),
    ])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["groups"]["set-a"]["avg_weighted"] == 100.0
    assert report["groups"]["set-b"]["avg_weighted"] == 0.0


def test_evaluate_empty_csv_fails(runner, tmp_path):
    preds = tmp_path / "empty.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\n")
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"),
    ])
    assert result.exit_code == 1
    assert "no prediction rows" in result.output


def test_evaluate_bad_code_names_the_image(runner, tmp_path):
    preds = tmp_path / "bad.csv"
    preds.write_text(
        "image_id,predicted_code,ground_truth_code\nimgZ,?bogus,73D2\n"
    )
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"),
    ])
    assert result.exit_code == 1
    assert "imgZ" in result.output


def test_evaluate_respects_max_level_and_k(runner, tmp_path):
    preds = tmp_path / "p.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\na,73D231,73D231\n")
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"),
        "--max-level", "3", "--max-k", "2",
    ])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert len(report["level_accuracy"]) == 3
    assert len(report["truncation"]) == 3
    assert report["config"] == {"label": "p", "max_level": 3, "max_k": 2}


@pytest.mark.parametrize("flag, value", [("--max-level", "0"), ("--max-k", "-2")])
def test_evaluate_rejects_out_of_range_levels_and_k(runner, tmp_path, flag, value):
    preds = tmp_path / "p.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\na,73D231,73D231\n")
    result = runner.invoke(main, [
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "report"), flag, value,
    ])
    assert result.exit_code == 2
    assert flag in result.output
    assert not (tmp_path / "report" / "report.json").exists()


# ---------------------------------------------------------------- malformed input

def _cut_line(text, n):
    """text with its line n (1-based) cut in half."""
    lines = text.splitlines()
    lines[n - 1] = lines[n - 1][: len(lines[n - 1]) // 2]
    return "\n".join(lines) + "\n"


def _cut_rendered_taxonomy(workspace, tmp_path):
    cut = tmp_path / "cut.jsonl"
    cut.write_text(_cut_line((workspace / "rendered.jsonl").read_text(), 3))
    return ["index", "build", "--taxonomy", str(cut), "--index-dir", str(tmp_path / "idx"),
            "--offline"], ["cut.jsonl", "line 3"]


def _cut_manifest(workspace, tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"image_id": "a", "description": "the ark"}\n\n{"image_id": "b", "desc\n')
    return ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
            "--offline"], ["manifest.jsonl", "line 3"]


def _image_args(workspace, tmp_path, refs_text):
    refs = tmp_path / "refs.jsonl"
    refs.write_text(refs_text)
    return ["classify", "--manifest", str(FIXTURES / "manifest.csv"), "--method", "image",
            "--taxonomy", str(workspace / "rendered.jsonl"), "--refs", str(refs), "--offline",
            "--out", str(tmp_path / "x")]


def _cut_refs(workspace, tmp_path):
    text = _cut_line((FIXTURES / "refs.jsonl").read_text(), 2)
    return _image_args(workspace, tmp_path, text), ["refs.jsonl", "line 2"]


def _refs_without_codes(workspace, tmp_path):
    text = (FIXTURES / "refs.jsonl").read_text() + '{"vector": [1, 0, 0, 0, 0, 0, 0, 0]}\n'
    line = len(text.splitlines())
    return _image_args(workspace, tmp_path, text), ["refs.jsonl", f"line {line}", "codes"]


def _refs_with_empty_codes(workspace, tmp_path):
    text = "".join(json.dumps({**json.loads(line), "codes": []}) + "\n"
                   for line in (FIXTURES / "refs.jsonl").read_text().splitlines())
    return _image_args(workspace, tmp_path, text), ["refs.jsonl", "line 1", "no codes"]


def _refs_with_a_bad_code(workspace, tmp_path):
    text = '{"vector": [1, 0, 0, 0, 0, 0, 0, 0], "codes": ["71B32", "x1"]}\n'
    return _image_args(workspace, tmp_path, text), ["refs.jsonl", "line 1", "x1"]


def _refs_with_code(workspace, tmp_path, code):
    text = json.dumps({"vector": [1, 0, 0, 0, 0, 0, 0, 0], "codes": ["71B32", code]}) + "\n"
    return _image_args(workspace, tmp_path, text), [f"Error: line 1: {tmp_path / 'refs.jsonl'}: bad reference record: "]


def _refs_with_a_number_for_a_code(workspace, tmp_path):
    return _refs_with_code(workspace, tmp_path, 71)


def _refs_with_null_for_a_code(workspace, tmp_path):
    return _refs_with_code(workspace, tmp_path, None)


def _refs_with_a_list_for_a_code(workspace, tmp_path):
    return _refs_with_code(workspace, tmp_path, ["71"])


def _copied_index(workspace, tmp_path, out_prefix, source="index-basic"):
    """A copy of one of the workspace's indices, and keyword classify args that read it."""
    index = tmp_path / "index"
    shutil.copytree(workspace / source, index)
    args = _classify_args(workspace, out_prefix)
    args[args.index("--index-dir") + 1] = str(index)
    return index, args


def _cut_vectors(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    (index / "vectors.jsonl").write_text(_cut_line((index / "vectors.jsonl").read_text(), 5))
    return args, ["vectors.jsonl", "line 5"]


def _cut_vector_matrix(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    (index / "vectors.npy").write_bytes((index / "vectors.npy").read_bytes()[:-100])
    return args, [f"{index}: unreadable index file", "vectors.npy holds {'descr': '<f8', 'fortran_order': False, "
                  "'shape': (50, 64), } and 25500 bytes of data, not a C-ordered <f8 array of rank 2", "index build"]


def _format_1_index(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    (index / "vectors.npy").unlink()
    (index / "vectors.jsonl").write_text("".join(
        json.dumps({"id": obj["id"], "vector": [1.0] * 64}) + "\n"
        for obj in map(json.loads, (index / "vectors.jsonl").read_text().splitlines())))
    meta = json.loads((index / "meta.json").read_text())
    (index / "meta.json").write_text(json.dumps({**meta, "format": 1}))
    return args, [f"Error: {index}: index format 1 is no longer read; rebuild it with `index build`\n"]


def _index_with_another_builds_meta(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x", source="index-hierarchical")
    (index / "meta.json").write_bytes((workspace / "index-basic" / "meta.json").read_bytes())
    return args, ["incomplete index", "(50, 5.94, 50, 64)", "(50, 14.34, 50, 64)", "index build"]


def _format_2_index(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    meta = json.loads((index / "meta.json").read_text())
    (index / "meta.json").write_text(json.dumps({**meta, "format": 2}))
    return args, [f"Error: {index}: index format 2 is no longer read; rebuild it with `index build`\n"]


def _keyword_file_without_postings(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    kw = json.loads((index / "keyword.json").read_text())
    (index / "keyword.json").write_text(json.dumps({"ids": kw["ids"]}))
    return args, ["unreadable index file", "KeyError('terms')"]


def _changed_keyword_part(workspace, tmp_path, change, *reasons):
    """Copied-index classify args, with `change(kw, arrays)` applied to the keyword files: it edits `kw`,
    the keyword.json object, or the arrays by name. The one-line error names the index and gives `reasons`."""
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    kw = json.loads((index / "keyword.json").read_text())
    names = ("offsets", "rows", "tfs", "lengths")
    arrays = {name: np.load(index / f"keyword-{name}.npy") for name in names}
    change(kw, arrays)
    (index / "keyword.json").write_text(json.dumps(kw))
    for name in names:
        np.save(index / f"keyword-{name}.npy", arrays[name], allow_pickle=arrays[name].dtype == object)
    return args, [f"{index}: unreadable index file: ", *reasons, "; rebuild it with `index build`"]


def _not_int32(name, descr):
    """The reasons a keyword array file is refused whose header's 'descr' value, and what follows it, begins
    `descr`, where save_index writes an int32 array."""
    return [f"{name} holds {{'descr': {descr}", ", not a C-ordered <i4 array of rank 1 and the bytes its shape needs"]


def _term_frequency_beyond_the_float_range(workspace, tmp_path):
    def change(kw, arrays):
        arrays["tfs"] = arrays["tfs"] * 1.0
        arrays["tfs"][0] = math.inf
    return _changed_keyword_part(workspace, tmp_path, change,
                                 *_not_int32("keyword-tfs.npy", "'<f8', 'fortran_order': False, 'shape': ("))


def _fractional_term_frequency(workspace, tmp_path):
    def change(kw, arrays):
        arrays["tfs"] = arrays["tfs"] * 1.5
    return _changed_keyword_part(workspace, tmp_path, change,
                                 *_not_int32("keyword-tfs.npy", "'<f8', 'fortran_order': False, 'shape': ("))


def _zero_term_frequency(workspace, tmp_path):
    def change(kw, arrays):
        arrays["tfs"][-1] = 0
    return _changed_keyword_part(workspace, tmp_path, change, "a term frequency below 1 or a doc length below 0")


def _boolean_doc_length(workspace, tmp_path):
    def change(kw, arrays):
        arrays["lengths"] = arrays["lengths"] > 0
    return _changed_keyword_part(workspace, tmp_path, change,
                                 *_not_int32("keyword-lengths.npy", "'|b1', 'fortran_order': False, 'shape': (50,)"))


def _negative_doc_length(workspace, tmp_path):
    def change(kw, arrays):
        arrays["lengths"][0] = -1
    return _changed_keyword_part(workspace, tmp_path, change, "a term frequency below 1 or a doc length below 0")


def _postings_that_name_a_doc_twice(workspace, tmp_path):
    # the counts still agree with meta.json, but the term's document frequency would exceed its docs
    repeated = []

    def change(kw, arrays):
        offsets, rows = arrays["offsets"], arrays["rows"]
        term = next(t for t in range(len(kw["terms"])) if offsets[t + 1] - offsets[t] > 1)
        rows[offsets[term] + 1] = rows[offsets[term]]
        repeated.append(kw["terms"][term])
    args, needles = _changed_keyword_part(workspace, tmp_path, change, "ValueError(\"the rows of ")
    return args, [*needles, f"{repeated[0]!r} repeat a doc or are out of order"]


def _keyword_array_of_two_dimensions(workspace, tmp_path):
    def change(kw, arrays):
        arrays["rows"] = arrays["rows"].reshape(-1, 1)
    return _changed_keyword_part(workspace, tmp_path, change,
                                 *_not_int32("keyword-rows.npy", "'<i4', 'fortran_order': False, 'shape': ("),
                                 ", 1), } and ")


def _keyword_slices_that_do_not_tile_the_rows(workspace, tmp_path):
    def change(kw, arrays):
        arrays["offsets"][-1] -= 1
    return _changed_keyword_part(workspace, tmp_path, change, "slices do not tile the")


def _keyword_term_with_no_posting(workspace, tmp_path):
    def change(kw, arrays):
        kw["terms"].append("zebra")
        arrays["offsets"] = np.append(arrays["offsets"], arrays["offsets"][-1])
    return _changed_keyword_part(workspace, tmp_path, change, "one posting or more each")


def _keyword_row_outside_the_docs(workspace, tmp_path):
    def change(kw, arrays):
        arrays["rows"][-1] = 50
    return _changed_keyword_part(workspace, tmp_path, change, "ValueError('a row outside [0, 50)')")


def _keyword_term_listed_twice(workspace, tmp_path):
    def change(kw, arrays):
        kw["terms"][1] = kw["terms"][0]
    return _changed_keyword_part(workspace, tmp_path, change, "ValueError('a term is listed twice')")


def _keyword_ids_out_of_order(workspace, tmp_path):
    def change(kw, arrays):
        kw["ids"][:2] = kw["ids"][1::-1]
    return _changed_keyword_part(workspace, tmp_path, change, "the doc ids are not in strictly ascending order")


def _keyword_ids_other_than_the_vectors(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    kw = json.loads((index / "keyword.json").read_text())
    kw["ids"][0] = "0"  # still sorted first
    (index / "keyword.json").write_text(json.dumps(kw))
    return args, [f"{index}: incomplete index", "under other ids; rebuild it with `index build`"]


def _cut_keyword_array(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    (index / "keyword-rows.npy").write_bytes((index / "keyword-rows.npy").read_bytes()[:-8])
    return args, [f"{index}: unreadable index file: ValueError(\"", *_not_int32("keyword-rows.npy", "'<i4'"),
                  "index build"]


def _pickled_keyword_array(workspace, tmp_path):
    def change(kw, arrays):
        arrays["tfs"] = arrays["tfs"].astype(object)
    return _changed_keyword_part(workspace, tmp_path, change,
                                 *_not_int32("keyword-tfs.npy", "'|O', 'fortran_order': False, 'shape': ("))


def _index_built_from_another_taxonomy(workspace, tmp_path):
    rendered = tmp_path / "rendered.jsonl"
    rendered.write_text((workspace / "rendered.jsonl").read_text().replace("ark", "boat", 1))
    args = _classify_args(workspace, tmp_path / "x")
    args[args.index("--taxonomy") + 1] = str(rendered)
    return args, [f"Error: {workspace / 'index-basic'} was built from another taxonomy file than {rendered}; "
                  "rebuild the index from it, or pass the file it was built from\n"]


def _index_config_that_is_not_an_object(workspace, tmp_path):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    meta = json.loads((index / "meta.json").read_text())
    (index / "meta.json").write_text(json.dumps({**meta, "config": []}))
    return args, ["unreadable index file", "config must be an object"]


def _rendered_taxonomy_args(workspace, tmp_path, text):
    rendered = tmp_path / "rendered.jsonl"
    rendered.write_text(text)
    args = _classify_args(workspace, tmp_path / "x", method="rag-hybrid")  # keyword, vector and hybrid parse none
    args[args.index("--taxonomy") + 1] = str(rendered)
    return args


def _rendered_taxonomy_without_a_rendering(workspace, tmp_path):
    lines = (workspace / "rendered.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    del record["hierarchical"]
    text = lines[0] + json.dumps(record) + "\n" + "".join(lines[2:])
    return _rendered_taxonomy_args(workspace, tmp_path, text), \
        ["rendered.jsonl", "line 2", "needs code, basic and hierarchical fields", "taxonomy build"]


def _edited_line_2(workspace, tmp_path, **changes):
    """The workspace's rendered taxonomy with fields of its second record replaced, as tmp_path/rendered.jsonl."""
    lines = (workspace / "rendered.jsonl").read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), **changes}) + "\n"
    rendered = tmp_path / "rendered.jsonl"
    rendered.write_text("".join(lines))
    return rendered


def _index_build_over_an_edited_line_2(workspace, tmp_path, **changes):
    """`index build` over the workspace's rendered taxonomy with fields of its second record replaced."""
    rendered = _edited_line_2(workspace, tmp_path, **changes)
    return ["index", "build", "--taxonomy", str(rendered), "--index-dir", str(tmp_path / "idx"), "--offline"]


def _rendered_taxonomy_with_a_number_for_a_rendering(workspace, tmp_path):
    return _index_build_over_an_edited_line_2(workspace, tmp_path, basic=5), \
        ["rendered.jsonl", "line 2", "needs code, basic and hierarchical fields, each a string"]


def _rendered_taxonomy_with_a_number_for_a_code(workspace, tmp_path):
    return _index_build_over_an_edited_line_2(workspace, tmp_path, code=71), \
        ["rendered.jsonl", "line 2", "needs code, basic and hierarchical fields, each a string"]


def _rendered_taxonomy_with_a_code_that_does_not_parse(workspace, tmp_path):
    return _index_build_over_an_edited_line_2(workspace, tmp_path, code="7 1"), \
        ["rendered.jsonl", "line 2", "'7 1': invalid character ' '"]


def _rendered_taxonomy_with_a_code_that_does_not_parse_read_by_the_image_method(workspace, tmp_path):
    args = _image_args(workspace, tmp_path, (FIXTURES / "refs.jsonl").read_text())
    args[args.index("--taxonomy") + 1] = str(_edited_line_2(workspace, tmp_path, code="7 1"))
    return args, ["rendered.jsonl", "line 2", "'7 1': invalid character ' '"]


def _rendered_taxonomy_with_a_code_that_does_not_parse_read_by_a_rag_method(workspace, tmp_path):
    # the RAG methods parse no code: the file is not the one the index was built from, and that is the error
    rendered = _edited_line_2(workspace, tmp_path, code="7 1")
    args = _rendered_taxonomy_args(workspace, tmp_path, rendered.read_text())
    return args, [f"Error: {workspace / 'index-basic'} was built from another taxonomy file than {rendered}; "
                  "rebuild the index from it, or pass the file it was built from\n"]


def _rendered_taxonomy_with_whitespace_around_a_code(workspace, tmp_path):
    # " 71" parses as 71, so the index would name a code the file does not hold
    second = json.loads((workspace / "rendered.jsonl").read_text().splitlines()[1])["code"]
    return _index_build_over_an_edited_line_2(workspace, tmp_path, code=f" {second}"), \
        ["rendered.jsonl", "line 2", f"' {second}': whitespace around the code"]


def _rendered_taxonomy_with_a_repeated_code(workspace, tmp_path):
    first = json.loads((workspace / "rendered.jsonl").read_text().splitlines()[0])["code"]
    return _index_build_over_an_edited_line_2(workspace, tmp_path, code=first), \
        ["rendered.jsonl", "line 2", f"duplicate code {first!r}"]


def _rendered_taxonomy_with_a_lone_surrogate(workspace, tmp_path):
    # json.dumps writes the lone half of a surrogate pair as the escape \ud800
    return _index_build_over_an_edited_line_2(workspace, tmp_path, basic="Noah \ud800 ark"), \
        ["rendered.jsonl", "line 2", "lone surrogate \\ud800", "taxonomy build"]


def _empty_rendered_taxonomy(workspace, tmp_path):
    return _rendered_taxonomy_args(workspace, tmp_path, "\n"), ["rendered.jsonl", "rendered taxonomy is empty"]


def _description_cache_with_a_lone_surrogate(workspace, tmp_path):
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"image_id": "img001", "mode": "page", "text": "Noah \ud800 ark"}) + "\n")
    return _classify_args(workspace, tmp_path / "x", method="vector", extra=("--cache", str(cache))), \
        [f"line 1: {cache}: bad cache record: ValueError('a lone surrogate \\\\ud800 in a string')"]


def _raw_taxonomy_args(tmp_path, text):
    source = tmp_path / "raw.tsv"
    source.write_text(text)
    return ["taxonomy", "build", "--taxonomy", str(source), "--out", str(tmp_path / "o.jsonl")]


def _raw_taxonomy_with_a_bad_code(workspace, tmp_path):
    return _raw_taxonomy_args(tmp_path, "7\tBible\n7x\tbad\n"), ["line 2: ", "raw.tsv: '7x': invalid character"]


def _raw_taxonomy_json_without_txt(workspace, tmp_path):
    return _raw_taxonomy_args(tmp_path, '7\tBible\n{"code": "71"}\n'), \
        ["line 2: ", "raw.tsv: JSON record needs 'code' and 'txt' fields"]


def _raw_taxonomy_json_with_a_lone_surrogate(workspace, tmp_path):
    return _raw_taxonomy_args(tmp_path, '7\tBible\n{"code": "71", "txt": "Noah \\udc00 ark"}\n'), \
        ["line 2: ", "raw.tsv: invalid JSON: a lone surrogate \\udc00 in a string"]


def _raw_taxonomy_with_a_duplicate_code(workspace, tmp_path):
    return _raw_taxonomy_args(tmp_path, "7\tBible\n7\tagain\n"), ["raw.tsv: duplicate code '7' at line 2"]


def _manifest_line(tmp_path, record):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"image_id": "a", "description": "the ark"}\n' + json.dumps(record) + "\n")
    return ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"), "--offline"]


def _manifest_with_a_boolean_image_id(workspace, tmp_path):
    return _manifest_line(tmp_path, {"image_id": True}), \
        ["line 2: ", "manifest.jsonl: image_id must be a string"]


def _manifest_with_a_fractional_image_id(workspace, tmp_path):
    return _manifest_line(tmp_path, {"image_id": 5.5}), \
        ["line 2: ", "manifest.jsonl: image_id must be a string"]


def _manifest_with_a_list_description(workspace, tmp_path):
    return _manifest_line(tmp_path, {"image_id": "b", "description": ["noah", "ark"]}), \
        ["line 2: ", "manifest.jsonl: description must be a string"]


def _manifest_with_an_integer_of_5000_digits(workspace, tmp_path):
    if not hasattr(sys, "set_int_max_str_digits"):  # the limit came in Python 3.11 and 3.10.7
        pytest.skip("this Python reads integers of any length")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"image_id": "a", "description": "the ark"}\n{"image_id": ' + "1" * 5000 + "}\n")
    return ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"), "--offline"], \
        ["line 2: ", "manifest.jsonl: invalid JSON: Exceeds the limit (4300 digits)"]


def _manifest_with_a_repeated_image_id(workspace, tmp_path):
    return _manifest_line(tmp_path, {"image_id": "a"}), ["line 2: ", "manifest.jsonl: duplicate image_id 'a'"]


def _predictions_with_a_bad_code(workspace, tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\nimgA,73D231,73D231\nimgB,7x,73D231\n")
    return ["evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r")], \
        ["line 3: ", "preds.csv: imgB: '7x': invalid character 'x'"]


def _predictions_with_a_repeated_image_id(workspace, tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\na,71B32,71B32\na,71B32,71B32\nb,73D2,71B32\n")
    return ["evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r")], \
        ["line 3: ", "preds.csv: duplicate image_id 'a'"]


def _manifest_with_an_oversized_field(workspace, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("image_id,description\na,the ark\nb," + "x" * 200_000 + "\n")
    return ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
            "--offline"], ["line 3: ", "manifest.csv: field larger than field limit"]


def _non_utf8_taxonomy(workspace, tmp_path):
    source = tmp_path / "raw.tsv"
    source.write_bytes(b"7\tBible\n71\tOld Testament \xff\n")
    return ["taxonomy", "build", "--taxonomy", str(source), "--out", str(tmp_path / "o.jsonl")], \
        ["raw.tsv", "line 2", "not UTF-8"]


def _non_utf8_manifest(workspace, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"image_id,description\na,the ark \xff\n")
    return ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
            "--offline"], ["manifest.csv", "not UTF-8"]


def _non_utf8_predictions(workspace, tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_bytes(b"image_id,predicted_code,ground_truth_code\na\xff,73D231,73D231\n")
    return ["evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r")], \
        ["preds.csv", "not UTF-8"]


def _multi_line_manifest(workspace, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text('image_id,description\na,"the ark\nof Noah"\n,the flood\n')
    return ["describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
            "--offline"], ["manifest.csv", "line 4", "missing image_id"]


def _multi_line_predictions(workspace, tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text('image_id,predicted_code,ground_truth_code,group\na,73D231,73D231,"set\na"\nb,,73D231,x\n')
    return ["evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r")], \
        ["preds.csv", "line 4", "incomplete prediction row"]


_GOLDEN_CSV = FIXTURES / "golden" / "rag-vector-page-basic" / "predictions.csv"


def _evaluate_out_below_a_regular_file(workspace, tmp_path):
    (tmp_path / "notadir").write_text("")
    out = tmp_path / "notadir" / "sub"
    return ["evaluate", "--predictions", str(_GOLDEN_CSV), "--out", str(out)], [f"Error: {out}: Not a directory\n"]


def _dim_below_the_offline_minimum(workspace, tmp_path):
    return ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"),
            "--index-dir", str(tmp_path / "idx"), "--offline", "--dim", "8"], ["--dim", "x>=16"]


@pytest.mark.parametrize("case", [
    _cut_rendered_taxonomy, _cut_manifest, _cut_refs, _refs_without_codes, _refs_with_empty_codes,
    _refs_with_a_bad_code, _refs_with_a_number_for_a_code, _refs_with_null_for_a_code, _refs_with_a_list_for_a_code,
    _cut_vectors, _cut_vector_matrix, _format_1_index, _non_utf8_taxonomy,
    _non_utf8_manifest, _non_utf8_predictions,
    _multi_line_manifest, _multi_line_predictions, _dim_below_the_offline_minimum,
    _index_with_another_builds_meta, _keyword_file_without_postings, _index_config_that_is_not_an_object,
    _term_frequency_beyond_the_float_range, _fractional_term_frequency, _zero_term_frequency,
    _boolean_doc_length, _negative_doc_length, _postings_that_name_a_doc_twice, _format_2_index,
    _keyword_array_of_two_dimensions, _keyword_slices_that_do_not_tile_the_rows, _keyword_term_with_no_posting,
    _keyword_row_outside_the_docs, _keyword_term_listed_twice, _keyword_ids_out_of_order,
    _keyword_ids_other_than_the_vectors, _cut_keyword_array, _pickled_keyword_array,
    _index_built_from_another_taxonomy,
    _rendered_taxonomy_without_a_rendering,
    _rendered_taxonomy_with_a_number_for_a_rendering, _rendered_taxonomy_with_a_number_for_a_code,
    _rendered_taxonomy_with_a_code_that_does_not_parse, _rendered_taxonomy_with_whitespace_around_a_code,
    _rendered_taxonomy_with_a_repeated_code,
    _rendered_taxonomy_with_a_code_that_does_not_parse_read_by_the_image_method,
    _rendered_taxonomy_with_a_code_that_does_not_parse_read_by_a_rag_method,
    _rendered_taxonomy_with_a_lone_surrogate, _raw_taxonomy_json_with_a_lone_surrogate,
    _description_cache_with_a_lone_surrogate,
    _empty_rendered_taxonomy, _raw_taxonomy_with_a_bad_code, _raw_taxonomy_json_without_txt,
    _raw_taxonomy_with_a_duplicate_code, _manifest_with_a_boolean_image_id, _manifest_with_a_fractional_image_id,
    _manifest_with_a_list_description, _manifest_with_a_repeated_image_id, _manifest_with_an_integer_of_5000_digits,
    _predictions_with_a_bad_code,
    _predictions_with_a_repeated_image_id, _manifest_with_an_oversized_field, _evaluate_out_below_a_regular_file,
], ids=lambda case: case.__name__.strip("_"))
def test_malformed_input_ends_as_a_one_line_error(runner, tmp_path, workspace, case):
    args, needles = case(workspace, tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == (2 if "Usage:" in result.output else 1)  # click's usage errors exit 2
    assert isinstance(result.exception, SystemExit), repr(result.exception)  # not an uncaught error
    assert "Traceback" not in result.output
    assert result.output.count("Error:") == 1, result.output
    for needle in needles:
        assert needle in result.output
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("change", ["2**40 rows", "a trailing byte"])
@pytest.mark.parametrize("name", ["vectors.npy", "keyword-offsets.npy", "keyword-rows.npy", "keyword-tfs.npy",
                                  "keyword-lengths.npy"])
def test_an_index_array_whose_bytes_disagree_with_its_header_ends_as_a_one_line_error(runner, workspace, tmp_path,
                                                                                      name, change):
    # a loader that trusted the header would allocate 2**40 rows before it read one, and end in a MemoryError
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    npy = (index / name).read_bytes()
    rows = (2**40, *np.load(index / name).shape[1:])
    (index / name).write_bytes(npy_claiming(npy, shape=rows) if change == "2**40 rows" else npy + b"\0")
    result = runner.invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output.startswith(f"Error: {index}: unreadable index file: ValueError(\"{name} holds {{'descr': ")
    assert result.output.count("\n") == 1 and "Traceback" not in result.output


# ---------------------------------------------------------------- deeply nested JSON

_DEEP = "[" * 100_000 + "]" * 100_000  # one value nested deeper than the json decoder recurses


def _deep_jsonl_manifest(workspace, tmp_path, monkeypatch):
    (tmp_path / "m.jsonl").write_text(_DEEP + "\n")
    return ["describe", "--manifest", str(tmp_path / "m.jsonl"), "--cache", str(tmp_path / "c.jsonl"), "--offline"], \
        f"line 1: {tmp_path / 'm.jsonl'}: invalid JSON: maximum recursion depth exceeded"


def _deep_reference_set(workspace, tmp_path, monkeypatch):
    (tmp_path / "refs.jsonl").write_text(_DEEP + "\n")
    return ["classify", "--manifest", str(FIXTURES / "manifest.csv"), "--method", "image", "--taxonomy",
            str(workspace / "rendered.jsonl"), "--refs", str(tmp_path / "refs.jsonl"), "--offline",
            "--out", str(tmp_path / "x")], f"line 1: {tmp_path / 'refs.jsonl'}: invalid JSON: maximum recursion depth"


def _deep_keyword_json(workspace, tmp_path, monkeypatch):
    index, args = _copied_index(workspace, tmp_path, tmp_path / "x")
    (index / "keyword.json").write_text(_DEEP)
    return args, f"{index}: unreadable index file: RecursionError("


def _deep_description_cache(workspace, tmp_path, monkeypatch):
    (tmp_path / "c.jsonl").write_text(_DEEP + "\n")
    return _classify_args(workspace, tmp_path / "x", method="hybrid", extra=("--cache", str(tmp_path / "c.jsonl"))), \
        f"line 1: {tmp_path / 'c.jsonl'}: bad cache record: RecursionError("


def _deep_embeddings_reply(workspace, tmp_path, monkeypatch):
    reply = requests.Response()
    reply.status_code, reply._content, reply.encoding = 200, _DEEP.encode(), "utf-8"
    monkeypatch.setattr(requests, "post", lambda *a, **k: reply)
    monkeypatch.setattr(providers.time, "sleep", lambda seconds: None)
    return ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"), "--index-dir", str(tmp_path / "idx"),
            "--endpoint", "http://host", "--embed-model", "m"], \
        "http://host/embeddings: invalid JSON body: maximum recursion depth exceeded"


@pytest.mark.parametrize("case", [
    _deep_jsonl_manifest, _deep_reference_set, _deep_keyword_json, _deep_description_cache, _deep_embeddings_reply,
], ids=lambda case: case.__name__.strip("_"))
def test_deeply_nested_json_ends_as_a_one_line_error(runner, workspace, tmp_path, monkeypatch, case):
    args, needle = case(workspace, tmp_path, monkeypatch)
    result = runner.invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output.count("Error:") == 1 and "Traceback" not in result.output, result.output
    assert needle in result.output


# ---------------------------------------------------------------- vectors too large to square

_TOO_LARGE_TO_SQUARE = [1e200] + [1.0] * 7  # finite, but its squared norm overflows


def _vector_path_too_large_to_square(runner, workspace, tmp_path, monkeypatch):
    (tmp_path / "huge.json").write_text(json.dumps(_TOO_LARGE_TO_SQUARE))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"image_id,vector_path\nimgA,{tmp_path / 'huge.json'}\n")
    result = runner.invoke(main, ["classify", "--manifest", str(manifest), "--method", "image", "--taxonomy",
                                  str(workspace / "rendered.jsonl"), "--refs", str(FIXTURES / "refs.jsonl"),
                                  "--offline", "--out", str(tmp_path / "x")])
    assert result.exit_code == 0, result.output
    assert result.output == (f"imgA: ManifestParseError: {tmp_path / 'huge.json'}: bad query vector file: "
                             "TypeError('a zero or non-finite vector has no direction')\n"
                             "wrote 0 predictions, 1 errors\n")


def _embedding_reply_too_large_to_square(runner, workspace, tmp_path, monkeypatch):
    posted = []

    def post(url, payload, api_key, timeout):
        posted.append(payload["input"])
        return {"data": [{"index": i, "embedding": _TOO_LARGE_TO_SQUARE if i == 0 else [1.0] * 8}
                         for i in range(len(payload["input"]))]}

    monkeypatch.setattr(providers, "_post", post)
    cache = tmp_path / "emb.jsonl"
    args = ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"), "--index-dir", str(tmp_path / "idx"),
            "--endpoint", "http://host", "--embed-model", "m", "--embed-cache", str(cache)]
    for run in (1, 2):  # a cached reply would be served to the rerun, and refused by the index every time
        result = runner.invoke(main, args)
        assert (result.exit_code, result.output) == (
            1, "Error: remote:m returned a malformed embedding response: "
               "a zero or non-finite vector has no direction\n")
        assert len(posted) == run
    assert not cache.exists() or cache.read_text() == ""
    assert not (tmp_path / "idx").exists()


def _query_too_large_to_square(runner, workspace, tmp_path, monkeypatch):
    index = retrieval.build_vector_index([("71B", [1.0] + [0.0] * 7), ("73D", [0.0] * 7 + [1.0])])
    with pytest.raises(ZeroVectorError, match="^cannot search with a zero or non-finite query vector$"):
        retrieval.vector_search(index, _TOO_LARGE_TO_SQUARE, 1)


@pytest.mark.parametrize("case", [
    _vector_path_too_large_to_square, _embedding_reply_too_large_to_square, _query_too_large_to_square,
], ids=lambda case: case.__name__.strip("_"))
def test_a_vector_too_large_to_square_ends_as_its_usual_error_with_no_warning(runner, workspace, tmp_path,
                                                                              monkeypatch, case):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        case(runner, workspace, tmp_path, monkeypatch)
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------- file errors

# each command's arguments, given the shared workspace and the directory it writes into
_WRITERS = {
    "taxonomy build": lambda ws, d: ["taxonomy", "build", "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
                                     "--out", str(d / "rendered.jsonl")],
    "index build": lambda ws, d: ["index", "build", "--taxonomy", str(ws / "rendered.jsonl"),
                                  "--index-dir", str(d / "idx"), "--offline", "--dim", "64"],
    "describe": lambda ws, d: ["describe", "--manifest", str(FIXTURES / "manifest.csv"),
                               "--cache", str(d / "desc.jsonl"), "--offline"],
    "classify": lambda ws, d: _classify_args(ws, d / "pred", method="hybrid"),
    "evaluate": lambda ws, d: ["evaluate", "--predictions", str(_GOLDEN_CSV), "--out", str(d / "report")],
}


# an earlier run of each command, over whose outputs it writes; each leaves other bytes than the command
_EARLIER = {
    "taxonomy build": lambda ws, d: [*_WRITERS["taxonomy build"](ws, d), "--prefix-filter", "7"],
    "index build": lambda ws, d: [*_WRITERS["index build"](ws, d), "--database", "hierarchical"],
    "classify": lambda ws, d: _classify_args(ws, d / "pred", method="keyword"),
    "evaluate": lambda ws, d: [*_WRITERS["evaluate"](ws, d), "--label", "earlier"],
}


def _files(root):
    """Every file under `root` (temp files too, hidden ones included) with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def _written(root):
    """_files, with the creation times that index build and describe record blanked."""
    return {name: re.sub(rb'"created_at": "[^"]*"', b'"created_at": ""', data) for name, data in _files(root).items()}


def _run_with_file_size_limit(args, limit):
    env = {**{k: v for k, v in os.environ.items() if not k.startswith("ICONCLASSIFY_")},
           "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONDONTWRITEBYTECODE": "1"}
    # CPython ignores SIGXFSZ, so a write past the limit raises OSError (errno 27) in the child
    return subprocess.run(
        [sys.executable, "-m", "iconclassify.cli", *args], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_a_write_that_finds_no_room_is_a_one_line_error_and_a_rerun_converges(runner, tmp_path, workspace,
                                                                               command):
    whole = tmp_path / "whole"
    result = runner.invoke(main, _WRITERS[command](workspace, whole))
    assert result.exit_code == 0, result.output
    written = _written(whole)
    assert written
    if command == "describe":  # it only appends to its cache, which keeps its own locked append
        cut = tmp_path / "cut"
        cut.mkdir()
        child = _run_with_file_size_limit(_WRITERS[command](workspace, cut), 0)
        named = f"Error: {cut / 'desc.jsonl'}: File too large\n"  # the cache, as write_outputs names an output
        assert (child.returncode, child.stdout, child.stderr) == (1, "", named)
        assert runner.invoke(main, _WRITERS[command](workspace, cut)).exit_code == 0
        assert _written(cut) == written
        return

    # no room at all, and room for half of the largest output: each fails part way over an earlier run
    for limit in (0, max(map(len, written.values())) // 2):
        cut = tmp_path / f"cut-{limit}"
        result = runner.invoke(main, _EARLIER[command](workspace, cut))
        assert result.exit_code == 0, result.output
        earlier = _files(cut)
        assert _written(cut) != written

        child = _run_with_file_size_limit(_WRITERS[command](workspace, cut), limit)
        assert child.returncode == 1 and child.stdout == "", child.stderr
        named = re.fullmatch(r"Error: (.+): File too large\n", child.stderr)
        assert named, child.stderr
        assert len(written[str(Path(named[1]).relative_to(cut))]) > limit  # an output too large for the limit

        after = _files(cut)
        assert after.keys() <= earlier.keys()  # no temp file is left
        for name, data in after.items():
            assert data == earlier[name], name  # each output holds its earlier bytes, or is absent
        if command == "index build":
            assert retrieval.load_index(cut / "idx")[2]["config"]["database"] == "hierarchical"

        result = runner.invoke(main, _WRITERS[command](workspace, cut))
        assert result.exit_code == 0, result.output
        assert _written(cut) == written


# ---------------------------------------------------------------- command surface

def _parameters(command, path=()):
    """{command path: [(parameter name, environment variable)]} for `command` and every subcommand."""
    found = {" ".join(path): [(p.name, getattr(p, "envvar", None)) for p in command.params]}
    for name, sub in getattr(command, "commands", {}).items():
        found.update(_parameters(sub, path + (name,)))
    return found


def test_command_surface_is_pinned():
    endpoint, api_key = ("endpoint", "ICONCLASSIFY_ENDPOINT"), ("api_key", "ICONCLASSIFY_API_KEY")
    chat_model, embed_model = ("chat_model", "ICONCLASSIFY_CHAT_MODEL"), ("embed_model", "ICONCLASSIFY_EMBED_MODEL")

    def plain(*names):
        return [(name, None) for name in names]

    assert _parameters(main) == {
        "": [],
        "taxonomy": [],
        "taxonomy build": plain("source", "prefix_filter", "out_path"),
        "index": [],
        "index build": [*plain("rendered_path", "database", "index_dir", "offline", "dim"),
                        endpoint, embed_model, api_key, *plain("embed_cache")],
        "describe": [*plain("manifest_path", "mode", "cache_path", "offline"),
                     endpoint, chat_model, api_key, *plain("workers")],
        "classify": [*plain("manifest_path", "method_name", "mode", "database", "alpha", "rag_k", "pool",
                            "vote_k", "rendered_path", "index_dir", "refs_path", "cache_path", "embed_cache",
                            "offline"),
                     endpoint, chat_model, embed_model, api_key, *plain("workers", "out_prefix")],
        "evaluate": plain("pred_path", "out_dir", "label", "max_level", "max_k"),
    }


def test_readme_quick_start_runs(runner, tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("iconclassify ")]
    assert len(commands) == 5
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "fixtures").symlink_to(FIXTURES)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        result = runner.invoke(main, shlex.split(command)[1:])
        assert result.exit_code == 0, f"{command}\n{result.output}"
    assert json.loads((tmp_path / "report" / "report.json").read_text())["count"] == 12


def test_readme_python_examples_run(monkeypatch, capsys):
    root = Path(__file__).parents[1]
    blocks = [block.split("```", 1)[0] for block in (root / "README.md").read_text(encoding="utf-8")
              .split("```python\n")[1:]]
    assert len(blocks) == 4
    parse, vote, report, query = blocks
    failures, tried = doctest.DocTestRunner().run(doctest.DocTestParser().get_doctest(parse, {}, "README", None, 0),
                                                  out=print)
    assert (failures, tried) == (0, 2), capsys.readouterr().out
    monkeypatch.chdir(root)  # the examples read the fixtures by their paths from the repo root
    capsys.readouterr()
    exec(vote, {})
    assert capsys.readouterr().out == vote.rsplit("# ", 1)[1]  # the comment ends in the block's newline
    exec(report, {})
    assert capsys.readouterr().out.startswith("== Summary ==\n")
    exec(query, {})
    hits = capsys.readouterr().out.splitlines()
    assert len(hits) == 5 and hits[0].startswith("1 71B32 "), hits
