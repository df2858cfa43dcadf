import json
import os
import subprocess
import sys

import pytest
import requests
from click.testing import CliRunner

from iconclassify.cli import main

from conftest import FIXTURES

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
    for name in ("keyword.json", "vectors.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    meta_a = json.loads((tmp_path / "a" / "meta.json").read_text())
    meta_b = json.loads((tmp_path / "b" / "meta.json").read_text())
    assert meta_a.pop("created_at") != ""
    meta_b.pop("created_at")
    assert meta_a == meta_b
    assert meta_a["config"]["embedder"] == "offline-hash-32"
    assert meta_a["config"]["database"] == "basic"
    # config echoes carry no filesystem paths
    assert str(tmp_path) not in json.dumps(meta_a)


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


def test_describe_remote_needs_model(runner, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("image_id\nimgX\n")
    result = runner.invoke(main, [
        "describe", "--manifest", str(manifest), "--cache", str(tmp_path / "c.jsonl"),
    ])
    assert result.exit_code == 2
    assert "--endpoint and --chat-model" in result.output


def test_describe_remote_generates(runner, tmp_path, monkeypatch):
    image = tmp_path / "page.png"
    image.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 8)
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"image_id,page_image_path\nimgX,{image.name}\n")

    body = {"choices": [{"message": {"content": "a woodcut of the flood"}}]}

    class FakeResponse:
        status_code = 200

        def json(self):
            return body

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
    cache = tmp_path / "c.jsonl"
    result = runner.invoke(main, [
        "describe", "--manifest", str(manifest), "--cache", str(cache),
        "--endpoint", "http://h", "--chat-model", "vision",
    ])
    assert result.exit_code == 0, result.output
    assert "described 1, cached 0, ingested 0" in result.output
    record = json.loads(cache.read_text().splitlines()[0])
    assert record["text"] == "a woodcut of the flood"
    assert record["model_id"] == "vision"


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

    args = _classify_args(workspace, tmp_path / "y")
    args.remove("--offline")
    args += ["--endpoint", "http://h", "--embed-model", "embed"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "built with embedder 'offline-hash-64'" in result.output
    assert "'remote:embed'" in result.output


@pytest.mark.parametrize("option", ["--rag-k", "--pool", "--vote-k"])
def test_classify_rejects_k_below_one(runner, tmp_path, workspace, option):
    for value in ("0", "-1"):
        result = runner.invoke(
            main, _classify_args(workspace, tmp_path / "x", method="rag-hybrid", extra=(option, value))
        )
        assert result.exit_code == 2
        assert "Invalid value" in result.output
    assert not (tmp_path / "x.jsonl").exists()


def test_cli_import_leaves_requests_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys, iconclassify.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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


def test_classify_rag_remote_needs_chat_model(runner, tmp_path, workspace):
    result = runner.invoke(main, [
        "classify",
        "--manifest", str(FIXTURES / "manifest.csv"),
        "--method", "rag-vector",
        "--taxonomy", str(workspace / "rendered.jsonl"),
        "--index-dir", str(workspace / "index-basic"),
        "--endpoint", "http://h", "--embed-model", "embed",
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2
    assert "--endpoint and --chat-model" in result.output


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


# ---------------------------------------------------------------- config file

def test_config_file_supplies_defaults_and_flags_win(runner, tmp_path):
    preds = tmp_path / "p.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\na,73D231,73D231\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"evaluate": {"max_level": 3}}))

    result = runner.invoke(main, [
        "--config", str(config),
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r1"),
    ])
    assert result.exit_code == 0, result.output
    assert len(json.loads((tmp_path / "r1" / "report.json").read_text())["level_accuracy"]) == 3

    result = runner.invoke(main, [
        "--config", str(config),
        "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r2"),
        "--max-level", "5",
    ])
    assert result.exit_code == 0
    assert len(json.loads((tmp_path / "r2" / "report.json").read_text())["level_accuracy"]) == 5


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


def _refs_with_a_bad_code(workspace, tmp_path):
    text = '{"vector": [1, 0, 0, 0, 0, 0, 0, 0], "codes": ["71B32", "x1"]}\n'
    return _image_args(workspace, tmp_path, text), ["refs.jsonl", "line 1", "x1"]


def _cut_vectors(workspace, tmp_path):
    index = tmp_path / "index"
    index.mkdir()
    for name in ("meta.json", "keyword.json"):
        (index / name).write_bytes((workspace / "index-basic" / name).read_bytes())
    (index / "vectors.jsonl").write_text(_cut_line((workspace / "index-basic" / "vectors.jsonl").read_text(), 5))
    args = _classify_args(workspace, tmp_path / "x")
    args[args.index("--index-dir") + 1] = str(index)
    return args, ["vectors.jsonl", "line 5"]


def _config_args(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    preds = tmp_path / "p.csv"
    preds.write_text("image_id,predicted_code,ground_truth_code\na,73D231,73D231\n")
    return ["--config", str(config), "evaluate", "--predictions", str(preds), "--out", str(tmp_path / "r")]


def _bad_config(workspace, tmp_path):
    return _config_args(tmp_path, '{"evaluate": \n'), ["--config", "config.json", "Expecting value"]


def _non_object_config(workspace, tmp_path):
    return _config_args(tmp_path, '[{"evaluate": {}}]\n'), ["--config", "config.json", "object"]


def _dim_below_the_offline_minimum(workspace, tmp_path):
    return ["index", "build", "--taxonomy", str(workspace / "rendered.jsonl"),
            "--index-dir", str(tmp_path / "idx"), "--offline", "--dim", "8"], ["--dim", "x>=16"]


@pytest.mark.parametrize("case", [
    _cut_rendered_taxonomy, _cut_manifest, _cut_refs, _refs_without_codes, _refs_with_a_bad_code,
    _cut_vectors, _bad_config, _non_object_config, _dim_below_the_offline_minimum,
], ids=lambda case: case.__name__.strip("_"))
def test_malformed_input_ends_as_a_one_line_error(runner, tmp_path, workspace, case):
    args, needles = case(workspace, tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), repr(result.exception)  # not an uncaught error
    assert "Traceback" not in result.output
    for needle in needles:
        assert needle in result.output
    assert not (tmp_path / "x.jsonl").exists()
