"""The repository's benchmark: three workloads over a synthetic paper-scale corpus.

    python3 benchmarks/run.py --workload <build|classify-cli|query> --seed <n> \\
        --seconds <s> --trace <0|1> [--toy]

Run it from the repository root. The corpus is generated offline from
`--seed` (12.6k taxonomy entries, 400 manifest rows, 5k x 512-d reference
vectors); the program only ever sees the generated files. Child commands
run one at a time with `--workers 1`. The read-path workloads first run
`taxonomy build` and `index build` as untimed set-up.

Workloads, and why each exists:
- build: the write path (`taxonomy build`, then `index build`); rendering,
  BM25 build, embedding every document and `save_index` do nearly all the
  work and no query runs.
- classify-cli: the cold read path, the CLI flow `describe`, `classify`
  (hybrid, rag-hybrid, image) and `evaluate` over a few dozen rows; each
  `classify` reloads its artifacts, so index, reference and JSONL loading
  dominate and query work is small.
- query: the warm read path, `pipeline.classify` in one process in a closed
  loop with one client; search, fusion, embedding, selection and voting do
  nearly all the work and nothing is written or reloaded.

End-to-end metrics (`--trace 0`), each reported by every workload:
- setup_s: median of several set-ups in the run. For the CLI workloads that
  is a fresh interpreter importing `iconclassify.cli`, which every child
  command pays, timed before and again after the measured work; for query
  it is loading the index, references, rendered taxonomy and description
  cache.
- peak_rss_mb: the largest peak RSS of a measured process (each child's own,
  from wait4; for query the measuring process, read before its checks).
- ok_frac: operations and checks that succeeded over those attempted.
- index_mb: size on disk of the index the workload builds or reads.
- flow_s: median wall time of the workload's unit of work: one
  `taxonomy build` plus `index build` (build, at least two in a run, as one
  alone spreads too widely), one CLI flow (classify-cli),
  one manifest row through all five methods (query).

With `--trace 1` the work is also replayed in-process under the tracer
(`tracing.py`) and the last line holds the per-layer metrics, including the
tracing overhead (traced minus untraced time of the same replay). Outputs
are checked against oracles outside every timed region; each mismatch counts
as a failed operation. Details of each run (per-method p50 and p90 with
their sample counts, check counts, output digests, machine facts) go to
`.bench_out/`, scratch files to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Text vectors are 512-d rather than the paper's 1536-d: at 1536-d the JSON
# index makes every run about 1.6x longer, which the run budget does not allow.
# For the same reason the query loop runs 50 rows per method, not 100.
PAPER = {"dim": 512, "cli_rows": 24, "min_cycles": 50, "trace_cycles": 20, "check_rows": 6}
TOY = {"dim": 32, "cli_rows": 8, "min_cycles": 12, "trace_cycles": 4, "check_rows": 4}
IMPORTS = 3  # fresh-interpreter imports timed, after one untimed, before and again after the work

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ok/attempted",
    "index_mb": "MB",
    "flow_s": "s",
}


def child_env() -> dict[str, str]:
    # provider settings are scrubbed so every command stays offline
    env = {k: v for k, v in os.environ.items() if not k.startswith("ICONCLASSIFY_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    """State of one benchmark run: scratch directory, commands, counts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, toy: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.sizes = TOY if toy else PAPER
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.corpus = self.work / "corpus"
        self.commands: list[dict] = []  # every child command: name, wall, rss, exit code
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.notes: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.checks += 1
        if not ok:
            self.fail(what)

    def child(self, name: str, argv: list[str]) -> dict:
        """Run one command to completion; its own peak RSS comes from wait4."""
        log = self.work / "logs" / f"{len(self.commands):03d}-{name}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"name": name, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss * 1024 / 1e6,
                  "exit": proc.returncode, "log": str(log)}
        self.commands.append(record)
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(f"{name} exited {proc.returncode}: {log.read_text(errors='replace')[-2000:]}")
        return record

    def cli(self, name: str, args: list[str]) -> dict:
        return self.child(name, [sys.executable, "-m", "iconclassify.cli", *args])

    def run_commands(self, commands: list[tuple[str, list[str]]]) -> tuple[float, list[dict]]:
        start = time.perf_counter()
        records = [self.cli(name, args) for name, args in commands]
        return time.perf_counter() - start, records

    def import_times(self) -> list[float]:
        """IMPORTS fresh interpreters importing the CLI, after an untimed one
        (the first ever also writes the bytecode cache)."""
        argv = [sys.executable, "-c", "import iconclassify.cli"]
        walls = [self.child("import", argv)["wall_s"] for _ in range(IMPORTS + 1)]
        return walls[1:]


def build_commands(corpus: Path, out: Path, dim: int) -> list[tuple[str, list[str]]]:
    out.mkdir(parents=True, exist_ok=True)
    return [
        ("taxonomy_build", ["taxonomy", "build", "--taxonomy", str(corpus / "taxonomy.tsv"),
                            "--out", str(out / "rendered.jsonl")]),
        ("index_build", ["index", "build", "--taxonomy", str(out / "rendered.jsonl"),
                         "--database", "hierarchical", "--index-dir", str(out / "index"),
                         "--offline", "--dim", str(dim)]),
    ]


FLOW_METHODS = ("hybrid", "rag-hybrid", "image")


def flow_commands(corpus: Path, prep: Path, manifest: Path, out: Path) -> list[tuple[str, list[str]]]:
    """describe, classify with three methods sharing one embedding cache, evaluate each."""
    out.mkdir(parents=True, exist_ok=True)
    cache = str(out / "descriptions.jsonl")
    commands = [("describe", ["describe", "--manifest", str(manifest), "--mode", "page",
                              "--cache", cache, "--offline", "--workers", "1"])]
    for method in FLOW_METHODS:
        args = ["classify", "--manifest", str(manifest), "--method", method,
                "--taxonomy", str(prep / "rendered.jsonl"), "--cache", cache,
                "--offline", "--workers", "1", "--out", str(out / f"pred-{method}")]
        if method == "image":
            args += ["--mode", "illustration", "--refs", str(corpus / "refs.jsonl")]
        else:
            args += ["--mode", "page", "--database", "hierarchical", "--index-dir", str(prep / "index"),
                     "--embed-cache", str(out / "embeddings.jsonl")]
        commands.append(("classify", args))
    for method in FLOW_METHODS:
        commands.append(("evaluate", ["evaluate", "--predictions", str(out / f"pred-{method}.csv"),
                                      "--out", str(out / f"report-{method}"), "--label", method]))
    return commands


def _normalized(path: Path) -> bytes:
    """File bytes, with creation timestamps (index meta, description cache) removed."""
    data = path.read_bytes()
    if path.name == "meta.json" or path.name == "descriptions.jsonl":
        records = [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()] \
            if path.suffix == ".jsonl" else [json.loads(data)]
        for rec in records:
            rec.pop("created_at", None)
        return json.dumps(records, sort_keys=True).encode("utf-8")
    return data


def output_differences(a: Path, b: Path) -> list[str]:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"file lists differ: {sorted(set(files_a) ^ set(files_b))}"]
    return [str(rel) for rel in files_a if _normalized(a / rel) != _normalized(b / rel)]


def outputs_digest(root: Path, names: list[str]) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(_normalized(root / name))
    return digest.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def replay(commands: list[tuple[str, list[str]]]) -> tuple[float, list[str]]:
    """Run the commands in this process through `iconclassify.cli.main`."""
    from iconclassify import cli

    errors = []
    start = time.perf_counter()
    for name, args in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main.main(args, standalone_mode=False)
            except (Exception, SystemExit) as exc:  # a failed command is counted, not fatal
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, errors


def trace_commands(run: Run, commands_for, untraced_out: Path) -> dict[str, float]:
    """Replay untraced, then traced, in this process; the traced outputs must
    equal those of the child commands. Returns the per-layer metrics."""
    from tracing import Tracer, per_layer_metrics

    commands = commands_for(run.work / "replay")
    plain_s, errors = replay(commands)
    tracer = Tracer()
    with tracer:
        traced_s, traced_errors = replay(commands_for(run.work / "traced"))
    tracer.write(ROOT / ".bench_out" / f"spans-{run.workload}-seed{run.seed}.json")
    run.attempted += 2 * len(commands)
    for err in errors + traced_errors:
        run.fail(err)
    diffs = output_differences(untraced_out, run.work / "traced")
    run.check(not diffs, f"traced outputs differ from untraced: {diffs}")
    return per_layer_metrics(tracer, {"trace.overhead_s": traced_s - plain_s})


def command_walls(records: list[dict]) -> dict[str, float]:
    walls: dict[str, float] = {}
    for rec in records:
        walls[f"cli.{rec['name']}_s"] = walls.get(f"cli.{rec['name']}_s", 0.0) + rec["wall_s"]
    return walls


def read_rendered(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return {rec["code"]: rec["hierarchical"] for rec in map(json.loads, fh)}


def check_index(run: Run, out: Path) -> None:
    """`load_index` reproduces the index built in memory from the same documents."""
    from iconclassify import retrieval
    import oracles

    docs = read_rendered(out / "rendered.jsonl")
    meta = json.loads((out / "rendered.jsonl.meta.json").read_text(encoding="utf-8"))
    raw_lines = (run.corpus / "taxonomy.tsv").read_text(encoding="utf-8").splitlines()
    kept = [line.split("\t", 1)[0] for line in raw_lines if line[0] in "17"]
    run.check(list(docs) == kept and meta["filtered"] == len(raw_lines) - len(kept) > 0,
              "rendered taxonomy does not hold exactly the entries under 1 and 7")
    kw, vec, _ = retrieval.load_index(out / "index")
    problems = oracles.index_mismatches(kw, vec, docs, run.sizes["dim"])
    run.check(not problems, f"loaded index differs from the in-memory one: {problems}")


def ops_until(run: Run, minimum: int, op) -> list:
    """Repeat `op` at least `minimum` times, and then while another one of
    the same length still ends within the run's seconds."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= run.seconds:
        t0 = time.perf_counter()
        results.append(op(len(results)))
        last = time.perf_counter() - t0
    return results


def prepare(run: Run, out: Path) -> float:
    """Untimed set-up of the read-path workloads: `taxonomy build` and
    `index build` as child commands; returns the index size in MB."""
    run.run_commands(build_commands(run.corpus, out, run.sizes["dim"]))
    return dir_bytes(out / "index") / 1e6


def workload_build(run: Run) -> tuple[dict, dict]:
    imports = run.import_times()

    def op(k: int):
        out = run.work / f"build-{k}"
        wall, records = run.run_commands(build_commands(run.corpus, out, run.sizes["dim"]))
        if k:
            diffs = output_differences(run.work / "build-0", out)
            run.check(not diffs, f"build {k} differs from build 0: {diffs}")
            shutil.rmtree(out)
        return wall, records

    ops = ops_until(run, 2, op)
    imports += run.import_times()
    first = run.work / "build-0"
    check_index(run, first)
    index_bytes = dir_bytes(first / "index")
    measured = [rec for _, records in ops for rec in records]
    metrics = {
        "setup_s": statistics.median(imports),
        "peak_rss_mb": max(rec["rss_mb"] for rec in measured),
        "index_mb": index_bytes / 1e6,
        "flow_s": statistics.median(wall for wall, _ in ops),
    }
    details = {"builds": len(ops), "build_walls_s": [wall for wall, _ in ops],
               "outputs_sha256": outputs_digest(first, ["rendered.jsonl", "index/keyword.json", "index/vectors.jsonl"])}
    if run.trace:
        extra = {"cli.import_s": statistics.median(imports), "retrieval.index_bytes": index_bytes,
                 **command_walls(ops[0][1])}
        layers = trace_commands(run, lambda out: build_commands(run.corpus, out, run.sizes["dim"]), first)
        return merge(layers, extra), details
    return metrics, details


def workload_classify_cli(run: Run) -> tuple[dict, dict]:
    from iconclassify import pipeline, providers, retrieval
    from iconclassify.pipeline import ClassifyContext
    from iconclassify.taxonomy import DatabaseKind

    prep = run.work / "prep"
    index_mb = prepare(run, prep)
    manifest = run.corpus / "manifest-cli.csv"
    with open(run.corpus / "manifest.csv", encoding="utf-8") as fh:
        manifest.write_text("".join(fh.readlines()[: run.sizes["cli_rows"] + 1]), encoding="utf-8")
    imports = run.import_times()

    def commands_for(out: Path):
        return flow_commands(run.corpus, prep, manifest, out)

    def op(k: int):
        out = run.work / f"flow-{k}"
        wall, records = run.run_commands(commands_for(out))
        for method in FLOW_METHODS:
            meta = json.loads((out / f"pred-{method}.meta.json").read_text(encoding="utf-8"))
            run.check(meta["errors"] == [] and meta["predictions"] == run.sizes["cli_rows"],
                      f"flow {k} {method}: item errors {meta['errors'][:3]}")
        if k:
            diffs = output_differences(run.work / "flow-0", out)
            run.check(not diffs, f"flow {k} differs from flow 0: {diffs}")
            shutil.rmtree(out)
        return wall, records

    ops = ops_until(run, 1, op)
    imports += run.import_times()
    first = run.work / "flow-0"

    # the CLI's predictions equal what pipeline.classify returns for the same rows
    rows = pipeline.read_manifest(manifest)[: run.sizes["check_rows"]]
    kw, vec, _ = retrieval.load_index(prep / "index")
    ctx = ClassifyContext(documents=read_rendered(prep / "rendered.jsonl"), keyword_index=kw, vector_index=vec,
                          embedder=providers.OfflineHashEmbedder(dim=vec.dim),
                          description_cache=providers.DescriptionCache(first / "descriptions.jsonl"),
                          references=retrieval.ImageReferenceSet.from_jsonl(run.corpus / "refs.jsonl"))
    for method in FLOW_METHODS:
        mode, database = ("illustration", "basic") if method == "image" else ("page", "hierarchical")
        spec = pipeline.MethodSpec(pipeline.QueryKind(method), providers.DescriptionMode(mode),
                                   DatabaseKind(database))
        expected = run.work / f"expected-{method}.jsonl"
        pipeline.write_predictions_jsonl([pipeline.classify(row, spec, ctx) for row in rows], expected)
        cli_lines = (first / f"pred-{method}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        run.check(cli_lines[: len(rows)] == expected.read_text(encoding="utf-8").splitlines(keepends=True),
                  f"classify {method}: CLI predictions differ from pipeline.classify")

    measured = [rec for _, records in ops for rec in records]
    metrics = {
        "setup_s": statistics.median(imports),
        "peak_rss_mb": max(rec["rss_mb"] for rec in measured),
        "index_mb": index_mb,
        "flow_s": statistics.median(wall for wall, _ in ops),
    }
    names = [f"pred-{m}{suffix}" for m in FLOW_METHODS for suffix in (".jsonl", ".csv", ".meta.json")]
    details = {"flows": len(ops), "flow_walls_s": [wall for wall, _ in ops],
               "commands_s": command_walls(ops[0][1]), "outputs_sha256": outputs_digest(first, names)}
    if run.trace:
        extra = {"cli.import_s": statistics.median(imports), "retrieval.index_bytes": index_mb * 1e6,
                 **command_walls(ops[0][1])}
        return merge(trace_commands(run, commands_for, first), extra), details
    return metrics, details


def workload_query(run: Run) -> tuple[dict, dict]:
    prep = run.work / "prep"
    index_mb = prepare(run, prep)
    run.cli("describe", ["describe", "--manifest", str(run.corpus / "manifest.csv"), "--mode", "page",
                         "--cache", str(prep / "descriptions.jsonl"), "--offline", "--workers", "1"])
    cycles = run.sizes["trace_cycles" if run.trace else "min_cycles"]
    argv = [sys.executable, str(HERE / "query.py"), "--corpus", str(run.corpus), "--prep", str(prep),
            "--seconds", str(run.seconds), "--min-cycles", str(cycles)]
    if run.trace:
        argv += ["--trace", str(ROOT / ".bench_out" / f"spans-{run.workload}-seed{run.seed}.json")]
    record = run.child("query", argv)
    if record["exit"] != 0:
        raise RuntimeError(f"the query process failed; see {record['log']}")
    result = json.loads(Path(record["log"]).read_text(encoding="utf-8").splitlines()[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    if run.trace:
        walls = command_walls(run.commands)
        imports = run.import_times()
        extra = {**walls, "cli.import_s": statistics.median(imports), "retrieval.index_bytes": index_mb * 1e6}
        return merge(result["metrics"], extra), {}
    run.checks += result["checks"]
    metrics = {
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "index_mb": index_mb,
        "flow_s": result["cycle_s"],
    }
    return metrics, {k: result[k] for k in ("cycles", "loop_s", "check_s", "methods", "setup_runs_s", "checks")}


def merge(layers: dict[str, dict], extra: dict[str, float]) -> dict[str, float]:
    values = {name: metric["value"] for name, metric in layers.items()}
    values.update({name: value for name, value in extra.items() if name in values})
    return values


WORKLOADS = {"build": workload_build, "classify-cli": workload_classify_cli, "query": workload_query}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args()

    if not (SRC / "iconclassify" / "cli.py").is_file():
        print(f"no program source at {SRC / 'iconclassify'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    for name in [k for k in os.environ if k.startswith("ICONCLASSIFY_")]:
        del os.environ[name]
    import corpus

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    try:
        corpus.generate(run.corpus, args.seed, corpus.TOY if args.toy else corpus.PAPER)
        values, details = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if args.trace:
        from tracing import PER_LAYER

        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values["ok_frac"] = 1.0 - run.failed / run.attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "toy": args.toy,
              "machine": machine(), "metrics": metrics, "attempted": run.attempted, "failed": run.failed,
              "checks": run.checks, "failures": run.notes, "details": details,
              "commands": [{k: v for k, v in c.items() if k != "log"} for c in run.commands]}
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {run.attempted} attempted, {run.failed} failed, "
          f"{run.checks} checks; details in {out.relative_to(ROOT)}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
