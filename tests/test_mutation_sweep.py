"""A seeded mutation sweep over every input file the fixture flow reads.

Each case copies one input, mutates it once (a cut, invalid UTF-8, a NUL
byte, a flipped byte, a stray quote, a changed delimiter, or a number
replaced by 1e999) and runs the command that reads it through CliRunner.
A second, exhaustive pass replaces every input with one deeply nested JSON
value and gives every index array each header that claims other than its
data. Every run must end one of three ways: exit 0, exit 1 with one `Error:`
line, or exit 2 for a click usage error. No other exception may escape,
and no warning may be raised on the way (Miller, Fredriksen & So, CACM 1990).
"""

import io
import random
import re
import shutil
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from iconclassify.cli import main

from conftest import FIXTURES, npy_claiming

SEED = 1990
CASES = 300
DIM = "64"


def _mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One random mutation of `data`, with its name."""
    kind = rng.choice(["cut", "invalid utf-8", "nul", "flip", "quote", "delimiter", "1e999"])
    at = rng.randrange(len(data) + 1)
    if kind == "cut":
        return kind, data[:at]
    if kind == "flip" and data:
        at = min(at, len(data) - 1)
        return kind, data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind == "delimiter":
        spots = [m.start() for m in re.finditer(rb"[,\t:\n]", data)]
        if spots:
            at = rng.choice(spots)
            return kind, data[:at] + rng.choice([b",", b"\t", b":", b";", b" "]) + data[at + 1:]
    if kind == "1e999":
        numbers = list(re.finditer(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", data))
        if numbers:
            m = rng.choice(numbers)
            return kind, data[:m.start()] + b"1e999" + data[m.end():]
    inserted = {"invalid utf-8": b"\xff", "nul": b"\x00", "quote": b'"'}.get(kind, b"1e999")
    return kind, data[:at] + inserted + data[at:]


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The files of one fixture flow: rendered taxonomy, an index, a description cache and predictions."""
    root = tmp_path_factory.mktemp("flow")
    runner = CliRunner()
    for args in (
        ["taxonomy", "build", "--taxonomy", str(FIXTURES / "taxonomy.tsv"), "--out", str(root / "rendered.jsonl")],
        ["index", "build", "--taxonomy", str(root / "rendered.jsonl"), "--index-dir", str(root / "index"),
         "--offline", "--dim", DIM],
        ["describe", "--manifest", str(FIXTURES / "manifest.csv"), "--mode", "page",
         "--cache", str(root / "desc.jsonl"), "--offline"],
        _classify(root, root / "manifest.csv", "hybrid", out="pred"),
    ):
        if args[0] == "classify":
            shutil.copy(FIXTURES / "manifest.csv", root)
            shutil.copytree(FIXTURES / "vectors", root / "vectors")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    return root


def _classify(work, manifest, method, out="out"):
    """classify args over the files in `work`, which a case may have mutated."""
    args = ["classify", "--manifest", str(manifest), "--method", method, "--mode", "page",
            "--taxonomy", str(work / "rendered.jsonl"), "--cache", str(work / "desc.jsonl"), "--offline",
            "--out", str(work / out)]
    if method == "image":
        return [*args, "--refs", str(work / "refs.jsonl")]
    return [*args, "--index-dir", str(work / "index")]


# each input the flow reads -> the commands that read it, given the case's directory
_READERS = {
    "taxonomy.tsv": lambda w: [["taxonomy", "build", "--taxonomy", str(w / "taxonomy.tsv"),
                                "--out", str(w / "out.jsonl")]],
    "rendered.jsonl": lambda w: [["index", "build", "--taxonomy", str(w / "rendered.jsonl"),
                                  "--index-dir", str(w / "out-index"), "--offline", "--dim", DIM],
                                 _classify(w, FIXTURES / "manifest.csv", "keyword")],
    "manifest.csv": lambda w: [["describe", "--manifest", str(w / "manifest.csv"), "--mode", "page",
                                "--cache", str(w / "desc.jsonl"), "--offline"],
                               _classify(w, w / "manifest.csv", "image")],
    "vectors/img001.json": lambda w: [_classify(w, w / "manifest.csv", "image")],
    "refs.jsonl": lambda w: [_classify(w, w / "manifest.csv", "image")],
    "desc.jsonl": lambda w: [_classify(w, w / "manifest.csv", "hybrid"),
                             ["describe", "--manifest", str(w / "manifest.csv"), "--mode", "page",
                              "--cache", str(w / "desc.jsonl"), "--offline"]],
    "pred.csv": lambda w: [["evaluate", "--predictions", str(w / "pred.csv"), "--out", str(w / "report")]],
    **{f"index/{name}": lambda w: [_classify(w, w / "manifest.csv", "hybrid")]
       for name in ("meta.json", "keyword.json", "keyword-offsets.npy", "keyword-rows.npy", "keyword-tfs.npy",
                    "keyword-lengths.npy", "vectors.jsonl", "vectors.npy")},
}


def _outcome(result) -> str:
    """'' for an allowed ending, else what went wrong."""
    if result.exit_code == 0 and result.exception is None:
        return ""
    if not isinstance(result.exception, SystemExit):
        return f"escaped: {result.exception!r}"
    errors = result.output.count("Error:")
    if result.exit_code == 1 and errors == 1 and "Traceback" not in result.output:
        return ""
    if result.exit_code == 2 and "Usage:" in result.output:
        return ""
    return f"exit {result.exit_code} with {errors} Error: lines"


def _problem(runner, args) -> str:
    """'' if the command ends in an allowed way and warns of nothing, else what went wrong."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _outcome(runner.invoke(main, args))
    return "; ".join(filter(None, [outcome, *(f"warned {w.category.__name__}: {w.message}" for w in caught)]))


def _copy_flow(flow, work):
    shutil.copytree(flow, work, ignore=shutil.ignore_patterns("pred.jsonl", "pred.meta.json"))
    for name in ("taxonomy.tsv", "refs.jsonl"):
        shutil.copy(FIXTURES / name, work)


def test_every_reader_succeeds_on_the_unmutated_flow(flow, tmp_path):
    # else a mistake in the sweep's own arguments would pass as a usage error
    _copy_flow(flow, tmp_path / "work")
    runner = CliRunner()
    for target, readers in _READERS.items():
        for args in readers(tmp_path / "work"):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, f"{target}: {args}\n{result.output}"


def test_every_mutated_input_ends_as_success_or_one_line_error(flow, tmp_path):
    work = tmp_path / "work"
    _copy_flow(flow, work)
    inputs = sorted(_READERS)
    originals = {name: (work / name).read_bytes() for name in inputs}
    rng = random.Random(SEED)
    runner = CliRunner()
    failures = []
    for case in range(CASES):
        target = rng.choice(inputs)
        kind, data = _mutate(originals[target], rng)
        (work / target).write_bytes(data)
        args = rng.choice(_READERS[target](work))
        problem = _problem(runner, args)
        if problem:
            failures.append(f"case {case}: {kind} in {target}, {' '.join(args[:2])}: {problem}")
        for name, original in originals.items():  # describe appends to its cache, so every input is put back
            (work / name).write_bytes(original)
    assert not failures, "\n".join(failures)


_DEEP = b"[" * 100_000 + b"]" * 100_000 + b"\n"  # one value nested deeper than the json decoder recurses


def _header_mutations(npy: bytes) -> dict[str, bytes]:
    """Each way a .npy file's header can claim other than the data that follows it, by name."""
    array = np.load(io.BytesIO(npy))
    return {
        "2**40 rows": npy_claiming(npy, shape=(2**40, *array.shape[1:])),
        "no rows": npy_claiming(npy, shape=(0, *array.shape[1:])),
        "another rank": npy_claiming(npy, shape=(*array.shape, 1)),
        "a one-byte dtype": npy_claiming(npy, descr="|u1"),
        "the other byte order": npy_claiming(npy, descr=array.dtype.newbyteorder().str),
        "Fortran order": npy_claiming(npy, fortran_order=True),
        "version 2.0": npy[:6] + b"\x02" + npy[7:],
        "a header past the end": npy[:8] + b"\xff\xff" + npy[10:],
        "a trailing byte": npy + b"\0",
    }


def test_deep_json_and_every_npy_header_mutation_end_as_success_or_one_line_error(flow, tmp_path):
    work = tmp_path / "work"
    _copy_flow(flow, work)
    originals = {name: (work / name).read_bytes() for name in _READERS}
    cases = [(name, "deep JSON", _DEEP) for name in sorted(_READERS)]
    cases += [(name, kind, data) for name in sorted(_READERS) if name.endswith(".npy")
              for kind, data in _header_mutations(originals[name]).items()]
    runner = CliRunner()
    failures = []
    for target, kind, data in cases:
        (work / target).write_bytes(data)
        for args in _READERS[target](work):
            problem = _problem(runner, args)
            if problem:
                failures.append(f"{kind} in {target}, {' '.join(args[:2])}: {problem}")
        for name, original in originals.items():  # describe appends to its cache, so every input is put back
            (work / name).write_bytes(original)
    assert len(cases) == len(_READERS) + 5 * 9
    assert not failures, "\n".join(failures)
