"""Deterministic synthetic corpus at paper scale, generated offline from a seed.

The corpus has four parts, all written as the files the CLI reads:

- `taxonomy.tsv`: a raw Iconclass-like taxonomy under top levels 1 and 7,
  plus a few entries under other top levels that the default prefix filter
  drops. Every ancestor of every code exists, codes go up to 9 levels deep,
  and a share of them carry `(NAME)` qualifiers and `(+digits)` keys. Texts
  are drawn from a Zipf-distributed vocabulary, so BM25 posting lists have
  the long head real text has.
- `manifest.csv`: rows whose ground truths are taxonomy codes. Each row has
  a page description of tens of words mixing the ground truth's text with
  other vocabulary, and a `vector_path` to a query vector.
- `vectors/<image_id>.json`: one query vector per manifest row.
- `refs.jsonl`: reference vectors, each carrying 1-3 codes.

The same seed and sizes give the same bytes.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DIGITS = "0123456789"
_LETTERS = "ABCDEFGHIKLMNOPQRSTUVWXYZ"  # Iconclass skips J
_ONSETS = ["b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v",
           "br", "cr", "fl", "gr", "pr", "st", "tr", "ch", "sh", "th"]
_VOWELS = ["a", "e", "i", "o", "u", "ae", "ou", "ie"]
_CODAS = ["", "", "n", "r", "s", "l", "m", "st", "nd", "rk"]
# Assumption, not measured from Iconclass: an exponent below English text's
# ~1, so that the head words are frequent but a query's long tail of rarer
# words still reaches many documents.
_ZIPF_S = 0.8


@dataclass(frozen=True)
class Sizes:
    entries: int = 12600  # entries kept by the default prefix filter
    filtered: int = 40  # entries under other top levels
    vocabulary: int = 20000
    rows: int = 400  # manifest rows
    refs: int = 5000
    ref_labels: int = 600  # distinct codes the references and ground truths use
    image_dim: int = 512


PAPER = Sizes()
TOY = Sizes(entries=300, filtered=6, vocabulary=800, rows=40, refs=200, ref_labels=30, image_dim=32)


def _vocabulary(rng: random.Random, n: int) -> list[str]:
    """Distinct pseudo-words, shortest first, so that the frequent words are
    the short ones (as in real text) and text lengths vary little by seed."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))
        ) + rng.choice(_CODAS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return sorted(words, key=len)


class _Zipf:
    """Draws words with probability proportional to 1 / rank**s."""

    def __init__(self, words: list[str]):
        self.words = words
        self.five_letter = [w for w in words if len(w) == 5]
        self.cum = list(itertools.accumulate(1.0 / (r ** _ZIPF_S) for r in range(1, len(words) + 1)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        total = self.cum[-1]
        return [self.words[bisect.bisect(self.cum, rng.random() * total)] for _ in range(k)]


def _levels(code: str) -> int:
    levels = 0
    i = 0
    while i < len(code):
        if code[i] == "(":
            end = code.index(")", i)
            inner = code[i + 1 : end]
            levels += len(inner) - 1 if inner.startswith("+") else 1
            i = end + 1
        else:
            levels += 1
            i += 1
    return levels


def _child(rng: random.Random, parent: str, names: list[str]) -> str:
    """One candidate child notation of `parent`, one level deeper."""
    if parent.endswith(")") and "(+" in parent:
        key = parent[parent.rindex("(+") + 2 : -1]
        if len(key) < 3:
            return parent[:-1] + rng.choice(_DIGITS) + ")"
        return parent + rng.choice(_DIGITS)
    depth = _levels(parent)
    if depth == 1:
        return parent + rng.choice(_DIGITS)
    if depth == 2:
        return parent + rng.choice(_LETTERS)
    roll = rng.random()
    if roll < 0.08 and "(" not in parent:
        return parent + "(" + rng.choice(names) + ")"
    if roll < 0.18:
        return parent + "(+" + rng.choice(_DIGITS) + ")"
    return parent + rng.choice(_DIGITS)


# Entries per depth (levels 1-9) at paper scale. Assumption, not taken from a
# published Iconclass count: few entries near the top, most at depths 5-8.
# Fixing the profile keeps document lengths steady from seed to seed.
_DEPTH_PROFILE = (2, 10, 100, 470, 1440, 2840, 3390, 2850, 1498)


def _depth_counts(total: int, roots: int) -> list[int]:
    scale = (total - roots) / sum(_DEPTH_PROFILE[1:])
    counts = [roots] + [max(1, round(share * scale)) for share in _DEPTH_PROFILE[1:]]
    counts[-1] += total - sum(counts)
    return counts


def _grow(rng: random.Random, roots: list[str], count: int, names: list[str]) -> list[str]:
    """A tree of `count` codes under `roots` in which every ancestor exists."""
    codes = list(roots)
    known = set(codes)
    parents = list(roots)
    for wanted in _depth_counts(count, len(roots))[1:]:
        level: list[str] = []
        while len(level) < wanted:
            child = _child(rng, rng.choice(parents), names)
            if child not in known:
                known.add(child)
                level.append(child)
        codes.extend(level)
        parents = level
    return codes


def _text(rng: random.Random, zipf: _Zipf, depth: int) -> str:
    if depth <= 2:
        # every descendant repeats these texts; a fixed length keeps the
        # rendered documents the same size from seed to seed
        words = [rng.choice(zipf.five_letter) for _ in range(3)]
    else:
        words = zipf.draw(rng, rng.randint(2, 8))
    words[0] = words[0].capitalize()
    return " ".join(words)


def _unit_rows(gen: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = gen.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _vector_text(vec: np.ndarray) -> list[float]:
    # six decimals keep the files small; the rounded value is the exact input
    return np.round(vec, 6).tolist()


def generate(out_dir: Path, seed: int, sizes: Sizes = PAPER) -> None:
    """Write the corpus for `seed` under `out_dir`."""
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    zipf = _Zipf(_vocabulary(rng, sizes.vocabulary))
    names = sorted({w.upper() for w in zipf.words[200:400]})

    kept = _grow(rng, ["1", "7"], sizes.entries, names)
    dropped = _grow(rng, ["2", "4"], sizes.filtered, names)
    texts = {code: _text(rng, zipf, _levels(code)) for code in kept + dropped}
    with open(out_dir / "taxonomy.tsv", "w", encoding="utf-8") as fh:
        for code in sorted(texts):
            fh.write(f"{code}\t{texts[code]}\n")

    # references and query vectors cluster around one centroid per label code
    deep = [c for c in kept if _levels(c) >= 3]
    labels = rng.sample(deep, min(sizes.ref_labels, len(deep)))
    centroids = _unit_rows(gen, len(labels), sizes.image_dim)
    noise = 0.8 / np.sqrt(sizes.image_dim)
    with open(out_dir / "refs.jsonl", "w", encoding="utf-8") as fh:
        for _ in range(sizes.refs):
            picks = rng.sample(range(len(labels)), rng.randint(1, 3))
            vec = centroids[picks[0]] + noise * gen.standard_normal(sizes.image_dim)
            record = {"vector": _vector_text(vec), "codes": [labels[p] for p in picks]}
            fh.write(json.dumps(record) + "\n")

    vec_dir = out_dir / "vectors"
    vec_dir.mkdir(exist_ok=True)
    with open(out_dir / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "ground_truth", "vector_path", "description", "group"])
        for i in range(sizes.rows):
            image_id = f"img{i:05d}"
            label = rng.randrange(len(labels))
            truth = labels[label]
            words = texts[truth].lower().split() + zipf.draw(rng, rng.randint(15, 30))
            rng.shuffle(words)
            vec = centroids[label] + 1.2 * noise * gen.standard_normal(sizes.image_dim)
            (vec_dir / f"{image_id}.json").write_text(json.dumps(_vector_text(vec)) + "\n", encoding="utf-8")
            writer.writerow([image_id, truth, f"vectors/{image_id}.json",
                             " ".join(words).capitalize() + ".", f"set-{i % 4}"])

