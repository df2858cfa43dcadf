import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import requests

from iconclassify.errors import (
    DimMismatchError,
    EmptyResponseError,
    EmptyTextError,
    MalformedLineError,
    ProviderUnavailableError,
    ZeroVectorError,
)
from iconclassify.providers import (
    _EMBED_CHUNK,
    _EMBED_SLICE,
    DescriptionCache,
    DescriptionMode,
    DescriptionRecord,
    EmbeddingCache,
    OfflineHashEmbedder,
    RemoteProvider,
    _sniff_mime,
    build_selection_prompt,
    describe_image,
    embed_many,
    embed_text,
    now_iso,
    offline_embed,
    offline_select,
    prompt_for_mode,
    select_with_llm,
)
from iconclassify.retrieval import cosine_distance
from iconclassify.taxonomy import parse_code

PNG_STUB = b"\x89PNG\r\n\x1a\n" + b"\x00" * 16


class CountingChat:
    """ChatProvider fake that records prompts and plays back canned replies."""

    def __init__(self, replies=("a woodcut of Noah's ark",)):
        self.model_id = "fake-chat"
        self.calls = 0
        self.prompts = []
        self.images = []
        self._replies = list(replies)

    def complete(self, prompt, image_bytes=None):
        self.prompts.append(prompt)
        self.images.append(image_bytes)
        reply = self._replies[min(self.calls, len(self._replies) - 1)]
        self.calls += 1
        return reply


class CountingEmbedder:
    provider_id = "fake-embed"

    def __init__(self, dim=4):
        self.dim = dim
        self.calls = 0
        self.batches = []

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        self.calls += 1
        self.batches.append(list(texts))
        return [np.array([float(len(t)), 1.0, 0.0, 0.0]) for t in texts]


class FakeResponse:
    def __init__(self, status_code=200, body=None, headers=None):
        self.status_code = status_code
        self._body = body if body is not None else {}
        self.headers = headers or {}

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """The waits between remote attempts, recorded instead of slept."""
    waits = []
    monkeypatch.setattr("iconclassify.providers.time.sleep", waits.append)
    return waits


# ---------------------------------------------------------------- offline embedding

def test_offline_embed_is_unit_norm_and_deterministic():
    a = offline_embed("Christ washes Peter's feet")
    b = offline_embed("Christ washes Peter's feet")
    assert a.tolist() == b.tolist()
    assert len(a) == 256
    assert math.isclose(float(np.linalg.norm(a)), 1.0, abs_tol=1e-9)


def test_offline_embed_frozen_components():
    # 8 trigrams of the lowercased text land in 8 distinct buckets of a
    # 16-dim space, so every hit is +-1/sqrt(8)
    expected = [
        -0.35355339059327373, -0.35355339059327373, -0.35355339059327373,
        0.35355339059327373, 0.0, 0.0, -0.35355339059327373,
        -0.35355339059327373, 0.35355339059327373, 0.35355339059327373,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ]
    assert offline_embed("noah's ark", dim=16).tolist() == expected


def test_offline_embed_is_case_insensitive():
    assert offline_embed("NOAH'S ARK").tolist() == offline_embed("noah's ark").tolist()


def test_offline_embed_groups_related_texts():
    near = cosine_distance(offline_embed("noah ark"), offline_embed("noah's ark"))
    far = cosine_distance(offline_embed("noah ark"), offline_embed("crucifixion of christ"))
    assert near < far


def test_offline_embed_respects_dim():
    assert len(offline_embed("story of noah", dim=64)) == 64
    with pytest.raises(ValueError):
        offline_embed("story of noah", dim=8)


def test_offline_embed_rejects_short_text():
    with pytest.raises(EmptyTextError):
        offline_embed("ab")
    with pytest.raises(EmptyTextError):
        offline_embed("")


def _per_gram_embed(text, dim):
    """The reference offline embedding: one blake2b and one += per 3-gram, in text order."""
    s = text.lower()
    vec = np.zeros(dim, dtype=np.float64)
    for i in range(len(s) - 2):
        digest = hashlib.blake2b(s[i : i + 3].encode("utf-8"), digest_size=8, person=b"icx-gram").digest()
        h = int.from_bytes(digest, "big")
        vec[h % dim] += 1.0 if h < (1 << 63) else -1.0
    return vec / np.linalg.norm(vec)


def test_offline_embed_equals_the_per_gram_loop_bit_for_bit():
    long_text = "Mariä Himmelfahrt; Noah, Noah, Noah and the ark of Noah"
    # more distinct grams than buckets at dim 16, so buckets collide
    assert len({long_text.lower()[i : i + 3] for i in range(len(long_text) - 2)}) > 16
    texts = [long_text, "Mariä Himmelfahrt", "ark", "aaaaaaa", "Christ washes Peter's feet"]
    for text in texts:
        for dim in (16, 64, 512, 16):  # interleaved: one text's grams at every dim in turn
            got = offline_embed(text, dim)
            assert got.dtype == np.float64 and got.shape == (dim,)
            assert got.tobytes() == _per_gram_embed(text, dim).tobytes(), (text, dim)


# each a case the array pass could get wrong where the per-gram loop cannot
_EDGE_TEXTS = [
    "İstanbul",  # lower() makes it 9 characters
    "İs",  # 2 characters, 3 once lowered: one gram
    "Noah 𝔄rk \U0001f54a",  # code points outside the BMP
    "ark",  # exactly 3 characters
    "abab", "abab",  # joined, the grams across their boundary, "bab" and "aba", would add to theirs
    "aaah ark",  # at dim 16, "aaa" and "aah" land in one bucket with opposite signs
]


@pytest.mark.parametrize("dim", [16, 64, 512])
def test_a_batch_equals_the_per_gram_loop_bit_for_bit(dim):
    assert len("İstanbul".lower()) == 9
    rows = OfflineHashEmbedder(dim).embed_many(_EDGE_TEXTS)
    assert rows.dtype == np.float64 and rows.shape == (len(_EDGE_TEXTS), dim)
    for text, row in zip(_EDGE_TEXTS, rows):
        assert row.tobytes() == _per_gram_embed(text, dim).tobytes(), text


def test_a_batch_across_chunks_and_slices_equals_the_per_gram_loop_bit_for_bit(tmp_path):
    count = _EMBED_CHUNK + _EMBED_SLICE + 7
    texts = [f"{i} Noah's ark {chr(0x1D504 + i % 26)} İ{'ab' * (i % 5)}" for i in range(count)]
    cache = EmbeddingCache(tmp_path / "emb.jsonl")
    embedder = OfflineHashEmbedder(64)
    embed_many(texts[_EMBED_SLICE - 3 :: 97], embedder, cache)  # cached rows among the fresh ones
    rows = embed_many(texts, embedder, cache)
    assert rows.shape == (len(texts), 64)
    for text, row in zip(texts, rows):
        assert row.tobytes() == _per_gram_embed(text, 64).tobytes(), text


def _first_error(call):
    with pytest.raises((EmptyTextError, ZeroVectorError)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("texts", [
    ["noah ark", "aaah", "ab"],
    ["noah ark", "ab", "aaah"],
    ["", "aaah"],
    ["noah ark"] * (_EMBED_SLICE + 5) + ["aaah", "a"],
    ["noah ark"] * (_EMBED_SLICE + 5) + ["ab", "aaah"],
    ["aaah"] + ["noah ark"] * _EMBED_SLICE + ["ab"],
], ids=["cancel_then_short", "short_then_cancel", "empty_then_cancel", "cancel_then_short_in_slice_2",
        "short_then_cancel_in_slice_2", "cancel_in_slice_1_short_in_slice_2"])
def test_a_batch_fails_on_the_text_the_per_text_loop_fails_on_first(texts):
    embedder = OfflineHashEmbedder(16)
    per_text = _first_error(lambda: [offline_embed(t, 16) for t in texts])
    assert _first_error(lambda: embedder.embed_many(texts)) == per_text


def test_the_offline_embedder_quotes_the_text_it_refuses():
    embedder = OfflineHashEmbedder(16)
    with pytest.raises(EmptyTextError, match="^'Ox': need at least 3 characters to embed$"):
        embedder.embed_many(["noah ark", "Ox"])
    with pytest.raises(ZeroVectorError, match="^'aaah': gram signs cancel; no usable direction$"):
        embedder.embed_many(["noah ark", "aaah"])


def test_offline_hash_embedder_provider_id_and_batching():
    embedder = OfflineHashEmbedder(dim=32)
    assert embedder.provider_id == "offline-hash-32"
    outs = embedder.embed_many(["noah ark", "david goliath"])
    assert outs[0].tolist() == offline_embed("noah ark", 32).tolist()
    assert outs[1].tolist() == offline_embed("david goliath", 32).tolist()
    with pytest.raises(ValueError):
        OfflineHashEmbedder(dim=4)


# ---------------------------------------------------------------- prompts

def test_full_page_prompt_asks_for_page_context():
    prompt = prompt_for_mode(DescriptionMode.FULL_PAGE)
    for needle in ("surrounding text", "captions", "headings", "chapter numbers"):
        assert needle in prompt


def test_illustration_prompt_forbids_page_context():
    prompt = prompt_for_mode(DescriptionMode.ILLUSTRATION)
    assert "Do not refer to any surrounding page text" in prompt
    assert "chapter numbers" not in prompt


def test_selection_prompt_numbers_candidates_and_keeps_braces():
    candidates = [
        (parse_code("73D2"), "the episode of the Last Supper"),
        (parse_code("71B32"), "the building of the ark"),
    ]
    prompt = build_selection_prompt("a scene with {braces} in it", candidates)
    assert "1. 73D2: the episode of the Last Supper" in prompt
    assert "2. 71B32: the building of the ark" in prompt
    assert "a scene with {braces} in it" in prompt
    assert "{description}" not in prompt
    assert "{candidates}" not in prompt


# ---------------------------------------------------------------- describe_image

def test_describe_image_calls_provider_once_then_caches(tmp_path):
    path = tmp_path / "desc.jsonl"
    cache = DescriptionCache(path)
    chat = CountingChat()
    record = describe_image("img001", PNG_STUB, DescriptionMode.FULL_PAGE, chat)
    assert chat.calls == 1
    assert record.text == "a woodcut of Noah's ark"
    assert record.model_id == "fake-chat"
    assert record.prompt_version == "v1"
    # the mode's template went out with the image attached
    assert "chapter numbers" in chat.prompts[0]
    assert chat.images[0] == PNG_STUB
    # describe puts the record; a second one for the same (image, mode) writes nothing
    cache.put(record)
    cache.put(describe_image("img001", PNG_STUB, DescriptionMode.FULL_PAGE, CountingChat(replies=("other",))))
    assert cache.get("img001", DescriptionMode.FULL_PAGE) == record
    assert len(path.read_bytes().splitlines()) == 1
    assert DescriptionCache(path).get("img001", DescriptionMode.FULL_PAGE) == record


def test_describe_image_modes_cache_separately(tmp_path):
    path = tmp_path / "desc.jsonl"
    cache = DescriptionCache(path)
    chat = CountingChat(replies=("page view", "crop view"))
    for mode in (DescriptionMode.FULL_PAGE, DescriptionMode.ILLUSTRATION):
        cache.put(describe_image("img001", PNG_STUB, mode, chat))
    assert chat.calls == 2
    for served in (cache, DescriptionCache(path)):
        assert len(served) == 2
        assert served.get("img001", DescriptionMode.FULL_PAGE).text == "page view"
        assert served.get("img001", DescriptionMode.ILLUSTRATION).text == "crop view"


def test_describe_image_rejects_empty_inputs(tmp_path):
    with pytest.raises(ValueError):
        describe_image("x", b"", DescriptionMode.FULL_PAGE, CountingChat())
    with pytest.raises(EmptyResponseError):
        describe_image("x", PNG_STUB, DescriptionMode.FULL_PAGE, CountingChat(replies=("   ",)))


def test_description_cache_persists_and_first_record_wins(tmp_path):
    path = tmp_path / "desc.jsonl"
    cache = DescriptionCache(path)
    rec = DescriptionRecord(
        image_id="img002", mode=DescriptionMode.ILLUSTRATION,
        text="David with a sling", model_id="m", created_at=now_iso(),
    )
    cache.put(rec)
    cache.put(DescriptionRecord(
        image_id="img002", mode=DescriptionMode.ILLUSTRATION,
        text="overwritten?", model_id="m", created_at=now_iso(),
    ))
    reloaded = DescriptionCache(path)
    assert len(reloaded) == 1
    assert reloaded.get("img002", DescriptionMode.ILLUSTRATION).text == "David with a sling"
    # only one line was ever appended
    assert len(path.read_text().strip().splitlines()) == 1


def _refused_put_writes_nothing(kind, path, put_bad, get_bad, error, match=None):
    """A put that a load of its line would refuse raises `error`, writes nothing and serves nothing, and a fresh
    load still reads the record put before it."""
    make, put, get = CACHES[kind]
    cache = make(path)
    put(cache, 2)
    written = path.read_bytes()
    with pytest.raises(error, match=match):
        put_bad(cache)
    assert path.read_bytes() == written
    assert get_bad(cache) is None and len(cache) == 1
    reloaded = make(path)
    assert len(reloaded) == 1 and get(reloaded, 2) is not None


@pytest.mark.parametrize("field, value, side", [
    pytest.param(field, value, side, id=f"{field}-{value}" + "-put" * (side == "put"))
    for side in ("load", "put") for field, value in [("text", 5), ("text", None), ("image_id", 7), ("model_id", 5),
                                                     ("created_at", 5), ("prompt_version", None)]
])
def test_description_cache_rejects_a_text_field_that_is_not_a_string(tmp_path, field, value, side):
    record = {"image_id": "img1", "mode": "page", "text": "the ark", "model_id": "m", field: value}
    path = tmp_path / "desc.jsonl"
    if side == "load":
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(MalformedLineError, match="line 1: .*bad cache record.*must be strings"):
            DescriptionCache(path)
        return
    bad = DescriptionRecord(**{"created_at": "c", **record, "mode": DescriptionMode.FULL_PAGE})
    _refused_put_writes_nothing("description", path, lambda cache: cache.put(bad),
                                lambda cache: cache.get(record["image_id"], DescriptionMode.FULL_PAGE),
                                TypeError, "must be strings")


def test_description_cache_line_bytes_are_pinned(tmp_path):
    # the cache holds paid results, so a text that is not ASCII is still written as raw UTF-8, not as \u escapes
    path = tmp_path / "desc.jsonl"
    DescriptionCache(path).put(DescriptionRecord(
        image_id="img1", mode=DescriptionMode.ILLUSTRATION, text="Arche Noah – Sündflut", model_id="m",
        created_at="2024-01-01T00:00:00+00:00",
    ))
    assert path.read_bytes() == (
        '{"image_id": "img1", "mode": "illustration", "text": "Arche Noah – Sündflut", "model_id": "m", '
        '"created_at": "2024-01-01T00:00:00+00:00", "prompt_version": "v1"}\n'
    ).encode("utf-8")


# ---------------------------------------------------------------- embedding cache

def test_embed_text_caches_by_content(tmp_path):
    cache = EmbeddingCache(tmp_path / "emb.jsonl")
    embedder = CountingEmbedder()
    v1 = embed_text("story of noah", embedder, cache)
    v2 = embed_text("story of noah", embedder, cache)
    assert embedder.calls == 1
    assert v1.tolist() == v2.tolist()
    # a different provider id misses the cache
    other = CountingEmbedder()
    other.provider_id = "fake-embed-2"
    embed_text("story of noah", other, cache)
    assert other.calls == 1


def test_embed_text_rejects_empty():
    for bad in ("", "   "):
        with pytest.raises(EmptyTextError):
            embed_text(bad, CountingEmbedder())


def test_embed_many_names_the_empty_text():
    with pytest.raises(EmptyTextError, match="^'73D': cannot embed empty text$"):
        embed_many(["noah ark", "   "], CountingEmbedder(), names=["71B", "73D"])
    with pytest.raises(EmptyTextError, match="^1: cannot embed empty text$"):
        embed_many(["noah ark", ""], CountingEmbedder())


def test_embed_many_batches_only_misses(tmp_path):
    cache = EmbeddingCache(tmp_path / "emb.jsonl")
    embedder = CountingEmbedder()
    embed_text("bb", embedder, cache)
    outs = embed_many(["a" * 1, "bb", "ccc"], embedder, cache)
    assert [v[0] for v in outs] == [1.0, 2.0, 3.0]  # manifest order kept
    assert embedder.batches[-1] == ["a", "ccc"]     # cached text not re-sent
    assert embedder.calls == 2


def test_embed_many_rejects_a_provider_that_replies_short(tmp_path):
    class ShortEmbedder(CountingEmbedder):
        def embed_many(self, texts):
            return super().embed_many(texts)[:-1]

    cache = EmbeddingCache(tmp_path / "emb.jsonl")
    embed_text("ccc", CountingEmbedder(), cache)  # the last text is a cache hit
    with pytest.raises(EmptyResponseError, match="1 vectors for 2 texts"):
        embed_many(["a", "bb", "ccc"], ShortEmbedder(), cache)
    assert len(cache) == 1  # the short reply cached nothing


def test_embedding_cache_round_trips_floats(tmp_path):
    path = tmp_path / "emb.jsonl"
    cache = EmbeddingCache(path)
    vec = offline_embed("the building of the ark", 32)
    cache.put("offline-hash-32", "the building of the ark", vec)
    reloaded = EmbeddingCache(path)
    assert reloaded.get("offline-hash-32", "the building of the ark").tolist() == vec.tolist()
    assert reloaded.get("offline-hash-32", "something else") is None


def test_embedding_cache_line_bytes_are_pinned(tmp_path):
    # the cache holds paid results, so an array must write the text a list of the same floats always wrote
    path = tmp_path / "emb.jsonl"
    EmbeddingCache(path).put("p", "the ark", np.array([0.1, 1 / 3, 5e-324, -0.0]))
    digest = hashlib.sha256(b"the ark").hexdigest()
    assert path.read_text() == (
        '{"provider": "p", "hash": "%s", "vector": [0.1, 0.3333333333333333, 5e-324, -0.0]}\n' % digest
    )
    assert EmbeddingCache(path).get("p", "the ark").tobytes() == np.array([0.1, 1 / 3, 5e-324, -0.0]).tobytes()


# a record's "vector" JSON text, by case id; a put case puts the value that text decodes to
_NOT_VECTORS = {
    "string": '"12"', "boolean_and_string": '[true, "1.5"]', "nested": "[[1.0], 2.0]", "null": "null",
    "integer_beyond_float": "[1%s]" % ("0" * 400), "nested_rows": "[[1.0], [2.0]]", "zero": "[0.0, 0.0]",
    "nan": "[NaN, 1.0]", "inf": "[Infinity, 1.0]", "minus_inf": "[-Infinity, 1.0]",
}


@pytest.mark.parametrize("vector, side", [
    pytest.param(vector, side, id=case + "-put" * (side == "put"))
    for side in ("load", "put") for case, vector in _NOT_VECTORS.items()
])
def test_embedding_cache_rejects_a_vector_that_is_not_a_list_of_numbers(tmp_path, vector, side):
    path = tmp_path / "emb.jsonl"
    if side == "load":
        path.write_text('{"provider": "p", "hash": "h", "vector": %s}\n' % vector)
        with pytest.raises(MalformedLineError, match="line 1: .*bad cache record"):
            EmbeddingCache(path)
        return
    _refused_put_writes_nothing("embedding", path, lambda cache: cache.put("p", "the ark", json.loads(vector)),
                                lambda cache: cache.get("p", "the ark"), (TypeError, ValueError))


@pytest.mark.parametrize("record, side", [
    ('{"provider": 5, "hash": "h", "vector": [1.0]}', "load"),
    ('{"provider": "p", "hash": null, "vector": [1.0]}', "load"),
    ('{"provider": ["p"], "hash": "h", "vector": [1.0]}', "load"),
    (("p",), "put"),  # a tuple, which JSON would write as a list that no load can key on
], ids=["number", "null", "list", "tuple-put"])
def test_embedding_cache_rejects_a_key_field_that_is_not_a_string(tmp_path, record, side):
    path = tmp_path / "emb.jsonl"
    if side == "load":
        path.write_text(record + "\n")
        with pytest.raises(MalformedLineError, match="line 1: .*bad cache record.*must be strings"):
            EmbeddingCache(path)
        return
    _refused_put_writes_nothing("embedding", path, lambda cache: cache.put(record, "the ark", [1.0]),
                                lambda cache: cache.get(record, "the ark"), TypeError, "must be strings")


# ---------------------------------------------------------------- torn cache lines

def _desc_record(i: int) -> DescriptionRecord:
    return DescriptionRecord(
        image_id=f"img{i}", mode=DescriptionMode.FULL_PAGE,
        text=f"description {i}", model_id="m", created_at="2024-01-01T00:00:00+00:00",
    )


# cache class, put record i, get record i
CACHES = {
    "description": (
        DescriptionCache,
        lambda cache, i: cache.put(_desc_record(i)),
        lambda cache, i: cache.get(f"img{i}", DescriptionMode.FULL_PAGE),
    ),
    "embedding": (
        EmbeddingCache,
        lambda cache, i: cache.put("p", f"text {i}", [float(i), 0.5]),
        lambda cache, i: cache.get("p", f"text {i}"),
    ),
}


def _two_record_cache(kind, path):
    make, put, _ = CACHES[kind]
    cache = make(path)
    put(cache, 1)
    put(cache, 2)
    return path.read_bytes()


@pytest.mark.parametrize("kind", sorted(CACHES))
def test_cache_skips_torn_final_line_and_resumes(tmp_path, kind):
    make, put, get = CACHES[kind]
    path = tmp_path / "cache.jsonl"
    whole = _two_record_cache(kind, path)
    path.write_bytes(whole[:-9])  # a crash in the middle of appending record 2

    cache = make(path)
    assert len(cache) == 1
    assert get(cache, 1) is not None and get(cache, 2) is None
    put(cache, 2)
    put(cache, 3)

    reloaded = make(path)
    assert len(reloaded) == 3
    assert all(get(reloaded, i) is not None for i in (1, 2, 3))
    # the fragment was cut off, so record 2 was written again in full
    assert path.read_bytes().startswith(whole)


@pytest.mark.parametrize("kind", sorted(CACHES))
def test_cache_appends_after_an_unterminated_final_record(tmp_path, kind):
    make, put, get = CACHES[kind]
    path = tmp_path / "cache.jsonl"
    whole = _two_record_cache(kind, path)
    path.write_bytes(whole[:-1])  # record 2 complete, its newline lost

    cache = make(path)
    assert len(cache) == 2
    put(cache, 3)
    reloaded = make(path)
    assert len(reloaded) == 3
    assert all(get(reloaded, i) is not None for i in (1, 2, 3))


def test_cache_cuts_off_an_unterminated_final_record_with_a_lone_surrogate(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = _two_record_cache("description", path)
    path.write_bytes(whole + (_SURROGATE_RECORD % ("\\ud800", "h")).rstrip("\n").encode())
    cache = DescriptionCache(path)
    assert len(cache) == 2
    cache.put(_desc_record(3))  # the torn line does not decode, so it is cut off, not ended
    assert len(DescriptionCache(path)) == 3 and b"ud800" not in path.read_bytes()


@pytest.mark.parametrize("kind", sorted(CACHES))
def test_a_put_that_fails_to_write_serves_nothing_and_is_retried(tmp_path, kind):
    make, put, get = CACHES[kind]
    blocker = tmp_path / "dir"
    blocker.write_text("")  # a regular file where the cache's directory should be
    path = blocker / "cache.jsonl"
    cache = make(path)
    with pytest.raises(FileExistsError):
        put(cache, 1)
    assert get(cache, 1) is None and len(cache) == 0
    blocker.unlink()
    put(cache, 1)
    assert len(path.read_bytes().splitlines()) == 1
    assert get(make(path), 1) is not None


def test_a_description_that_no_utf_encodes_is_not_served(tmp_path):
    path = tmp_path / "desc.jsonl"
    cache = DescriptionCache(path)
    with pytest.raises(UnicodeEncodeError):
        cache.put(dataclasses.replace(_desc_record(1), text="Noah \ud800 builds the ark"))
    assert cache.get("img1", DescriptionMode.FULL_PAGE) is None and len(cache) == 0
    cache.put(_desc_record(1))
    assert DescriptionCache(path).get("img1", DescriptionMode.FULL_PAGE).text == "description 1"


# loads the cache named by argv[1], says so, waits for a line on stdin, then puts record argv[2]
_WRITER = """
import sys
from iconclassify.providers import DescriptionCache, DescriptionMode, DescriptionRecord
cache = DescriptionCache(sys.argv[1])
print("loaded", flush=True)
sys.stdin.readline()
cache.put(DescriptionRecord(image_id=sys.argv[2], mode=DescriptionMode.FULL_PAGE,
                            text="t", model_id="m", created_at="c"))
"""


@pytest.mark.parametrize("cut", [9, 1], ids=["torn", "unterminated"])
def test_cache_keeps_every_record_of_two_writer_processes(tmp_path, cut):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(_two_record_cache("description", path)[:-cut])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(path), image_id], env=env,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for image_id in ("x", "y")
    ]
    for writer in writers:  # both have read the file as it was before either writes
        assert writer.stdout.readline() == "loaded\n"
    for writer in writers:  # x appends first, then y
        writer.communicate("go\n", timeout=60)
        assert writer.returncode == 0

    cache = DescriptionCache(path)
    kept = ["img1", "x", "y"] + (["img2"] if cut == 1 else [])
    assert len(cache) == len(kept)
    assert all(cache.get(image_id, DescriptionMode.FULL_PAGE) is not None for image_id in kept)
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and all(lines[:-1])  # one record per line, each ended


# a record of either kind but for a lone surrogate, escaped or encoded, which no encoder can write out again
_SURROGATE_RECORD = '{"image_id": "a", "mode": "page", "text": "%s", "provider": "p", "hash": "%s", "vector": [1.0]}\n'


@pytest.mark.parametrize("kind", sorted(CACHES))
@pytest.mark.parametrize("bad", [b"not json\n", b'{"unrelated": 1}\n',
                                 (_SURROGATE_RECORD % ("\\ud800", "\\ud800")).encode(),
                                 (_SURROGATE_RECORD % ("\ud800", "\ud800")).encode("utf-8", "surrogatepass")])
def test_cache_rejects_a_bad_inner_line_with_its_number(tmp_path, kind, bad):
    make, _, _ = CACHES[kind]
    path = tmp_path / "cache.jsonl"
    whole = _two_record_cache(kind, path)
    first, rest = whole.split(b"\n", 1)
    path.write_bytes(first + b"\n" + bad + rest)
    with pytest.raises(MalformedLineError) as info:
        make(path)
    assert info.value.line_no == 2


# ---------------------------------------------------------------- candidate selection

CANDS = [
    (parse_code("73D2"), "the episode of the Last Supper"),
    (parse_code("73D23"), "Christ washes the feet of the apostles"),
    (parse_code("71B32"), "the building of the ark"),
]


def test_select_with_llm_exact_echo():
    code, fallback = select_with_llm("desc", CANDS, CountingChat(replies=("73D23",)))
    assert code.raw == "73D23"
    assert fallback is False


def test_select_with_llm_finds_code_in_chatter():
    chat = CountingChat(replies=("The best match is 71B32, the ark scene.",))
    code, fallback = select_with_llm("desc", CANDS, chat)
    assert (code.raw, fallback) == ("71B32", False)


def test_select_with_llm_longest_code_wins_at_same_position():
    # "73D2" is a prefix of "73D23": the longer candidate must win
    code, _ = select_with_llm("desc", CANDS, CountingChat(replies=("73D23 is right",)))
    assert code.raw == "73D23"


def test_select_with_llm_earliest_mention_wins():
    chat = CountingChat(replies=("71B32 not 73D2",))
    code, _ = select_with_llm("desc", CANDS, chat)
    assert code.raw == "71B32"


def test_select_with_llm_falls_back_to_rank_one():
    chat = CountingChat(replies=("none of these fit",))
    code, fallback = select_with_llm("desc", CANDS, chat)
    assert code.raw == "73D2"
    assert fallback is True


def test_select_with_llm_ignores_codes_outside_candidates():
    chat = CountingChat(replies=("I pick 99Z99, or maybe 71B32",))
    code, fallback = select_with_llm("desc", CANDS, chat)
    assert code.raw == "71B32"
    assert fallback is False


def test_select_with_llm_sends_selection_prompt():
    chat = CountingChat(replies=("73D2",))
    select_with_llm("a supper scene", CANDS, chat)
    assert "a supper scene" in chat.prompts[0]
    assert "2. 73D23: Christ washes the feet of the apostles" in chat.prompts[0]
    with pytest.raises(ValueError):
        select_with_llm("desc", [], chat)


def test_offline_select_prefers_highest_overlap():
    # description shares 2 of 4 union tokens with the ark candidate and
    # fewer with the others
    code, fallback = offline_select("the ark under construction", CANDS)
    assert code.raw == "71B32"
    assert fallback is False


def test_offline_select_verbatim_candidate_text():
    for code, text in CANDS:
        got, _ = offline_select(text, CANDS)
        assert got.raw == code.raw


def test_offline_select_zero_overlap_keeps_rank_one():
    code, fallback = offline_select("zebra quagga okapi", CANDS)
    assert (code.raw, fallback) == ("73D2", False)


def test_offline_select_tie_keeps_earlier_rank():
    cands = [
        (parse_code("73D2"), "supper table"),
        (parse_code("73D23"), "supper table"),
    ]
    code, _ = offline_select("supper table", cands)
    assert code.raw == "73D2"


def test_offline_select_requires_candidates():
    with pytest.raises(ValueError):
        offline_select("desc", [])


# ---------------------------------------------------------------- remote transport

def test_mime_sniffing():
    assert _sniff_mime(PNG_STUB) == "image/png"
    assert _sniff_mime(b"GIF89a...") == "image/gif"
    assert _sniff_mime(b"\xff\xd8\xff\xe0") == "image/jpeg"


def test_remote_chat_retries_then_succeeds(monkeypatch):
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(url)
        if len(attempts) < 3:
            raise requests.ConnectionError("boom")
        return FakeResponse(body={"choices": [{"message": {"content": "a woodcut"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    chat = RemoteProvider("http://host/v1", "m")
    assert chat.complete("hi") == "a woodcut"
    assert len(attempts) == 3
    assert attempts[0] == "http://host/v1/chat/completions"


def test_remote_chat_gives_up_after_three_attempts(monkeypatch, sleeps):
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(url)
        return FakeResponse(status_code=503)

    monkeypatch.setattr(requests, "post", fake_post)
    chat = RemoteProvider("http://host", "m")
    with pytest.raises(ProviderUnavailableError, match="HTTP 503"):
        chat.complete("hi")
    assert len(attempts) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [500, 408])
def test_remote_retries_a_server_error_and_a_request_timeout(monkeypatch, sleeps, status):
    # 500 is the lowest status retried as a server error; 408 is retried below it
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(url)
        return FakeResponse(status_code=status)

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(ProviderUnavailableError, match=f"HTTP {status} \\(after 3 attempts\\)$"):
        RemoteProvider("http://host", "m").complete("hi")
    assert len(attempts) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [400, 401, 499])
def test_remote_fails_at_once_on_a_client_error(monkeypatch, sleeps, status):
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(url)
        return FakeResponse(status_code=status)

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(ProviderUnavailableError, match=f"HTTP {status}"):
        RemoteProvider("http://host", "m").complete("hi")
    assert len(attempts) == 1
    assert sleeps == []


@pytest.mark.parametrize("retry_after, waits", [
    ("7", [7.0]), ("Wed, 21 Oct 2015 07:28:00 GMT", [0.5]), ("60", [60.0]), ("86400", None),
])
def test_remote_waits_as_retry_after_asks(monkeypatch, sleeps, retry_after, waits):
    replies = [
        FakeResponse(status_code=429, headers={"Retry-After": retry_after}),
        FakeResponse(body={"choices": [{"message": {"content": "a woodcut"}}]}),
    ]
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None: replies.pop(0))
    chat = RemoteProvider("http://host", "m")
    if waits is None:  # a wait past the 60 s cap ends the call at once, not a day later
        with pytest.raises(ProviderUnavailableError, match=r"^http://host/chat/completions: HTTP 429 asks to retry "
                                                           r"after 86400 s, more than the 60 s this client waits$"):
            chat.complete("hi")
        assert (sleeps, len(replies)) == ([], 1)
    else:
        assert chat.complete("hi") == "a woodcut"
        assert sleeps == waits


def test_remote_chat_attaches_image_as_data_url(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["payload"] = json
        seen["headers"] = headers
        return FakeResponse(body={"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    chat = RemoteProvider("http://host", "vision-model", api_key="sk-test")
    chat.complete("look", image_bytes=PNG_STUB)
    content = seen["payload"]["messages"][0]["content"]
    assert content[0] == {"type": "text", "text": "look"}
    assert content[1]["image_url"]["url"].startswith("data:image/png;base64,")
    assert seen["payload"]["model"] == "vision-model"
    assert seen["headers"]["Authorization"] == "Bearer sk-test"


def test_remote_chat_rejects_malformed_or_empty_body(monkeypatch):
    malformed = "remote:m returned a malformed chat response: "
    bodies = [({"choices": []}, malformed + "list index out of range"),
              ({"choices": [{"message": {"content": "  "}}]}, "remote:m returned empty text"),
              ({}, malformed + "'choices'"),
              ({"choices": [{"message": {"content": ["a woodcut"]}}]},
               malformed + "'list' object has no attribute 'strip'"),
              ({"choices": [{"message": {"content": 7}}]}, malformed + "'int' object has no attribute 'strip'")]

    for body, message in bodies:
        monkeypatch.setattr(
            requests, "post", lambda url, json=None, headers=None, timeout=None, b=body: FakeResponse(body=b)
        )
        chat = RemoteProvider("http://host", "m")
        with pytest.raises(EmptyResponseError) as info:
            chat.complete("hi")
        assert str(info.value) == message


def test_remote_embeddings_sorts_by_index(monkeypatch):
    body = {
        "data": [
            {"index": 1, "embedding": [0.0, 1.0]},
            {"index": 0, "embedding": [1.0, 0.0]},
        ]
    }
    monkeypatch.setattr(
        requests, "post", lambda url, json=None, headers=None, timeout=None: FakeResponse(body=body)
    )
    emb = RemoteProvider("http://host", "embed-model")
    assert [v.tolist() for v in emb.embed_many(["a", "b"])] == [[1.0, 0.0], [0.0, 1.0]]
    assert emb.provider_id == "remote:embed-model"


@pytest.mark.parametrize("indices", [[0, 0], [5, 7]], ids=["repeated", "out_of_range"])
def test_remote_embeddings_rejects_indices_that_do_not_cover_the_inputs(monkeypatch, indices):
    body = {"data": [{"index": i, "embedding": [1.0, float(n)]} for n, i in enumerate(indices)]}
    monkeypatch.setattr(
        requests, "post", lambda url, json=None, headers=None, timeout=None: FakeResponse(body=body)
    )
    emb = RemoteProvider("http://host", "m")
    with pytest.raises(EmptyResponseError) as info:
        emb.embed_many(["a", "b"])
    assert str(info.value) == ("remote:m returned a malformed embedding response: "
                               "2 vectors, but their indices are not 0 to 1")


def test_remote_embeddings_rejects_wrong_count(monkeypatch):
    body = {"data": [{"index": 0, "embedding": [1.0]}]}
    monkeypatch.setattr(
        requests, "post", lambda url, json=None, headers=None, timeout=None: FakeResponse(body=body)
    )
    emb = RemoteProvider("http://host", "m")
    with pytest.raises(EmptyResponseError):
        emb.embed_many(["a", "b"])
    assert embed_many([], emb).shape == (0, 0)  # no texts, no request: the stub's one-vector reply would fail


@pytest.mark.parametrize("embedding", [["abc"], "abc", "12", ["1.5", True, "nan"], [1.5, True]])
def test_remote_embeddings_reject_a_non_numeric_vector(monkeypatch, embedding):
    body = {"data": [{"index": 0, "embedding": embedding}]}
    monkeypatch.setattr(
        requests, "post", lambda url, json=None, headers=None, timeout=None: FakeResponse(body=body)
    )
    with pytest.raises(EmptyResponseError, match="malformed embedding response"):
        RemoteProvider("http://host", "m").embed_many(["a"])


def test_a_non_finite_embedding_is_refused_and_not_cached(monkeypatch, tmp_path):
    # json reads NaN and 1e999 as floats; cached, they would be served to every rerun
    body = json.loads('{"data":[{"index":0,"embedding":[NaN,1.0]},{"index":1,"embedding":[1e999,0.5]}]}')
    posted = []
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None:
                        posted.append(url) or FakeResponse(body=body))
    path = tmp_path / "emb.jsonl"
    with pytest.raises(EmptyResponseError, match="^remote:m returned a malformed embedding response: "
                                                 "a zero or non-finite vector has no direction$"):
        embed_many(["a", "b"], RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert len(posted) == 1
    assert not path.exists() or path.read_text() == ""
    # a line an older version cached this way stops the load, naming the file and the line
    path.write_text(json.dumps({"provider": "remote:m", "hash": "0" * 64, "vector": [math.nan, 1.0]}) + "\n")
    with pytest.raises(MalformedLineError, match=r"^line 1: .*emb\.jsonl: bad cache record: "
                                                 r"TypeError\('a zero or non-finite vector has no direction'\)$"):
        EmbeddingCache(path)


_RAGGED_OR_ZERO = [
    {"data": [{"index": 0, "embedding": [0.0, 0.0]}, {"index": 1, "embedding": [1.0, 2.0]}]},
    {"data": [{"index": 0, "embedding": [1.0, 2.0]}, {"index": 1, "embedding": [1.0, 2.0, 3.0]}]},
]


@pytest.mark.parametrize("body, fault", zip(_RAGGED_OR_ZERO, [
    "^remote:m returned a malformed embedding response: a zero or non-finite vector has no direction$",
    "^remote:m returned a vector of dim 3, not the batch's 2$",
]), ids=["zero", "ragged"])
def test_a_zero_or_ragged_embedding_reply_caches_no_line(monkeypatch, tmp_path, body, fault):
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None: FakeResponse(body=body))
    path = tmp_path / "emb.jsonl"
    with pytest.raises(EmptyResponseError, match=fault):
        embed_many(["a", "b"], RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert not path.exists() or path.read_text() == ""


def test_an_in_process_provider_that_returns_a_zero_row_caches_no_line(tmp_path):
    # a remote reply is judged by number_list as it is read, but rows from any other provider reach embed_many as
    # they are, so its own check must refuse the chunk, naming the provider, before a row of it is cached
    class ZeroRowEmbedder(CountingEmbedder):
        def embed_many(self, texts):
            return [np.zeros(self.dim) if t == "b" else vec for t, vec in zip(texts, super().embed_many(texts))]

    path = tmp_path / "emb.jsonl"
    with pytest.raises(EmptyResponseError, match="^fake-embed returned a zero or non-finite vector$"):
        embed_many(["a", "b"], ZeroRowEmbedder(), EmbeddingCache(path))
    assert not path.exists() or path.read_text() == ""


@pytest.mark.parametrize("body", _RAGGED_OR_ZERO, ids=["zero", "ragged"])
def test_a_rerun_after_a_zero_or_ragged_embedding_reply_posts_again(monkeypatch, tmp_path, body):
    posted = []
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None:
                        posted.append(json["input"]) or FakeResponse(body=body))
    path = tmp_path / "emb.jsonl"
    with pytest.raises(EmptyResponseError):
        embed_many(["a", "b"], RemoteProvider("http://host", "m"), EmbeddingCache(path))
    good = {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": [0.0, 1.0]}]}
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None:
                        posted.append(json["input"]) or FakeResponse(body=good))
    vectors = embed_many(["a", "b"], RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert posted == [["a", "b"], ["a", "b"]]
    assert [v.tolist() for v in vectors] == [[1.0, 0.0], [0.0, 1.0]]


def test_a_chunk_at_another_dim_than_the_first_caches_no_line(monkeypatch, tmp_path):
    # the first chunk replies 2-d and is cached; the second replies 3-d, consistent
    # within itself, and must be refused before any of its lines is cached
    def post(url, json=None, headers=None, timeout=None):
        extra = [0.0] if len(json["input"]) == 1 else []
        return FakeResponse(body={"data": [{"index": i, "embedding": [float(t[1:]), 1.0, *extra]}
                                           for i, t in enumerate(json["input"])]})

    monkeypatch.setattr(requests, "post", post)
    texts = [f"t{i}" for i in range(2049)]
    path = tmp_path / "emb.jsonl"
    with pytest.raises(EmptyResponseError, match="^remote:m returned a vector of dim 3, not the batch's 2$"):
        embed_many(texts, RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert len(path.read_text().splitlines()) == 2048  # the first chunk only
    assert EmbeddingCache(path).get("remote:m", "t2048") is None


def test_a_reply_at_another_dim_than_the_cached_vectors_caches_no_line(monkeypatch, tmp_path):
    path = tmp_path / "emb.jsonl"
    EmbeddingCache(path).put("remote:m", "a", np.array([1.0, 0.0]))
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None:
                        FakeResponse(body={"data": [{"index": 0, "embedding": [1.0, 2.0, 3.0]}]}))
    with pytest.raises(EmptyResponseError, match="^remote:m returned a vector of dim 3, not the batch's 2$"):
        embed_many(["a", "b"], RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert len(path.read_text().splitlines()) == 1


def test_a_cached_vector_at_another_dim_than_the_batch_is_named_by_position_or_name(tmp_path):
    cache = EmbeddingCache(tmp_path / "emb.jsonl")
    cache.put("fake-embed", "a", np.array([1.0, 0.0, 0.0, 0.0]))
    cache.put("fake-embed", "ccc", np.array([1.0, 0.0]))
    with pytest.raises(DimMismatchError, match="^2: dim 2 != index dim 4$"):
        embed_many(["a", "bb", "ccc"], CountingEmbedder(), cache)
    with pytest.raises(DimMismatchError, match="^'73D': dim 2 != index dim 4$"):
        embed_many(["a", "bb", "ccc"], CountingEmbedder(), cache, names=["71", "72", "73D"])
    assert len(cache) == 3  # the fresh vector of "bb" was checked and cached first


def test_remote_retries_on_invalid_json(monkeypatch):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append(url)
        if len(calls) == 1:
            return FakeResponse(body=ValueError("not json"))
        return FakeResponse(body={"data": [{"index": 0, "embedding": [1.0]}]})

    monkeypatch.setattr(requests, "post", fake_post)
    emb = RemoteProvider("http://host", "m")
    assert [v.tolist() for v in emb.embed_many(["a"])] == [[1.0]]
    assert len(calls) == 2


def test_remote_embeddings_chunk_at_2048_inputs(monkeypatch):
    inputs = []

    def fake_post(url, json=None, headers=None, timeout=None):
        inputs.append(json["input"])
        # each chunk's vectors come back in reverse, indexed within the chunk; none is zero
        data = [{"index": i, "embedding": [float(text[1:]), 1.0]} for i, text in enumerate(json["input"])]
        return FakeResponse(body={"data": data[::-1]})

    monkeypatch.setattr(requests, "post", fake_post)
    texts = [f"t{i}" for i in range(2049)]
    vectors = embed_many(texts, RemoteProvider("http://host", "m"))
    assert [len(chunk) for chunk in inputs] == [2048, 1]
    assert inputs[0] + inputs[1] == texts
    assert [v.tolist() for v in vectors] == [[float(i), 1.0] for i in range(2049)]


def _embeddings_reply(texts):
    return FakeResponse(body={"data": [{"index": i, "embedding": [float(t[1:]), 1.0]} for i, t in enumerate(texts)]})


def test_embed_many_caches_each_chunk_as_it_returns(monkeypatch, tmp_path):
    posted = []

    def two_chunks_then_503(url, json=None, headers=None, timeout=None):
        posted.append(json["input"])
        return _embeddings_reply(json["input"]) if len(posted) <= 2 else FakeResponse(status_code=503)

    monkeypatch.setattr(requests, "post", two_chunks_then_503)
    texts = [f"t{i}" for i in range(5000)]
    path = tmp_path / "emb.jsonl"
    with pytest.raises(ProviderUnavailableError, match="HTTP 503"):
        embed_many(texts, RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert len(path.read_text().splitlines()) == 4096  # both chunks that returned are kept

    posted.clear()
    monkeypatch.setattr(requests, "post", lambda url, json=None, headers=None, timeout=None:
                        posted.append(json["input"]) or _embeddings_reply(json["input"]))
    vectors = embed_many(texts, RemoteProvider("http://host", "m"), EmbeddingCache(path))
    assert posted == [texts[4096:]]  # the rerun asks only for the 904 texts that never returned
    assert [v.tolist() for v in vectors] == [[float(i), 1.0] for i in range(5000)]
    assert len(path.read_text().splitlines()) == 5000
