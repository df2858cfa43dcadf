"""Chat and embedding providers with caching and hermetic offline substitutes.

Remote calls speak the OpenAI-compatible HTTP+JSON protocol via `requests`.
The offline embedder is a deterministic hashed character-3-gram model, and
offline candidate selection uses token overlap, so the whole pipeline can
run without network access.
"""

from __future__ import annotations

import base64
import fcntl
import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyResponseError,
    EmptyTextError,
    MalformedLineError,
    ProviderUnavailableError,
    ZeroVectorError,
)
from .methods import DEFAULT_OFFLINE_DIM, MIN_OFFLINE_DIM, DescriptionMode
from .outputs import _naming
from .retrieval import number_list, tokenize, vector_norms
from .taxonomy import _SURROGATE, IconclassCode, decode_json

PROMPT_VERSION = "v1"
_HASH_PERSON = b"icx-gram"  # fixed blake2b personalization = the hash seed


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_prompt(stem: str) -> str:
    name = f"{stem}_{PROMPT_VERSION}.txt"
    return (resources.files("iconclassify") / "prompts" / name).read_text(encoding="utf-8")


def prompt_for_mode(mode: DescriptionMode) -> str:
    if mode is DescriptionMode.FULL_PAGE:
        return _load_prompt("full_page")
    return _load_prompt("illustration")


def build_selection_prompt(description: str, candidates: Sequence[tuple[IconclassCode, str]]) -> str:
    lines = [f"{i}. {code.raw}: {text}" for i, (code, text) in enumerate(candidates, start=1)]
    template = _load_prompt("selection")
    # plain replace: descriptions may legitimately contain brace characters
    return template.replace("{description}", description).replace("{candidates}", "\n".join(lines))


class ChatProvider(Protocol):
    """Anything that can answer a prompt, optionally with an attached image."""

    model_id: str

    def complete(self, prompt: str, image_bytes: Optional[bytes] = None) -> str: ...


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed_many(self, texts: Sequence[str]) -> Sequence[np.ndarray]: ...


def _sniff_mime(image_bytes: bytes) -> str:
    if image_bytes.startswith(b"\x89PNG"):
        return "image/png"
    if image_bytes.startswith(b"GIF8"):
        return "image/gif"
    return "image/jpeg"


_ATTEMPTS = 3
_BACKOFF_S = 0.5  # the first wait; it doubles after each retry
_EMBED_CHUNK = 2048  # inputs per embeddings request, OpenAI's cap
_MAX_RETRY_AFTER_S = 60  # a longer wait asked for ends the call; the caches keep every finished chunk for a rerun


def _post(url: str, payload: dict, api_key: Optional[str], timeout: float) -> dict:
    """POST `payload` as JSON and return the decoded JSON reply.

    A connection error, a 200 whose body is not JSON, 408, 429 and 5xx are
    retried, 3 attempts in all, after waits of 0.5 s and then 1.0 s; a
    `Retry-After` header in whole seconds replaces that wait, up to 60 s, and
    a longer one fails at once. Any other status fails at once. Either way
    the failure is a ProviderUnavailableError.
    """
    import requests  # only remote calls need it, and it is slow to import

    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}  # json= sets Content-Type
    for attempt in range(_ATTEMPTS):
        if attempt:
            time.sleep(wait)
        wait = _BACKOFF_S * 2**attempt
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = str(exc)
            continue
        if resp.status_code == 200:
            try:
                return resp.json()
            except (ValueError, RecursionError) as exc:
                last_error = f"invalid JSON body: {exc}"
                continue
        last_error = f"HTTP {resp.status_code}"
        if resp.status_code < 500 and resp.status_code not in (408, 429):
            raise ProviderUnavailableError(f"{url}: {last_error}")
        retry_after = resp.headers.get("Retry-After", "").strip()
        if retry_after.isascii() and retry_after.isdigit():
            wait = float(retry_after)
            if wait > _MAX_RETRY_AFTER_S:
                raise ProviderUnavailableError(f"{url}: {last_error} asks to retry after {retry_after} s, "
                                               f"more than the {_MAX_RETRY_AFTER_S} s this client waits")
    raise ProviderUnavailableError(f"{url}: {last_error} (after {_ATTEMPTS} attempts)")


class RemoteProvider:
    """OpenAI-compatible client for one chat or embedding model; images travel as base64 data URLs."""

    def __init__(self, endpoint: str, model: str, api_key: Optional[str] = None):
        self.endpoint = endpoint.rstrip("/")
        self.model_id = model
        self.provider_id = f"remote:{model}"
        self._api_key = api_key

    def complete(self, prompt: str, image_bytes: Optional[bytes] = None) -> str:
        content: list[dict] = [{"type": "text", "text": prompt}]
        if image_bytes:
            b64 = base64.b64encode(image_bytes).decode("ascii")
            url = f"data:{_sniff_mime(image_bytes)};base64,{b64}"
            content.append({"type": "image_url", "image_url": {"url": url}})
        payload = {"model": self.model_id, "messages": [{"role": "user", "content": content}]}
        data = _post(f"{self.endpoint}/chat/completions", payload, self._api_key, timeout=120.0)
        try:
            text = (data["choices"][0]["message"]["content"] or "").strip()
        except (KeyError, IndexError, TypeError, AttributeError) as exc:  # AttributeError: content is not text
            raise EmptyResponseError(f"{self.provider_id} returned a malformed chat response: {exc}") from exc
        if not text:
            raise EmptyResponseError(f"{self.provider_id} returned empty text")
        return text

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One embeddings request for exactly these texts; the module's
        `embed_many` keeps each request within the API's 2,048-input cap."""
        payload = {"model": self.model_id, "input": list(texts)}
        data = _post(f"{self.endpoint}/embeddings", payload, self._api_key, timeout=60.0)
        try:
            items = sorted(data["data"], key=lambda d: d["index"])
            if [item["index"] for item in items] != list(range(len(texts))):  # each input gets exactly one vector
                raise ValueError(f"{len(items)} vectors, but their indices are not 0 to {len(texts) - 1}")
            return [number_list(item["embedding"]) for item in items]
        except (KeyError, TypeError, ValueError) as exc:
            raise EmptyResponseError(f"{self.provider_id} returned a malformed embedding response: {exc}") from exc


# texts per array pass: at 2,048, the pass's temporaries took a 12.6k-text, 512-d `index build` from 153 to 171 MB
# peak RSS
_EMBED_SLICE = 256
_CODE_BITS = 21  # a code point fits in 21 bits, so a 3-gram packs into one uint64


@functools.lru_cache(maxsize=1 << 16)  # packed grams; a paper-scale build meets about 2k
def _gram_hash(key: int) -> int:
    """The keyed 64-bit blake2b hash of the 3-gram packed into `key`."""
    mask = (1 << _CODE_BITS) - 1
    gram = chr(key >> 2 * _CODE_BITS) + chr(key >> _CODE_BITS & mask) + chr(key & mask)
    return int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest(), "big")


def _gram_counts(lowered: list[str], dim: int) -> np.ndarray:
    """The signed gram counts of texts of 3 characters or more, one row each, in one array pass: each distinct
    3-gram is hashed once, its hash mod dim picks the bucket and its top bit the sign. The sums of +-1.0 are
    small integers, exact in any order, so each row equals a per-gram loop's bit for bit."""
    lengths = np.array([len(s) for s in lowered], dtype=np.intp)
    points = np.frombuffer("".join(lowered).encode("utf-32-le"), "<u4").astype(np.uint64)
    keys = points[:-2] << 2 * _CODE_BITS | points[1:-1] << _CODE_BITS | points[2:]
    # a gram that starts in the last two characters of a text runs into the next text
    within = np.ones(keys.size, dtype=bool)
    ends = np.cumsum(lengths)[:-1]
    within[ends - 2] = within[ends - 1] = False
    grams, which = np.unique(keys[within], return_inverse=True)
    hashes = np.array([_gram_hash(key) for key in grams.tolist()], dtype=np.uint64)
    buckets = (hashes % dim).astype(np.intp)
    signs = np.where(hashes < 1 << 63, 1.0, -1.0)
    rows = np.repeat(np.arange(len(lowered)), lengths - 2)
    counts = np.bincount(rows * dim + buckets[which], weights=signs[which], minlength=len(lowered) * dim)
    return counts.reshape(len(lowered), dim)


def offline_embed(text: str, dim: int = DEFAULT_OFFLINE_DIM) -> np.ndarray:
    """Deterministic embedding: hashed character 3-grams of the lowercased
    text, signed counts, L2-normalized.

    The hash is keyed blake2b, so vectors are identical across runs and
    platforms. Texts shorter than 3 characters have no grams and raise
    EmptyTextError.
    """
    return OfflineHashEmbedder(dim).embed(text)


class OfflineHashEmbedder:
    """EmbeddingProvider of offline_embed's vectors, a batch at a time."""

    def __init__(self, dim: int = DEFAULT_OFFLINE_DIM):
        if dim < MIN_OFFLINE_DIM:
            raise ValueError(f"dim must be >= {MIN_OFFLINE_DIM}, got {dim}")
        self.dim = dim
        self.provider_id = f"offline-hash-{dim}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The texts' embeddings as the rows of one (len(texts), dim) matrix, a slice of texts per array pass.
        The first text that is too short or whose signs cancel raises, as it would embedded alone."""
        out = np.empty((len(texts), self.dim))
        for start in range(0, len(texts), _EMBED_SLICE):
            lowered = [text.lower() for text in texts[start : start + _EMBED_SLICE]]
            short = next((i for i, s in enumerate(lowered) if len(s) < 3), len(lowered))
            counts = _gram_counts(lowered[:short], self.dim)
            norms = vector_norms(counts)
            if not norms.all():
                raise ZeroVectorError(f"{texts[start + norms.argmin()]!r}: gram signs cancel; no usable direction")
            if short < len(lowered):
                raise EmptyTextError(f"{texts[start + short]!r}: need at least 3 characters to embed")
            np.divide(counts, norms[:, None], out=out[start : start + short])
        return out


@dataclass(frozen=True)
class DescriptionRecord:
    image_id: str
    mode: DescriptionMode
    text: str
    model_id: str
    created_at: str
    prompt_version: str = PROMPT_VERSION


class _AppendOnlyCache:
    """Append-only JSONL records, keyed by the subclass's `_decode(obj) -> (key,
    value)`. The first record for a key wins, so interrupted runs resume.

    `_decode` is the one judge of a record: a load runs it on each line, and a
    put on the record it is about to write, so a put refuses, before it writes
    a byte, whatever a load would refuse. A crash mid-append can leave an
    unterminated final line: loading skips it if it does not decode, and the
    next put first cuts it off (or ends it, if it did). Any other bad line
    raises MalformedLineError. Each put holds an exclusive lock on the file
    and reads its tail under that lock, so writers in other processes never
    cut away each other's records.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._records: dict = {}
        self._lock = threading.Lock()
        if not self.path.is_file():
            return
        with open(self.path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        key, value = self._read(line)
                        self._records.setdefault(key, value)
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        if line.endswith(b"\n"):  # only the final line can lack one
                            raise MalformedLineError(line_no, f"{self.path}: bad cache record: {exc!r}") from exc

    def _read(self, line: bytes):
        """One line's (key, value), its JSON decoded as json.loads decodes UTF-8 bytes, less its surrogatepass: so a
        lone surrogate, escaped or encoded, is a ValueError, as it is in any other JSON line the program reads."""
        return self._decode(decode_json(line.decode("utf-8-sig")))

    def __len__(self) -> int:
        return len(self._records)

    def _put(self, record: dict) -> None:
        """Append `record`, a JSON object, unless its key is cached; what `_decode` or the encoder refuses raises."""
        key, value = self._decode(record)
        line = json.dumps(record, ensure_ascii=False).encode("utf-8")
        with self._lock:
            if key in self._records:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with _naming(self.path), open(self.path, "a+b") as fh:  # a failed write names the cache
                fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
                end = fh.seek(0, os.SEEK_END)
                fh.seek(max(end - 1, 0))
                lead = b""
                if fh.read(1) not in (b"", b"\n"):  # a torn final line, maybe another writer's
                    fh.seek(0)
                    start = fh.read().rfind(b"\n") + 1
                    fh.seek(start)
                    try:
                        self._read(fh.read())
                        lead = b"\n"  # it decodes: end it
                    except (ValueError, KeyError, TypeError, RecursionError):
                        fh.truncate(start)  # it does not: cut it off
                fh.write(lead + line + b"\n")
            self._records[key] = value  # only once it is on disk, so a failed put serves nothing and is retried


class DescriptionCache(_AppendOnlyCache):
    """Cache of generated descriptions, keyed (image_id, mode)."""

    def __init__(self, path: Union[str, Path]):  # benchmarks/tracing.py times this class's own __init__
        super().__init__(path)

    @staticmethod
    def _decode(obj: dict) -> tuple[tuple[str, str], DescriptionRecord]:
        model_id, created_at = obj.get("model_id", ""), obj.get("created_at", "")
        prompt_version = obj.get("prompt_version", PROMPT_VERSION)
        if not all(isinstance(value, str) for value in (obj["image_id"], obj["text"], model_id, created_at,
                                                        prompt_version)):
            raise TypeError("image_id, text, model_id, created_at and prompt_version must be strings")
        rec = DescriptionRecord(image_id=obj["image_id"], mode=DescriptionMode(obj["mode"]), text=obj["text"],
                                model_id=model_id, created_at=created_at, prompt_version=prompt_version)
        return (rec.image_id, rec.mode.value), rec

    def get(self, image_id: str, mode: DescriptionMode) -> Optional[DescriptionRecord]:
        return self._records.get((image_id, mode.value))

    def put(self, record: DescriptionRecord) -> None:
        self._put({**asdict(record), "mode": record.mode.value})


class EmbeddingCache(_AppendOnlyCache):
    """Cache of embeddings keyed by (provider id, sha256 of the text)."""

    @staticmethod
    def _decode(obj: dict) -> tuple[tuple[str, str], np.ndarray]:
        if not isinstance(obj["provider"], str) or not isinstance(obj["hash"], str):
            raise TypeError("provider and hash must be strings")  # a tuple in a put would reload as a list
        return (obj["provider"], obj["hash"]), number_list(obj["vector"])

    @staticmethod
    def _digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, provider_id: str, text: str) -> Optional[np.ndarray]:
        return self._records.get((provider_id, self._digest(text)))

    def put(self, provider_id: str, text: str, vector: Sequence[float]) -> None:
        """Cache `vector` as the JSON list of what it holds. One that number_list refuses, not numbers or with a
        norm that is zero or not finite, raises the TypeError a load of its line would, and nothing is written."""
        self._put({"provider": provider_id, "hash": self._digest(text), "vector": np.asarray(vector).tolist()})


def describe_image(image_id: str, image_bytes: bytes, mode: DescriptionMode,
                   provider: ChatProvider) -> DescriptionRecord:
    """Generate a description for one image: the mode's prompt template plus the image go to the chat provider.
    No cache is read or written: `describe` looks the image up first, so that a cached image costs no provider
    call, and puts the record this returns."""
    if not image_bytes:
        raise ValueError(f"{image_id}: image_bytes is empty")
    prompt = prompt_for_mode(mode)
    text = provider.complete(prompt, image_bytes=image_bytes).strip()
    if not text:
        raise EmptyResponseError(f"{image_id}: empty description")
    if _SURROGATE.search(text):  # no UTF encodes it, so no cache could hold it
        raise EmptyResponseError(f"{image_id}: the description holds a lone surrogate")
    return DescriptionRecord(
        image_id=image_id,
        mode=mode,
        text=text,
        model_id=provider.model_id,
        created_at=now_iso(),
    )


def embed_text(
    text: str,
    provider: EmbeddingProvider,
    cache: Optional[EmbeddingCache] = None,
) -> np.ndarray:
    """Embed one text, caching by (provider id, content hash)."""
    return embed_many([text], provider, cache)[0]


def embed_many(
    texts: Sequence[str],
    provider: EmbeddingProvider,
    cache: Optional[EmbeddingCache] = None,
    names: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Embed texts in order, as the rows of one (len(texts), dim) float64 matrix. Cache misses go to the provider
    2,048 at a time, and each chunk is cached as soon as it returns, so a run that fails part way keeps every chunk
    that finished. A cached vector of another dim than the batch's first raises DimMismatchError naming its text by
    `names`, the text's position if none are given, once every chunk is in."""
    for i, t in enumerate(texts):
        if not t or not t.strip():
            raise EmptyTextError(f"{names[i] if names else i!r}: cannot embed empty text")
    if not texts:
        return np.empty((0, 0))
    hits = [cache.get(provider.provider_id, t) if cache is not None else None for t in texts]
    misses = [i for i, vec in enumerate(hits) if vec is None]
    # the batch's dim is its first vector's, cached or fresh
    first = next((vec for vec in hits if vec is not None), None)
    out = None if first is None else np.empty((len(texts), first.size))
    for start in range(0, len(misses), _EMBED_CHUNK):
        chunk = misses[start : start + _EMBED_CHUNK]
        fresh = provider.embed_many([texts[i] for i in chunk])
        if len(fresh) != len(chunk):
            raise EmptyResponseError(f"{provider.provider_id} returned {len(fresh)} vectors for {len(chunk)} texts")
        if out is None:
            out = np.empty((len(texts), np.size(fresh[0])))
        # each vector is checked in order, against the batch's dim and as the index checks it, before any is
        # cached: a put refuses a bad vector too, but only this check can name the provider and the batch's dim
        fits = next((i for i, vec in enumerate(fresh) if np.shape(vec) != out.shape[1:]), len(fresh))
        block = np.asarray(fresh[:fits], dtype=np.float64).reshape(fits, out.shape[1])
        norms = vector_norms(block)
        if not ((norms > 0.0) & (norms < np.inf)).all():
            raise EmptyResponseError(f"{provider.provider_id} returned a zero or non-finite vector")
        if fits < len(fresh):
            raise EmptyResponseError(f"{provider.provider_id} returned a vector of dim {np.size(fresh[fits])}, "
                                     f"not the batch's {out.shape[1]}")
        out[chunk] = block
        if cache is not None:
            for i, vec in zip(chunk, block):
                cache.put(provider.provider_id, texts[i], vec)
    for i, vec in enumerate(hits):
        if vec is not None:
            if vec.shape != out.shape[1:]:
                raise DimMismatchError(f"{names[i] if names else i!r}: dim {vec.size} != index dim {out.shape[1]}")
            out[i] = vec
    return out


def select_with_llm(
    description: str,
    candidates: Sequence[tuple[IconclassCode, str]],
    provider: ChatProvider,
) -> tuple[IconclassCode, bool]:
    """Ask the chat provider to pick the best candidate code.

    The response is scanned for the earliest exact candidate notation
    (longest wins on a shared start position, so "73D231" beats "73D23").
    If no candidate appears, falls back to the rank-1 candidate and sets
    the fallback flag. Never returns a code outside the candidate list.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    prompt = build_selection_prompt(description, candidates)
    response = provider.complete(prompt)
    found = [(pos, -len(code.raw), i) for i, (code, _) in enumerate(candidates)
             if (pos := response.find(code.raw)) >= 0]
    if found:
        return candidates[min(found)[2]][0], False
    return candidates[0][0], True


def offline_select(
    description: str,
    candidates: Sequence[tuple[IconclassCode, str]],
) -> tuple[IconclassCode, bool]:
    """Deterministic selection stand-in: maximize Jaccard token overlap
    between the description and each candidate text; ties keep the
    earlier retrieval rank. The fallback flag is always False."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    desc_tokens = set(tokenize(description))

    def jaccard(candidate: tuple[IconclassCode, str]) -> float:
        cand_tokens = set(tokenize(candidate[1]))
        union = desc_tokens | cand_tokens
        return len(desc_tokens & cand_tokens) / len(union) if union else 0.0

    return max(candidates, key=jaccard)[0], False
