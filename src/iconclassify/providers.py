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
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union

import numpy as np

from .errors import (
    EmptyResponseError,
    EmptyTextError,
    MalformedLineError,
    ProviderUnavailableError,
    ZeroVectorError,
)
from .retrieval import number_list, tokenize
from .taxonomy import IconclassCode

PROMPT_VERSION = "v1"
DEFAULT_OFFLINE_DIM = 256
MIN_OFFLINE_DIM = 16
_HASH_PERSON = b"icx-gram"  # fixed blake2b personalization = the hash seed


class DescriptionMode(str, Enum):
    FULL_PAGE = "page"
    ILLUSTRATION = "illustration"


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

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def _sniff_mime(image_bytes: bytes) -> str:
    if image_bytes.startswith(b"\x89PNG"):
        return "image/png"
    if image_bytes.startswith(b"GIF8"):
        return "image/gif"
    return "image/jpeg"


_ATTEMPTS = 3
_BACKOFF_S = 0.5  # the first wait; it doubles after each retry
_EMBED_CHUNK = 2048  # inputs per embeddings request, OpenAI's cap


def _post(url: str, payload: dict, api_key: Optional[str], timeout: float) -> dict:
    """POST `payload` as JSON and return the decoded JSON reply.

    A connection error, a 200 whose body is not JSON, 408, 429 and 5xx are
    retried, 3 attempts in all, after waits of 0.5 s and then 1.0 s; a
    `Retry-After` header in whole seconds replaces that wait. Any other
    status fails at once. Either way the failure is a ProviderUnavailableError.
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
            except ValueError as exc:
                last_error = f"invalid JSON body: {exc}"
                continue
        last_error = f"HTTP {resp.status_code}"
        if resp.status_code < 500 and resp.status_code not in (408, 429):
            raise ProviderUnavailableError(f"{url}: {last_error}")
        retry_after = resp.headers.get("Retry-After", "").strip()
        if retry_after.isascii() and retry_after.isdigit():
            wait = float(retry_after)
    raise ProviderUnavailableError(f"{url}: {last_error} (after {_ATTEMPTS} attempts)")


class RemoteChatProvider:
    """Chat-completions client; images travel as base64 data URLs."""

    def __init__(self, endpoint: str, model: str, api_key: Optional[str] = None):
        self.endpoint = endpoint.rstrip("/")
        self.model_id = model
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
            raise EmptyResponseError(f"malformed chat response: {exc}") from exc
        if not text:
            raise EmptyResponseError("chat provider returned empty text")
        return text


class RemoteEmbeddingProvider:
    def __init__(self, endpoint: str, model: str, api_key: Optional[str] = None):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.provider_id = f"remote:{model}"
        self._api_key = api_key

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One embeddings request for exactly these texts; the module's
        `embed_many` keeps each request within the API's 2,048-input cap."""
        payload = {"model": self.model, "input": list(texts)}
        data = _post(f"{self.endpoint}/embeddings", payload, self._api_key, timeout=60.0)
        try:
            items = sorted(data["data"], key=lambda d: d["index"])
            got = [number_list(item["embedding"]) for item in items]
        except (KeyError, TypeError) as exc:
            raise EmptyResponseError(f"malformed embedding response: {exc}") from exc
        if [item["index"] for item in items] != list(range(len(texts))):  # each input gets exactly one vector
            raise EmptyResponseError(f"embedding response has {len(got)} vectors, "
                                     f"but its indices are not 0 to {len(texts) - 1}")
        return got


@functools.lru_cache(maxsize=1 << 16)  # (gram, dim) pairs; a paper-scale build meets about 2k
def _gram_slot(gram: str, dim: int) -> tuple[int, float]:
    """The bucket and the sign one 3-gram adds to an offline embedding."""
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
    h = int.from_bytes(digest, "big")
    return h % dim, 1.0 if h < (1 << 63) else -1.0  # top bit picks the sign


def offline_embed(text: str, dim: int = DEFAULT_OFFLINE_DIM) -> np.ndarray:
    """Deterministic embedding: hashed character 3-grams of the lowercased
    text, signed counts, L2-normalized.

    The hash is keyed blake2b, so vectors are identical across runs and
    platforms. Texts shorter than 3 characters have no grams and raise
    EmptyTextError.
    """
    if dim < MIN_OFFLINE_DIM:
        raise ValueError(f"dim must be >= {MIN_OFFLINE_DIM}, got {dim}")
    s = text.lower()
    if len(s) < 3:
        raise EmptyTextError(f"need at least 3 characters to embed, got {len(s)}")
    buckets, signs = zip(*[_gram_slot(s[i : i + 3], dim) for i in range(len(s) - 2)])
    # sums of +-1.0 are small integers, exact in any order
    vec = np.bincount(buckets, weights=signs, minlength=dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVectorError("gram signs cancelled; text has no usable direction")
    return vec / norm


class OfflineHashEmbedder:
    """EmbeddingProvider backed by offline_embed."""

    def __init__(self, dim: int = DEFAULT_OFFLINE_DIM):
        if dim < MIN_OFFLINE_DIM:
            raise ValueError(f"dim must be >= {MIN_OFFLINE_DIM}, got {dim}")
        self.dim = dim
        self.provider_id = f"offline-hash-{dim}"

    def embed(self, text: str) -> np.ndarray:
        return offline_embed(text, self.dim)

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.embed(t) for t in texts]


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

    A crash mid-append can leave an unterminated final line: loading skips
    it if it does not decode, and the next put first cuts it off (or ends
    it, if it did). Any other bad line raises MalformedLineError. Each put
    holds an exclusive lock on the file and reads its tail under that lock,
    so writers in other processes never cut away each other's records.
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
                        key, value = self._decode(json.loads(line))
                        self._records.setdefault(key, value)
                    except (ValueError, KeyError, TypeError) as exc:
                        if line.endswith(b"\n"):  # only the final line can lack one
                            raise MalformedLineError(line_no, f"{self.path}: bad cache record: {exc!r}") from exc

    def __len__(self) -> int:
        return len(self._records)

    def _put(self, key: tuple, value, line: str) -> None:
        with self._lock:
            if key in self._records:
                return
            self._records[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
                end = fh.seek(0, os.SEEK_END)
                fh.seek(max(end - 1, 0))
                lead = b""
                if fh.read(1) not in (b"", b"\n"):  # a torn final line, maybe another writer's
                    fh.seek(0)
                    start = fh.read().rfind(b"\n") + 1
                    fh.seek(start)
                    try:
                        self._decode(json.loads(fh.read()))
                        lead = b"\n"  # it decodes: end it
                    except (ValueError, KeyError, TypeError):
                        fh.truncate(start)  # it does not: cut it off
                fh.write(lead + line.encode("utf-8") + b"\n")


class DescriptionCache(_AppendOnlyCache):
    """Cache of generated descriptions, keyed (image_id, mode)."""

    def __init__(self, path: Union[str, Path]):  # benchmarks/tracing.py times this class's own __init__
        super().__init__(path)

    @staticmethod
    def _decode(obj: dict) -> tuple[tuple[str, str], DescriptionRecord]:
        model_id = obj.get("model_id", "")
        if not all(isinstance(value, str) for value in (obj["image_id"], obj["text"], model_id)):
            raise TypeError("image_id, text and model_id must be strings")
        rec = DescriptionRecord(
            image_id=obj["image_id"],
            mode=DescriptionMode(obj["mode"]),
            text=obj["text"],
            model_id=model_id,
            created_at=obj.get("created_at", ""),
            prompt_version=obj.get("prompt_version", PROMPT_VERSION),
        )
        return (rec.image_id, rec.mode.value), rec

    def get(self, image_id: str, mode: DescriptionMode) -> Optional[DescriptionRecord]:
        return self._records.get((image_id, mode.value))

    def put(self, record: DescriptionRecord) -> None:
        line = json.dumps({**asdict(record), "mode": record.mode.value}, ensure_ascii=False)
        self._put((record.image_id, record.mode.value), record, line)


class EmbeddingCache(_AppendOnlyCache):
    """Cache of embeddings keyed by (provider id, sha256 of the text)."""

    @staticmethod
    def _decode(obj: dict) -> tuple[tuple[str, str], np.ndarray]:
        return (obj["provider"], obj["hash"]), number_list(obj["vector"])

    @staticmethod
    def _digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, provider_id: str, text: str) -> Optional[np.ndarray]:
        return self._records.get((provider_id, self._digest(text)))

    def put(self, provider_id: str, text: str, vector: Sequence[float]) -> None:
        key = (provider_id, self._digest(text))
        vec = np.asarray(vector, dtype=np.float64)  # so that get serves what a reload would read
        self._put(key, vec, json.dumps({"provider": key[0], "hash": key[1], "vector": vec.tolist()}))


def describe_image(
    image_id: str,
    image_bytes: bytes,
    mode: DescriptionMode,
    provider: ChatProvider,
    cache: Optional[DescriptionCache] = None,
) -> DescriptionRecord:
    """Generate (or fetch from cache) a description for one image.

    The cache is consulted first by (image_id, mode); a hit costs zero
    provider calls. On a miss, the mode's prompt template plus the image
    goes to the chat provider and the result is cached.
    """
    if not image_bytes:
        raise ValueError(f"{image_id}: image_bytes is empty")
    if cache is not None:
        hit = cache.get(image_id, mode)
        if hit is not None:
            return hit
    prompt = prompt_for_mode(mode)
    text = provider.complete(prompt, image_bytes=image_bytes).strip()
    if not text:
        raise EmptyResponseError(f"{image_id}: empty description")
    record = DescriptionRecord(
        image_id=image_id,
        mode=mode,
        text=text,
        model_id=provider.model_id,
        created_at=now_iso(),
    )
    if cache is not None:
        cache.put(record)
    return record


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
) -> list[np.ndarray]:
    """Embed texts in order. Cache misses go to the provider 2,048 at a
    time, and each chunk is cached as soon as it returns, so a run that
    fails part way keeps every chunk that finished."""
    for t in texts:
        if not t or not t.strip():
            raise EmptyTextError("cannot embed empty text")
    out = [cache.get(provider.provider_id, t) if cache is not None else None for t in texts]
    misses = [i for i, vec in enumerate(out) if vec is None]
    for start in range(0, len(misses), _EMBED_CHUNK):
        chunk = misses[start : start + _EMBED_CHUNK]
        fresh = provider.embed_many([texts[i] for i in chunk])
        if len(fresh) != len(chunk):
            raise EmptyResponseError(f"{provider.provider_id} returned {len(fresh)} vectors for {len(chunk)} texts")
        # each vector is checked against the batch's first, cached or fresh, before any is
        # cached: a cached bad vector would be served to every rerun
        first = next((vec for vec in out if vec is not None), fresh[0])
        if any(np.shape(vec) != np.shape(first) or not np.any(vec) for vec in fresh):
            raise EmptyResponseError(f"{provider.provider_id} returned vectors of different lengths or a zero vector")
        for i, vec in zip(chunk, fresh):
            out[i] = vec
            if cache is not None:
                cache.put(provider.provider_id, texts[i], vec)
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
