"""Chat and embedding providers with caching and hermetic offline substitutes.

Remote calls speak the OpenAI-compatible HTTP+JSON protocol via `requests`.
The offline embedder is a deterministic hashed character-3-gram model, and
offline candidate selection uses token overlap, so the whole pipeline can
run without network access.
"""

from __future__ import annotations

import base64
import hashlib
import json
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
from .retrieval import tokenize
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

    def embed_many(self, texts: Sequence[str]) -> list[list[float]]: ...


def _sniff_mime(image_bytes: bytes) -> str:
    if image_bytes.startswith(b"\x89PNG"):
        return "image/png"
    if image_bytes.startswith(b"GIF8"):
        return "image/gif"
    return "image/jpeg"


class _RetryingPoster:
    """Shared POST-with-retries helper: 3 attempts, exponential backoff,
    bounded concurrent in-flight requests."""

    def __init__(self, api_key: Optional[str], timeout: float, retries: int, backoff: float, max_in_flight: int):
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self._gate = threading.Semaphore(max_in_flight)

    def post(self, url: str, payload: dict) -> dict:
        import requests  # only remote calls need it, and it is slow to import

        last_error = "no attempts made"
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with self._gate:
                    resp = requests.post(url, json=payload, headers=self.headers, timeout=self.timeout)
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
        raise ProviderUnavailableError(f"{url}: {last_error} (after {self.retries} attempts)")


class RemoteChatProvider:
    """Chat-completions client; images travel as base64 data URLs."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
        retries: int = 3,
        backoff: float = 0.5,
        max_in_flight: int = 4,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model_id = model
        self._poster = _RetryingPoster(api_key, timeout, retries, backoff, max_in_flight)

    def complete(self, prompt: str, image_bytes: Optional[bytes] = None) -> str:
        content: list[dict] = [{"type": "text", "text": prompt}]
        if image_bytes:
            b64 = base64.b64encode(image_bytes).decode("ascii")
            url = f"data:{_sniff_mime(image_bytes)};base64,{b64}"
            content.append({"type": "image_url", "image_url": {"url": url}})
        payload = {"model": self.model_id, "messages": [{"role": "user", "content": content}]}
        data = self._poster.post(f"{self.endpoint}/chat/completions", payload)
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EmptyResponseError(f"malformed chat response: {exc}") from exc
        text = (text or "").strip()
        if not text:
            raise EmptyResponseError("chat provider returned empty text")
        return text


class RemoteEmbeddingProvider:
    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.5,
        max_in_flight: int = 4,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.provider_id = f"remote:{model}"
        self._poster = _RetryingPoster(api_key, timeout, retries, backoff, max_in_flight)

    def embed_many(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            return []
        payload = {"model": self.model, "input": list(texts)}
        data = self._poster.post(f"{self.endpoint}/embeddings", payload)
        try:
            items = sorted(data["data"], key=lambda d: d["index"])
            vectors = [[float(x) for x in item["embedding"]] for item in items]
        except (KeyError, TypeError) as exc:
            raise EmptyResponseError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise EmptyResponseError(
                f"embedding response has {len(vectors)} vectors for {len(texts)} inputs"
            )
        return vectors


def offline_embed(text: str, dim: int = DEFAULT_OFFLINE_DIM) -> list[float]:
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
    vec = np.zeros(dim, dtype=np.float64)
    for i in range(len(s) - 2):
        gram = s[i : i + 3]
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
        h = int.from_bytes(digest, "big")
        sign = 1.0 if h < (1 << 63) else -1.0  # top bit picks the sign
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVectorError("gram signs cancelled; text has no usable direction")
    return [float(x) for x in vec / norm]


class OfflineHashEmbedder:
    """EmbeddingProvider backed by offline_embed."""

    def __init__(self, dim: int = DEFAULT_OFFLINE_DIM):
        if dim < MIN_OFFLINE_DIM:
            raise ValueError(f"dim must be >= {MIN_OFFLINE_DIM}, got {dim}")
        self.dim = dim
        self.provider_id = f"offline-hash-{dim}"

    def embed(self, text: str) -> list[float]:
        return offline_embed(text, self.dim)

    def embed_many(self, texts: Sequence[str]) -> list[list[float]]:
        return [self.embed(t) for t in texts]


@dataclass(frozen=True)
class DescriptionRequest:
    image_id: str
    image_bytes: bytes
    mode: DescriptionMode


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
    it, if it did). Any other bad line raises MalformedLineError.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._records: dict = {}
        self._lock = threading.Lock()
        self._cut: Optional[int] = None  # byte offset of a torn final line
        self._lead = ""  # "\n" when the final line decoded but is unterminated
        if not self.path.is_file():
            return
        offset = 0
        with open(self.path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                ended = line.endswith(b"\n")  # only the final line can lack one
                if line.strip():
                    try:
                        key, value = self._decode(json.loads(line))
                        self._records.setdefault(key, value)
                        self._lead = "" if ended else "\n"
                    except (ValueError, KeyError, TypeError) as exc:
                        if ended:
                            raise MalformedLineError(line_no, f"{self.path}: bad cache record: {exc!r}") from exc
                        self._cut = offset
                offset += len(line)

    def __len__(self) -> int:
        return len(self._records)

    def _put(self, key: tuple, value, line: str) -> None:
        with self._lock:
            if key in self._records:
                return
            self._records[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._cut is not None:
                    fh.truncate(self._cut)
                fh.write(self._lead + line + "\n")
                fh.flush()
            self._cut, self._lead = None, ""


class DescriptionCache(_AppendOnlyCache):
    """Cache of generated descriptions, keyed (image_id, mode)."""

    def __init__(self, path: Union[str, Path]):  # benchmarks/tracing.py times this class's own __init__
        super().__init__(path)

    @staticmethod
    def _decode(obj: dict) -> tuple[tuple[str, str], DescriptionRecord]:
        rec = DescriptionRecord(
            image_id=obj["image_id"],
            mode=DescriptionMode(obj["mode"]),
            text=obj["text"],
            model_id=obj.get("model_id", ""),
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
    def _decode(obj: dict) -> tuple[tuple[str, str], list[float]]:
        return (obj["provider"], obj["hash"]), [float(x) for x in obj["vector"]]

    @staticmethod
    def _digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, provider_id: str, text: str) -> Optional[list[float]]:
        return self._records.get((provider_id, self._digest(text)))

    def put(self, provider_id: str, text: str, vector: Sequence[float]) -> None:
        key = (provider_id, self._digest(text))
        vec = [float(x) for x in vector]
        self._put(key, vec, json.dumps({"provider": key[0], "hash": key[1], "vector": vec}))


def describe_image(
    request: DescriptionRequest,
    provider: ChatProvider,
    cache: Optional[DescriptionCache] = None,
) -> DescriptionRecord:
    """Generate (or fetch from cache) a description for one image.

    The cache is consulted first by (image_id, mode); a hit costs zero
    provider calls. On a miss, the mode's prompt template plus the image
    goes to the chat provider and the result is cached.
    """
    if not request.image_bytes:
        raise ValueError(f"{request.image_id}: image_bytes is empty")
    if cache is not None:
        hit = cache.get(request.image_id, request.mode)
        if hit is not None:
            return hit
    prompt = prompt_for_mode(request.mode)
    text = provider.complete(prompt, image_bytes=request.image_bytes).strip()
    if not text:
        raise EmptyResponseError(f"{request.image_id}: empty description")
    record = DescriptionRecord(
        image_id=request.image_id,
        mode=request.mode,
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
) -> list[float]:
    """Embed one text, caching by (provider id, content hash)."""
    return embed_many([text], provider, cache)[0]


def embed_many(
    texts: Sequence[str],
    provider: EmbeddingProvider,
    cache: Optional[EmbeddingCache] = None,
) -> list[list[float]]:
    """Embed texts in order, batching cache misses through the provider."""
    for t in texts:
        if not t or not t.strip():
            raise EmptyTextError("cannot embed empty text")
    out: list[Optional[list[float]]] = [None] * len(texts)
    misses: list[int] = []
    if cache is not None:
        for i, t in enumerate(texts):
            hit = cache.get(provider.provider_id, t)
            if hit is not None:
                out[i] = hit
            else:
                misses.append(i)
    else:
        misses = list(range(len(texts)))
    if misses:
        fresh = provider.embed_many([texts[i] for i in misses])
        for i, vec in zip(misses, fresh):
            out[i] = vec
            if cache is not None:
                cache.put(provider.provider_id, texts[i], vec)
    return [v for v in out if v is not None]


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
    best: Optional[tuple[int, int, IconclassCode]] = None
    for code, _ in candidates:
        pos = response.find(code.raw)
        if pos < 0:
            continue
        key = (pos, -len(code.raw))
        if best is None or key < (best[0], best[1]):
            best = (pos, -len(code.raw), code)
    if best is not None:
        return best[2], False
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
    best_j = -1.0
    best_code = candidates[0][0]
    for code, text in candidates:
        cand_tokens = set(tokenize(text))
        union = desc_tokens | cand_tokens
        j = len(desc_tokens & cand_tokens) / len(union) if union else 0.0
        if j > best_j:
            best_j = j
            best_code = code
    return best_code, False
