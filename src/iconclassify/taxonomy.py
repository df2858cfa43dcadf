"""Iconclass notation parsing and taxonomy handling.

An Iconclass code such as "73D231" names a path through a hierarchy:
each digit or uppercase letter adds one level, a parenthesized qualifier
like "(PAUL)" adds one level, and a key qualifier like "(+3)" adds one
level per character after the "+". The cumulative prefixes of a code,
one per level, are its segments.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    DuplicateCodeError,
    MalformedCodeError,
    MalformedLineError,
    MissingAncestorError,
)

log = logging.getLogger(__name__)

DEFAULT_PREFIX_FILTER = ("1", "7")


@dataclass(frozen=True)
class IconclassCode:
    """A parsed code: the raw notation plus its cumulative per-level prefixes."""

    raw: str
    segments: tuple[str, ...]

    @property
    def levels(self) -> int:
        return len(self.segments)

    @property
    def top(self) -> str:
        """The broadest level, e.g. "7" for "73D231"."""
        return self.segments[0]

    def __str__(self) -> str:
        return self.raw


def parse_code(text: str) -> IconclassCode:
    """Parse a notation string into its per-level segments.

    Raises MalformedCodeError for empty input, a non-digit first character,
    lowercase or whitespace outside parentheses, unbalanced or empty
    parentheses, or an empty "(+)" key.
    """
    raw = text.strip()
    if not raw:
        raise MalformedCodeError("empty code")
    if not raw[0].isdigit():
        raise MalformedCodeError(f"{raw!r}: codes start with a digit")

    segments: list[str] = []
    prefix = ""
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "(":
            end = raw.find(")", i + 1)
            if end < 0:
                raise MalformedCodeError(f"{raw!r}: unbalanced parenthesis")
            inner = raw[i + 1 : end]
            if "(" in inner:
                raise MalformedCodeError(f"{raw!r}: nested parenthesis")
            if inner.startswith("+"):
                key = inner[1:]
                if not key:
                    raise MalformedCodeError(f"{raw!r}: empty key qualifier")
                # a key adds one level per character after the "+"
                for j in range(1, len(key) + 1):
                    segments.append(f"{prefix}(+{key[:j]})")
            elif inner:
                segments.append(f"{prefix}({inner})")
            else:
                raise MalformedCodeError(f"{raw!r}: empty qualifier")
            prefix = segments[-1]
            i = end + 1
        elif ch == ")":
            raise MalformedCodeError(f"{raw!r}: unbalanced parenthesis")
        elif ch.isdigit() or ("A" <= ch <= "Z"):
            segments.append(prefix + ch)
            prefix = segments[-1]
            i += 1
        else:
            raise MalformedCodeError(f"{raw!r}: invalid character {ch!r}")

    return IconclassCode(raw=raw, segments=tuple(segments))


def parent_chain(code: IconclassCode) -> list[IconclassCode]:
    """All ancestors from the root down, ending with the code itself."""
    return [
        IconclassCode(raw=code.segments[i], segments=code.segments[: i + 1])
        for i in range(len(code.segments))
    ]


def common_depth(a: IconclassCode, b: IconclassCode) -> int:
    """Number of leading levels on which the two codes agree."""
    depth = 0
    for sa, sb in zip(a.segments, b.segments):
        if sa != sb:
            break
        depth += 1
    return depth


def truncate_code(code: IconclassCode, k: int) -> IconclassCode:
    """Drop the last k levels, never going shallower than one level."""
    if k < 0:
        raise ValueError("k must be >= 0")
    keep = max(1, code.levels - k)
    if keep == code.levels:
        return code
    return IconclassCode(raw=code.segments[keep - 1], segments=code.segments[:keep])


class DatabaseKind(str, Enum):
    """Which rendering of an entry gets indexed."""

    BASIC = "basic"
    HIERARCHICAL = "hierarchical"


@dataclass(frozen=True)
class TaxonomyEntry:
    code: IconclassCode
    text: str


@dataclass
class LoadStats:
    lines: int = 0
    kept: int = 0
    filtered: int = 0


class Taxonomy:
    """An in-memory code -> entry mapping with load statistics."""

    def __init__(self, entries: dict[str, TaxonomyEntry], prefix_filter: Optional[tuple[str, ...]], stats: LoadStats):
        self._entries = entries
        self.prefix_filter = prefix_filter
        self.stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TaxonomyEntry]:
        return iter(self._entries.values())

    def __contains__(self, code: Union[str, IconclassCode]) -> bool:
        raw = code.raw if isinstance(code, IconclassCode) else code
        return raw in self._entries

    def get(self, code: Union[str, IconclassCode]) -> Optional[TaxonomyEntry]:
        raw = code.raw if isinstance(code, IconclassCode) else code
        return self._entries.get(raw)


def _json_object(line: str, line_no: int, where: str = "") -> dict:
    """Decode one JSON line that must hold an object; `where` prefixes the error."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(line_no, f"{where}invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLineError(line_no, f"{where}expected a JSON object")
    return obj


def iter_jsonl(path: Union[str, Path]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file.
    Bad UTF-8, bad JSON or a line that is not an object raises
    MalformedLineError naming the file and the line."""
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte gets its own line number
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedLineError(line_no, f"{path}: not UTF-8: {exc}") from exc
            if line:
                yield line_no, _json_object(line, line_no, f"{path}: ")


def _parse_line(line: str, line_no: int) -> tuple[str, str]:
    """One source line -> (code text, description). Two formats are accepted:
    tab-separated "code<TAB>description", or a JSON object with code/txt fields.
    """
    if line.lstrip().startswith("{"):
        obj = _json_object(line, line_no)
        if "code" not in obj or "txt" not in obj:
            raise MalformedLineError(line_no, "JSON record needs 'code' and 'txt' fields")
        return str(obj["code"]), str(obj["txt"])
    if "\t" not in line:
        raise MalformedLineError(line_no, "expected code<TAB>description")
    code_text, desc = line.split("\t", 1)
    return code_text, desc


def load_taxonomy(
    source: Union[str, Path, Iterable[str]],
    prefix_filter: Optional[tuple[str, ...]] = DEFAULT_PREFIX_FILTER,
) -> Taxonomy:
    """Load taxonomy entries, keeping only codes whose top level is in prefix_filter.

    Pass prefix_filter=None to keep everything. Blank lines are skipped.
    Raises MalformedLineError (with line number) or DuplicateCodeError.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return load_taxonomy(list(fh), prefix_filter)

    keep = tuple(prefix_filter) if prefix_filter is not None else None
    entries: dict[str, TaxonomyEntry] = {}
    stats = LoadStats()
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        stats.lines += 1
        code_text, desc = _parse_line(line, line_no)
        try:
            code = parse_code(code_text)
        except MalformedCodeError as exc:
            raise MalformedLineError(line_no, str(exc)) from exc
        text = desc.strip()
        if not text:
            raise MalformedLineError(line_no, f"{code.raw}: empty description")
        if keep is not None and code.top not in keep:
            stats.filtered += 1
            continue
        if code.raw in entries:
            raise DuplicateCodeError(f"duplicate code {code.raw!r} at line {line_no}")
        entries[code.raw] = TaxonomyEntry(code=code, text=text)
        stats.kept += 1

    if stats.lines == 0:
        log.warning("taxonomy source is empty")
    elif stats.kept == 0:
        log.warning("all %d taxonomy entries were filtered out", stats.lines)
    return Taxonomy(entries, keep, stats)


def render_basic_doc(entry: TaxonomyEntry) -> str:
    """Document text for the basic database: the entry's own description."""
    return entry.text.strip()


def render_hierarchical_doc(entry: TaxonomyEntry, taxonomy: Taxonomy) -> str:
    """Document text for the hierarchical database: every ancestor's
    description from the root down, then the entry's own, joined by "; ".

    Raises MissingAncestorError naming any absent ancestor codes.
    """
    parts: list[str] = []
    missing: list[str] = []
    for seg in entry.code.segments[:-1]:
        ancestor = taxonomy.get(seg)
        if ancestor is None:
            missing.append(seg)
        else:
            parts.append(ancestor.text.strip())
    if missing:
        raise MissingAncestorError(entry.code.raw, missing)
    parts.append(entry.text.strip())
    return "; ".join(parts)


def render_doc(entry: TaxonomyEntry, taxonomy: Taxonomy, kind: DatabaseKind) -> str:
    if kind is DatabaseKind.BASIC:
        return render_basic_doc(entry)
    return render_hierarchical_doc(entry, taxonomy)
