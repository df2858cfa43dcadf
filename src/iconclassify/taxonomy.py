"""Iconclass notation parsing and taxonomy handling.

An Iconclass code such as "73D231" names a path through a hierarchy:
each digit or uppercase letter adds one level, a parenthesized qualifier
like "(PAUL)" adds one level, and a key qualifier like "(+3)" adds one
level per character after the "+". The cumulative prefixes of a code,
one per level, are its segments.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    DuplicateCodeError,
    MalformedCodeError,
    MalformedLineError,
    ManifestParseError,
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


# One level: a digit or capital, a named qualifier such as "(PAUL)", or a key such as "(+34)" whose digits each add
# a level. The alternatives start apart or split on the lookahead, so at most one fits at any offset, and a
# notation's match ends where the grammar stops.
_LEVEL = re.compile(r"[0-9A-Z]|\((?!\+)[^()]+\)|\(\+[0-9]+\)")
_NOTATION = re.compile(rf"[0-9](?:{_LEVEL.pattern})*")


def parse_code(text: str) -> IconclassCode:
    """Parse a notation string, stripped of surrounding whitespace, into its per-level segments.

    Raises MalformedCodeError, naming the notation and the offset where _NOTATION stops, for anything it does not
    match in full.
    """
    raw = text.strip()
    stop = match.end() if (match := _NOTATION.match(raw)) else 0
    if match is None or stop < len(raw):
        raise MalformedCodeError(f"{raw!r}: not an Iconclass notation from offset {stop}")
    segments: list[str] = []
    prefix = ""
    for level in _LEVEL.findall(raw):
        if level[:2] == "(+":  # "(+34)" gives "(+3)" and "(+34)"
            segments += [f"{prefix}{level[:j]})" for j in range(3, len(level))]
        else:
            segments.append(prefix + level)
        prefix += level
    return IconclassCode(raw=raw, segments=tuple(segments))


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

    def __init__(self, entries: dict[str, TaxonomyEntry], stats: LoadStats):
        self._entries = entries
        self.stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TaxonomyEntry]:
        return iter(self._entries.values())

    def __contains__(self, raw: str) -> bool:
        return raw in self._entries

    def get(self, raw: str) -> Optional[TaxonomyEntry]:
        return self._entries.get(raw)


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def decode_json(text: str):
    """json.loads for text read from outside the program. A \\u escape of one half of a surrogate pair alone
    decodes to a code point no UTF can encode (RFC 8259 section 8.2), so it raises ValueError here, before it can
    reach an encoder. Only text with a backslash can hold one, and a one-character search, unlike a search for
    "\\u", costs little beside the decode. Bad JSON raises json.JSONDecodeError, a ValueError, and a value nested
    deeper than the decoder recurses raises RecursionError."""
    value = json.loads(text)
    lone = "\\" in text and _SURROGATE.search(json.dumps(value, ensure_ascii=False))
    if lone:
        raise ValueError(f"a lone surrogate \\u{ord(lone[0]):04x} in a string")
    return value


def _json_object(line: str, line_no: int, where: str) -> dict:
    """Decode one JSON line that must hold an object; `where` prefixes the error."""
    try:
        obj = decode_json(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedLineError(line_no, f"{where}invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLineError(line_no, f"{where}expected a JSON object")
    return obj


def _lines(path: Union[str, Path], digest=None) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a UTF-8 file; a leading byte-order
    mark is skipped, and bad UTF-8 raises MalformedLineError naming the file
    and the line. Each line's bytes go to `digest.update` first, if a hashlib
    object is given, so a read to the end has hashed exactly the bytes read."""
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte gets its own line number
        for line_no, raw in enumerate(fh, start=1):
            if digest is not None:
                digest.update(raw)
            try:
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLineError(line_no, f"{path}: not UTF-8: {exc}") from exc
            yield line_no, line


def iter_jsonl(path: Union[str, Path], digest=None) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file.
    Bad UTF-8, bad JSON or a line that is not an object raises
    MalformedLineError naming the file and the line. `digest` is as in `_lines`."""
    for line_no, line in _lines(path, digest):
        line = line.strip()
        if line:
            yield line_no, _json_object(line, line_no, f"{path}: ")


def iter_csv(path: Union[str, Path], columns: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each row of a UTF-8 CSV file whose header
    names every one of `columns`; a leading byte-order mark is skipped. The
    line number is the row's last physical line, so a quoted field that
    spans lines counts every line. A missing file, a missing column, bad
    UTF-8 or a row the csv module rejects raises ManifestParseError naming
    the file."""
    if not Path(path).is_file():
        raise ManifestParseError(f"{path}: not found")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh, strict=True)  # a quote never closed is an error, not one long field
            if not reader.fieldnames or not set(columns) <= set(reader.fieldnames):
                raise ManifestParseError(f"{path}: CSV needs columns {', '.join(columns)}")
            for record in reader:
                yield reader.line_num, record
    except UnicodeDecodeError as exc:
        raise ManifestParseError(f"{path}: not UTF-8: {exc}") from exc
    except csv.Error as exc:  # an unclosed quote, an oversized field; before Python 3.11, also a NUL byte
        # DictReader sets its own line_num only after a row parses; its csv.reader's counts the bad line
        raise ManifestParseError(f"line {reader.reader.line_num}: {path}: {exc}") from exc


def _parse_line(line: str, line_no: int, where: str) -> tuple[str, str]:
    """One source line -> (code text, description). Two formats are accepted:
    tab-separated "code<TAB>description", or a JSON object with code/txt fields.
    `where` prefixes the error.
    """
    if line.lstrip().startswith("{"):
        obj = _json_object(line, line_no, where)
        if "code" not in obj or "txt" not in obj:
            raise MalformedLineError(line_no, f"{where}JSON record needs 'code' and 'txt' fields")
        for name in ("code", "txt"):
            if not isinstance(obj[name], str):
                raise MalformedLineError(line_no, f"{where}JSON record's {name!r} must be a string")
        return obj["code"], obj["txt"]
    if "\t" not in line:
        raise MalformedLineError(line_no, f"{where}expected code<TAB>description")
    code_text, desc = line.split("\t", 1)
    return code_text, desc


def load_taxonomy(
    source: Union[str, Path, Iterable[str]],
    prefix_filter: Optional[tuple[str, ...]] = DEFAULT_PREFIX_FILTER,
) -> Taxonomy:
    """Load taxonomy entries, keeping only codes whose top level is in prefix_filter.

    Pass prefix_filter=None to keep everything. Blank lines are skipped.
    Raises MalformedLineError (with line number) or DuplicateCodeError; when
    the source is a path, the error names the file.
    """
    is_path = isinstance(source, (str, Path))
    numbered = _lines(source) if is_path else enumerate(source, start=1)
    where = f"{source}: " if is_path else ""
    keep = tuple(prefix_filter) if prefix_filter is not None else None
    entries: dict[str, TaxonomyEntry] = {}
    stats = LoadStats()
    for line_no, line in numbered:
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        stats.lines += 1
        code_text, desc = _parse_line(line, line_no, where)
        try:
            code = parse_code(code_text)
        except MalformedCodeError as exc:
            raise MalformedLineError(line_no, f"{where}{exc}") from exc
        text = desc.strip()
        if not text:
            raise MalformedLineError(line_no, f"{where}{code.raw}: empty description")
        if keep is not None and code.top not in keep:
            stats.filtered += 1
            continue
        if code.raw in entries:
            raise DuplicateCodeError(f"{where}duplicate code {code.raw!r} at line {line_no}")
        entries[code.raw] = TaxonomyEntry(code=code, text=text)
        stats.kept += 1

    if stats.lines == 0:
        log.warning("taxonomy source is empty")
    elif stats.kept == 0:
        log.warning("all %d taxonomy entries were filtered out", stats.lines)
    return Taxonomy(entries, stats)


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
