"""The one writer of the files a command leaves behind: each is filled into
a sibling temp file, fsynced, then renamed into place, so it appears whole
or not at all (Pillai et al., OSDI 2014)."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Callable, Iterator, TextIO, Union


def write_outputs(*outputs: tuple[Union[str, Path], Union[str, Callable[[TextIO], object]]]) -> None:
    """Write each (path, content) output of one command, in order. The
    content is the text itself, or a function that writes it into an open
    UTF-8 file (binary data goes to the file's `.buffer`).

    Every output is written and fsynced before any is renamed into place.
    Then the last path, the command's marker (its .meta.json), is removed,
    and the outputs are renamed in order, the marker last, so it never
    vouches for a half-replaced set. A symlink at a path is replaced, not
    written through. On any error no temp file is left, and an OSError
    names the output's path, never the temp's."""
    staged: list[tuple[Path, Path]] = []
    try:
        for path, content in outputs:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)  # its error names the directory
            with _naming(path):
                tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as to open()
                staged.append((path, tmp))
                with open(fd, "w", encoding="utf-8", newline="") as fh:
                    if isinstance(content, str):
                        fh.write(content)
                    else:
                        content(fh)
                    fh.flush()
                    os.fsync(fh.fileno())
        if len(staged) > 1:
            staged[-1][0].unlink(missing_ok=True)
        for path, tmp in staged:
            with _naming(path):
                os.replace(tmp, path)
    except BaseException:
        for _, tmp in staged:
            tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise an OSError as one that names `path`: a failed write names no file, a failed rename the temp."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
