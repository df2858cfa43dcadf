import ast
import errno
import os
from pathlib import Path

import pytest

import iconclassify
from iconclassify.outputs import write_outputs

SRC = Path(iconclassify.__file__).parent


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_each_output_appears_whole_with_the_mode_open_gives(tmp_path):
    a, meta = tmp_path / "sub" / "a.csv", tmp_path / "sub" / "a.meta.json"
    write_outputs((a, lambda fh: fh.write("x,y\r\n")), (meta, "{}\n"))
    assert a.read_bytes() == b"x,y\r\n"  # no newline translation
    assert meta.read_text() == "{}\n"
    assert sorted(p.name for p in a.parent.iterdir()) == ["a.csv", "a.meta.json"]
    for path in (a, meta):
        assert path.stat().st_mode & 0o777 == 0o666 & ~_umask()


def test_a_fill_may_write_binary_data_to_the_buffer(tmp_path):
    write_outputs((tmp_path / "b", lambda fh: fh.buffer.write(b"\x00\xff")))
    assert (tmp_path / "b").read_bytes() == b"\x00\xff"


def _earlier(tmp_path):
    files = {tmp_path / name: name.encode() for name in ("a.jsonl", "a.csv", "a.meta.json")}
    for path, data in files.items():
        path.write_bytes(data)
    return files


def _failing(exc):
    def fill(fh):
        fh.write("partial")
        raise exc
    return fill


def test_a_failed_fill_leaves_every_earlier_output_and_no_temp(tmp_path):
    earlier = _earlier(tmp_path)
    a, csv, meta = earlier
    with pytest.raises(ValueError, match="bad row"):
        write_outputs((a, "new\n"), (csv, _failing(ValueError("bad row"))), (meta, "{}"))
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == earlier


def test_an_os_error_names_the_output_never_the_temp(tmp_path):
    earlier = _earlier(tmp_path)
    a, csv, meta = earlier
    with pytest.raises(OSError) as info:
        write_outputs((a, "new\n"), (csv, _failing(OSError(errno.ENOSPC, "No space left on device"))), (meta, "{}"))
    assert (info.value.errno, info.value.strerror, info.value.filename) == (
        errno.ENOSPC, "No space left on device", str(csv))
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == earlier


def test_the_marker_goes_before_any_output_is_replaced(tmp_path):
    earlier = _earlier(tmp_path)
    a, csv, meta = earlier
    csv.unlink()
    (csv / "in-the-way").mkdir(parents=True)  # the second rename fails
    with pytest.raises(OSError) as info:
        write_outputs((a, "new\n"), (csv, "new\n"), (meta, "{}"))
    assert info.value.filename == str(csv)
    assert a.read_text() == "new\n"  # renamed before the failure
    assert not meta.exists()  # so no marker vouches for the mixed set
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.jsonl"]


def test_a_symlinked_output_is_replaced_not_written_through(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("kept")
    link.symlink_to(target)
    write_outputs((link, "new"))
    assert not link.is_symlink() and link.read_text() == "new"
    assert target.read_text() == "kept"


# ---------------------------------------------------------------- the one writer

_NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}


def _mode(call: ast.Call, position: int):
    """The mode argument of an open call, or None when it is not a literal string."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value.value if isinstance(kw.value, ast.Constant) else None
    if len(call.args) > position:
        arg = call.args[position]
        return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else None
    return "r"


def _file_writes(source: str) -> list[str]:
    """Each call in `source` that writes, replaces or creates a file by itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes", "tofile") or (owner in ("np", "numpy") and name in _NUMPY_WRITERS) \
                or (owner == "os" and name in ("open", "fdopen", "replace", "rename")):
            found.append(f"line {node.lineno}: {owner + '.' if owner else ''}{name}")
        elif name == "open" and owner != "os":
            # open(file, mode) and io.open(file, mode); a Path's .open(mode)
            mode = _mode(node, 1 if isinstance(func, ast.Name) or owner == "io" else 0)
            if mode is None or "w" in mode or "x" in mode or ("+" in mode and "a" not in mode):
                found.append(f"line {node.lineno}: open in mode {mode!r}")
    return found


@pytest.mark.parametrize("source", [
    'Path(p).write_text("x")', 'p.write_bytes(b"")', 'np.save(p, m)', 'numpy.savez(p, m=m)', 'm.tofile(p)',
    'open(p, "w")', 'open(p, mode="wb")', 'open(p, "x")', 'open(p, "r+b")', 'open(p, m)', 'io.open(p, "w")',
    'Path(p).open("w")', 'os.open(p, os.O_WRONLY)', 'os.replace(a, b)', 'os.rename(a, b)',
])
def test_the_single_writer_check_sees_each_way_to_write(source):
    assert _file_writes(source), source


@pytest.mark.parametrize("source", ['open(p)', 'open(p, "rb")', 'open(p, "a+b")', 'Path(p).open()',
                                    'open(p, encoding="utf-8-sig", newline="")', 's.replace("a", "b")'])
def test_the_single_writer_check_lets_reads_and_appends_pass(source):
    assert not _file_writes(source), source


def test_every_output_file_is_written_through_write_outputs():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "outputs.py" in modules
    found = {path.name: _file_writes(path.read_text(encoding="utf-8")) for path in modules if path.name != "outputs.py"}
    assert not {name: calls for name, calls in found.items() if calls}
