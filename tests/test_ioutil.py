import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarkit import ioutil
from polarkit.ioutil import atomic_write_text


def _default_encoding():
    # The encoding of a text-mode file opened without one.
    with open(os.devnull, "w") as fh:
        return fh.encoding


# 2^20 was the default slice before it was cut to 2^18; both stay covered.
@pytest.mark.parametrize("slice_chars", [1 << 20, ioutil._WRITE_SLICE, 5])
def test_atomic_write_text_is_byte_identical_across_slices(
    tmp_path, monkeypatch, slice_chars
):
    monkeypatch.setattr(ioutil, "_WRITE_SLICE", slice_chars)
    # Multi-byte characters straddle the first slice boundary and, repeated
    # with a period prime to 5, land on every later small-slice boundary.
    base = "a,b;é€\n" * (slice_chars // 7 + 1)
    text = base[: slice_chars - 1] + "€ü𝄞" + base * 2 + "é"
    assert len(text) > 2 * slice_chars
    target = tmp_path / "out.csv"
    assert atomic_write_text(target, text) == target
    assert target.read_bytes() == text.encode(_default_encoding())
    assert os.listdir(tmp_path) == ["out.csv"]  # no temporary file left


def test_atomic_write_text_writes_empty_text(tmp_path):
    target = tmp_path / "empty.csv"
    target.write_text("old contents")
    atomic_write_text(target, "")
    assert target.read_bytes() == b""


def test_atomic_write_text_cleans_up_after_a_failed_write(tmp_path, monkeypatch):
    # A lone surrogate has no encoding, so the write fails after the first
    # slices have gone to the temporary file.
    monkeypatch.setattr(ioutil, "_WRITE_SLICE", 4)
    target = tmp_path / "out.csv"
    target.write_bytes(b"old contents")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new contents\ud800")
    assert target.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.csv"]  # no temporary file left


def test_atomic_write_text_keeps_the_write_error_when_clean_up_fails(
    tmp_path, monkeypatch
):
    # The temporary file cannot be removed either: the write's own error is
    # the one raised, and the destination is untouched.
    monkeypatch.setattr(ioutil, "_WRITE_SLICE", 4)
    removed = []

    def unlink_fails(path):
        removed.append(path)
        raise PermissionError(path)

    monkeypatch.setattr(ioutil.os, "unlink", unlink_fails)
    target = tmp_path / "out.csv"
    target.write_bytes(b"old contents")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new contents\ud800")
    assert target.read_bytes() == b"old contents"
    (left,) = removed
    assert sorted(os.listdir(tmp_path)) == sorted(["out.csv", os.path.basename(left)])


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_atomic_write_text_gives_the_mode_of_a_plain_file(tmp_path, umask):
    # In a child started under `umask`, since the module reads it at import:
    # the written file's mode equals that of a file made by open().
    script = (
        "import os, sys\n"
        "from polarkit.ioutil import atomic_write_text\n"
        "atomic_write_text(sys.argv[1], 'x')\n"
        "open(sys.argv[2], 'w').close()\n"
        "print(oct(os.stat(sys.argv[1]).st_mode & 0o777),"
        " oct(os.stat(sys.argv[2]).st_mode & 0o777))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ioutil.__file__).parents[1]))
    paths = [str(tmp_path / "atomic"), str(tmp_path / "plain")]
    done = subprocess.run(
        [sys.executable, "-c", script, *paths],
        env=env, umask=umask, capture_output=True, text=True, timeout=60, check=True,
    )
    want = oct(0o666 & ~umask)
    assert done.stdout.split() == [want, want]
