"""Small I/O helpers.

Text artifacts are built once and written once. `concat_text` builds a text
from blocks by appending each block to one local str: CPython resizes a str
in place when the appending frame holds its only reference, so no list of
blocks and no second full-size copy is ever held. A caller that keeps a
reference to the partial text (or an interpreter without that optimisation)
gets the same text by repeated copying instead. The builders format their
lines in blocks of _CSV_BLOCK. `atomic_write_text` then encodes the text
_WRITE_SLICE characters at a time; 2^18 keeps a slice and its bytes
(a few hundred KiB) well below the text's own size.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

#: lines per block of a CSV build; bounds the block's temporaries
_CSV_BLOCK = 1 << 12

#: characters per write; the encoder never holds more than one slice's bytes
_WRITE_SLICE = 1 << 18

#: the process umask, read once at import: os.umask can read it only by
#: setting it, which must not happen while other threads create files
_UMASK = os.umask(0o077)
os.umask(_UMASK)


def concat_text(blocks: Iterable[str]) -> str:
    """The concatenation of `blocks`, grown in place in one str."""
    text = ""
    for block in blocks:
        text += block
    return text


def atomic_write_text(path, text: str) -> Path:
    """Write `text` to `path` via a temp file and rename.

    Interrupted runs never leave a truncated file behind. I/O failures are
    re-raised with the destination path in the message. The text is written
    in slices of _WRITE_SLICE characters, so encoding it never makes a second
    full-size copy. The file gets the mode a plain `open` would give it,
    0o666 less the umask, rather than the temp file's 0o600.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
        try:
            with os.fdopen(fd, "w") as fh:
                for i in range(0, len(text), _WRITE_SLICE):
                    fh.write(text[i : i + _WRITE_SLICE])
            os.chmod(tmp, 0o666 & ~_UMASK)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(f"failed to write {target}: {exc}") from exc
    return target
