"""Durable file-write primitives shared by every persistence path.

The repo's writers (checkpoints, manifests, the run store) all
follow the same atomic pattern — write a sibling temp file,
then :func:`os.replace` over the destination — but atomicity alone
only protects against a crash *mid-write*.  Without an ``fsync`` of
the file before the rename, and of the containing directory after it,
a power loss (or a container killed at the block layer) can leave the
rename durable while the file contents are not, or vice versa: a
"successfully written" checkpoint that reads back empty.

This module is the one place the full durable-rename protocol lives:

1. write the temp file;
2. ``flush`` + ``fsync`` the file descriptor (contents reach the disk);
3. ``os.replace`` onto the destination (atomic on POSIX);
4. ``fsync`` the parent directory (the *name* reaches the disk).

Platforms where directories cannot be opened for fsync (Windows)
silently skip step 4 — rename atomicity still holds there.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
    "fsync_rename",
]


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush a directory entry table to disk (no-op where unsupported)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def fsync_rename(tmp: Union[str, Path], dst: Union[str, Path]) -> None:
    """Atomically and *durably* move ``tmp`` over ``dst``.

    The caller must already have fsynced ``tmp``'s contents (the
    ``atomic_write_*`` helpers do); this performs the rename and then
    fsyncs the destination directory so the new name survives a crash.
    """
    dst = Path(dst)
    os.replace(str(tmp), str(dst))
    fsync_dir(dst.parent if str(dst.parent) else ".")


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Durably replace ``path`` with ``data`` (temp + fsync + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_rename(tmp, path)
    return path


def atomic_write_json(
    path: Union[str, Path],
    obj,
    indent=None,
    sort_keys: bool = False,
    trailing_newline: bool = False,
) -> Path:
    """Durably replace ``path`` with ``obj`` serialized as JSON."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))
