"""Atomic file writes: no reader ever sees a half-written artifact."""

from __future__ import annotations

import os
import tempfile

# The mode open(path, "wb") gives a new file; mkstemp would leave 0600.
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename over path;
    the file gets the mode a plain open gives a new one."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, _FILE_MODE)
            fh.write(data)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            # name path alone: a set filename2 would still print "-> None"
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
