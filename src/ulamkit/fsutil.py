"""Atomic file writes: no reader ever sees a half-written artifact."""

from __future__ import annotations

import os


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename over path;
    the file gets the mode a plain open gives a new one, as the kernel
    applies the umask to the 0o666 it is created with."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    try:
        with os.fdopen(fd, "wb") as fh:
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
