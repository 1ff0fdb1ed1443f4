"""Binary on-disk format for computed prefixes.

Layout: 5-byte magic "ULAM1", then a, b, term_count, horizon as unsigned
64-bit little-endian, then the first term and the successive gaps as
unsigned LEB128 varints, then a CRC-32 of everything preceding it as
unsigned 32-bit little-endian. Gaps rather than terms keep typical files
near one byte per term. The checksum is verified before any other field
is read, and terms or a horizon beyond the engine's 2**62 value limit make
the file corrupt.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .engine import (_VALUE_LIMIT, MAX_HORIZON_DEFAULT, UlamParams, UlamPrefix,
                     _check_count, _check_target, _grow_to_count, extend,
                     generate_to_horizon, validate_params)
from .errors import (CorruptCache, HorizonTooLarge, InvalidParameters,
                     VersionMismatch)
from .fsutil import atomic_write_bytes

MAGIC = b"ULAM1"
_HEADER = struct.Struct("<4Q")
_CRC = struct.Struct("<I")


def _encode_varints(values: np.ndarray) -> bytes:
    """Concatenated LEB128 encodings of nonnegative uint64 values."""
    levels = []  # per 7-bit group: indices of the values still going, bytes
    lengths = np.zeros(values.size, dtype=np.int64)
    idx = np.arange(values.size)
    rest = values
    while idx.size:
        more = rest >= 0x80
        group = (rest & 0x7F).astype(np.uint8)
        group[more] |= 0x80
        levels.append((idx, group))
        lengths[idx] += 1
        idx, rest = idx[more], rest[more] >> 7
    starts = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    for j, (idx, group) in enumerate(levels):
        out[starts[idx] + j] = group
    return out.tobytes()


def _decode_terms(payload: np.ndarray, term_count: int) -> np.ndarray:
    """Terms from the first varint and the gaps after it.

    Reports the first fault a byte-at-a-time reader would meet: an overlong
    varint, a gap below 1 or a term beyond the engine's value limit, in
    that order at each position, then a payload that ends too soon or has
    bytes left over.
    """
    ends = np.flatnonzero(payload < 0x80)[:term_count]
    lengths = np.diff(ends, prepend=-1)
    starts = ends - lengths + 1
    values = (payload[starts] & 0x7F).astype(np.uint64)
    high = np.zeros(ends.size, dtype=bool)  # bits at or above 2**63 set
    idx = np.flatnonzero(lengths > 1)
    for j in range(1, 10):
        group = payload[starts[idx] + j] & 0x7F
        if j < 9:
            values[idx] |= group.astype(np.uint64) << (7 * j)
        else:
            high[idx] = group != 0
        idx = idx[lengths[idx] > j + 1]
    overlong = lengths > 10
    zero = (values == 0) & ~high
    zero[:1] = False  # the first varint is a term, not a gap
    too_big = high | (values > _VALUE_LIMIT)
    # Every summand is at most 2**62, so the sums are exact in uint64 up
    # to and including the first one past the limit.
    sums = np.cumsum(np.where(overlong | too_big, 0, values))
    too_big |= sums > _VALUE_LIMIT
    bad = np.flatnonzero(overlong | zero | too_big)
    if bad.size:
        i = int(bad[0])
        if overlong[i]:
            raise CorruptCache("varint exceeds 64 bits")
        if zero[i]:
            raise CorruptCache(f"non-increasing gap at term {i}")
        raise CorruptCache(f"term {i} exceeds the value limit 2**62")
    used = int(ends[-1]) + 1 if ends.size else 0
    if ends.size < term_count:
        # the bytes after the last terminator all continue one varint
        raise CorruptCache("varint exceeds 64 bits" if payload.size - used > 10
                           else "varint runs past payload end")
    if used != payload.size:
        raise CorruptCache(f"{payload.size - used} unread payload bytes")
    return sums.astype(np.int64)


def encode_prefix(prefix: UlamPrefix) -> bytes:
    terms = prefix.terms
    values = np.empty(len(terms), dtype=np.uint64)
    values[0] = terms[0]
    values[1:] = np.diff(terms)
    body = (MAGIC + _HEADER.pack(prefix.params.a, prefix.params.b,
                                 len(terms), prefix.horizon)
            + _encode_varints(values))
    return body + _CRC.pack(zlib.crc32(body))


def decode_prefix(data: bytes) -> UlamPrefix:
    if len(data) < len(MAGIC) + _HEADER.size + _CRC.size:
        raise CorruptCache(f"file too short ({len(data)} bytes)")
    (stored_crc,) = _CRC.unpack_from(data, len(data) - _CRC.size)
    if zlib.crc32(data[:-_CRC.size]) != stored_crc:
        raise CorruptCache("checksum mismatch")
    magic = data[:len(MAGIC)]
    if magic != MAGIC:
        if magic[:4] == MAGIC[:4]:
            raise VersionMismatch(
                f"unsupported cache version {magic[4:5]!r}; expected "
                f"{MAGIC[4:5]!r}")
        raise CorruptCache(f"bad magic {magic!r}")
    a, b, term_count, horizon = _HEADER.unpack_from(data, len(MAGIC))
    try:
        params = validate_params(a, b)
    except InvalidParameters as exc:
        raise CorruptCache(f"invalid parameters in header: {exc}") from exc
    if term_count < 2:
        raise CorruptCache(f"term count {term_count} below the two seeds")
    start = len(MAGIC) + _HEADER.size
    payload = np.frombuffer(data, dtype=np.uint8, offset=start,
                            count=len(data) - _CRC.size - start)
    terms = _decode_terms(payload, term_count)
    if int(terms[0]) != a or int(terms[1]) != b:
        raise CorruptCache("payload does not start with a, b")
    if horizon < int(terms[-1]):
        raise CorruptCache(
            f"horizon {horizon} below last term {int(terms[-1])}")
    if horizon > _VALUE_LIMIT:
        raise CorruptCache(f"horizon {horizon} exceeds the value limit 2**62")
    return UlamPrefix(params, terms, int(horizon))


def cache_write(prefix: UlamPrefix, path) -> None:
    atomic_write_bytes(Path(path), encode_prefix(prefix))


def cache_read(path) -> UlamPrefix:
    with open(path, "rb") as fh:
        return decode_prefix(fh.read())


def cache_path(cache_dir, params: UlamParams) -> Path:
    return Path(cache_dir) / f"u{params.a}_{params.b}.ulam"


class PrefixStore:
    """The one cache-aware source of prefixes: a file per pair in `directory`.

    `get` and `get_count` give the results and errors of generate_to_horizon
    and generate_count; a cached count prefix may reach further. A corrupt
    file is warned about and ignored. Only a prefix that grew is written,
    also when a count stops at max_horizon. directory=None touches no disk.
    """

    def __init__(self, directory=None, max_horizon: int = MAX_HORIZON_DEFAULT):
        self.directory = None if directory is None else Path(directory)
        self.max_horizon = max_horizon

    def get(self, params: UlamParams, horizon: int) -> UlamPrefix:
        """The prefix with exactly this horizon."""
        _check_target(params, horizon, self.max_horizon)
        path, cached = self._load(params)
        if cached is not None and cached.horizon >= horizon:
            return cached if cached.horizon == horizon else cached.restrict(horizon)
        prefix = (generate_to_horizon(params, horizon, self.max_horizon)
                  if cached is None else extend(cached, horizon, self.max_horizon))
        self._save(path, prefix)
        return prefix

    def get_count(self, params: UlamParams, k: int) -> UlamPrefix:
        """A prefix holding at least the first k terms."""
        _check_count(k)
        path, cached = self._load(params)
        prefix = (generate_to_horizon(params, params.b, self.max_horizon)
                  if cached is None else cached)
        try:
            prefix = _grow_to_count(prefix, k, self.max_horizon)
        except HorizonTooLarge as exc:
            if exc.partial is not cached:
                self._save(path, exc.partial)
            raise
        if prefix is not cached:
            self._save(path, prefix)
        return prefix

    def _load(self, params: UlamParams) -> tuple[Path | None, UlamPrefix | None]:
        if self.directory is None:
            return None, None
        path = cache_path(self.directory, params)
        if not path.exists():
            return path, None
        try:
            cached = cache_read(path)
        except (CorruptCache, VersionMismatch) as exc:
            print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
            return path, None
        return path, cached if cached.params == params else None

    def _save(self, path: Path | None, prefix: UlamPrefix) -> None:
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            cache_write(prefix, path)
