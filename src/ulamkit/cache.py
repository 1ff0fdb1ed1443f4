"""Binary on-disk format for computed prefixes, the store that serves them,
and the membership and counting queries the store answers.

Layout: 5-byte magic "ULAM1", then a, b, term_count, horizon as unsigned
64-bit little-endian, then the first term and the successive gaps as
unsigned LEB128 varints, then a CRC-32 of everything preceding it as
unsigned 32-bit little-endian. Gaps rather than terms keep typical files
near one byte per term. The checksum is verified before any other field
is read, and terms or a horizon beyond the engine's 2**62 value limit make
the file corrupt.
"""

from __future__ import annotations

import re
import struct
import sys
import zlib
from bisect import bisect_right
from itertools import accumulate
from operator import sub
from pathlib import Path

from .engine import (_VALUE_LIMIT, MAX_HORIZON_DEFAULT, UlamParams, UlamPrefix,
                     _check_target, extend, generate_to_horizon,
                     validate_params)
from .errors import (CorruptCache, HorizonTooLarge, InvalidParameters,
                     VersionMismatch)
from .fsutil import atomic_write_bytes

MAGIC = b"ULAM1"
_HEADER = struct.Struct("<4Q")
_CRC = struct.Struct("<I")
# A run of continuation bytes: with the byte after it, one varint of two or
# more bytes. Every byte outside such runs is a whole one-byte varint.
_CONTINUED = re.compile(rb"[\x80-\xff]+")
# get_count's margin over the density estimate of the k-th term, as a
# divisor. From a prefix holding 60% of k, the estimate falls short by at
# most 1/6 for the pairs and horizons scripts/kernel_threshold.py measures
# wherever one step of at most 2h can reach k: by 16% for U(1,1000) at
# 3·2^17, by at most 2.2% for U(1,2), U(1,3) and U(2,5).
_COUNT_MARGIN = 6


def _encode_varints(values: list[int]) -> bytes:
    """Concatenated LEB128 encodings of nonnegative values below 2**64."""
    out = bytearray()
    pos = 0
    for i in [i for i, v in enumerate(values) if v > 0x7F]:
        out += bytes(values[pos:i])
        v = values[i]
        while v > 0x7F:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
        pos = i + 1
    out += bytes(values[pos:])
    return bytes(out)


def _decode_terms(payload: bytes, term_count: int) -> list[int]:
    """Terms from the first varint and the gaps after it.

    Reports the first fault a byte-at-a-time reader would meet: an overlong
    varint, a gap below 1 or a term beyond the engine's value limit, in
    that order at each position, then a payload that ends too soon or has
    bytes left over. Runs of one-byte varints are summed by accumulate;
    only the longer varints take a Python step each.
    """
    terms: list[int] = []
    total = pos = 0
    end = len(payload)
    runs = _CONTINUED.finditer(payload)
    while True:
        run = next(runs, None)
        start = end if run is None else run.start()
        i = len(terms)
        chunk = payload[pos:min(start, pos + term_count - i)]
        zero = chunk.find(0, 0 if i else 1)  # the first varint is a term
        if zero >= 0:
            chunk = chunk[:zero]
        sums = accumulate(chunk, initial=total)
        next(sums)  # total itself
        terms += sums
        total = terms[-1] if terms else 0
        if total > _VALUE_LIMIT:
            raise CorruptCache(f"term {bisect_right(terms, _VALUE_LIMIT, i)} "
                               "exceeds the value limit 2**62")
        if zero >= 0:
            raise CorruptCache(f"non-increasing gap at term {len(terms)}")
        pos += len(chunk)
        if len(terms) == term_count:
            break
        stop = end if run is None else run.end()
        if stop - start >= 10 and start + 10 < end:
            raise CorruptCache("varint exceeds 64 bits")
        if stop == end:
            raise CorruptCache("varint runs past payload end")
        value = 0
        for shift, byte in zip(range(0, 70, 7), payload[start:stop + 1]):
            value |= (byte & 0x7F) << shift
        if terms and value == 0:
            raise CorruptCache(f"non-increasing gap at term {len(terms)}")
        total += value
        if total > _VALUE_LIMIT:
            raise CorruptCache(f"term {len(terms)} exceeds the value limit 2**62")
        terms.append(total)
        pos = stop + 1
    if pos != end:
        raise CorruptCache(f"{end - pos} unread payload bytes")
    return terms


def encode_prefix(prefix: UlamPrefix) -> bytes:
    terms = prefix.term_list()
    body = (MAGIC + _HEADER.pack(prefix.params.a, prefix.params.b,
                                 len(terms), prefix.horizon)
            + _encode_varints([terms[0], *map(sub, terms[1:], terms)]))
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
    terms = _decode_terms(data[start:-_CRC.size], term_count)
    if terms[0] != a or terms[1] != b:
        raise CorruptCache("payload does not start with a, b")
    if horizon < terms[-1]:
        raise CorruptCache(f"horizon {horizon} below last term {terms[-1]}")
    if horizon > _VALUE_LIMIT:
        raise CorruptCache(f"horizon {horizon} exceeds the value limit 2**62")
    return UlamPrefix(params, terms, horizon)


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
    or unreadable file is warned about and ignored, and so is a failed
    write. Only a prefix that grew is written, also when a count stops at
    max_horizon. directory=None touches no disk.
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
        """A prefix holding at least the first k terms. From b, or from the
        cached horizon, h0, each step from h goes to where the prefix's own
        density puts the k-th term, ceil(h*k / len), plus 1/_COUNT_MARGIN
        of that; at most to the next of h0, 2·h0, 4·h0, ... above h, where
        doubling would stop, and to max_horizon. At max_horizon the error
        keeps the prefix as `partial`."""
        if k < 1:
            raise InvalidParameters(f"k must be positive, got {k}")
        path, cached = self._load(params)
        prefix = (generate_to_horizon(params, params.b, self.max_horizon)
                  if cached is None else cached)
        h0 = prefix.horizon
        while len(prefix) < k and prefix.horizon < self.max_horizon:
            h = prefix.horizon
            estimate = -(-h * k // len(prefix))
            prefix = extend(prefix, min(estimate + estimate // _COUNT_MARGIN,
                                        h0 << (h // h0).bit_length(),
                                        self.max_horizon),
                            self.max_horizon)
        if prefix is not cached:
            self._save(path, prefix)
        if len(prefix) < k:
            raise HorizonTooLarge(2 * prefix.horizon, self.max_horizon,
                                  partial=prefix)
        return prefix

    def _load(self, params: UlamParams) -> tuple[Path | None, UlamPrefix | None]:
        if self.directory is None:
            return None, None
        path = cache_path(self.directory, params)
        if not path.exists():
            return path, None
        try:
            cached = cache_read(path)
        except (CorruptCache, VersionMismatch, OSError) as exc:
            print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
            return path, None
        return path, cached if cached.params == params else None

    def _save(self, path: Path | None, prefix: UlamPrefix) -> None:
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                cache_write(prefix, path)
            except OSError as exc:
                print(f"warning: not writing cache {path}: {exc}",
                      file=sys.stderr)


def generate_count(params: UlamParams, k: int,
                   max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """A prefix holding at least the first k terms: PrefixStore().get_count
    at this cap, which grows the horizon from b."""
    return PrefixStore(None, max_horizon).get_count(params, k)


def _source(store: PrefixStore | None) -> PrefixStore:
    """`store`, or a PrefixStore that touches no disk, at the default cap."""
    return PrefixStore() if store is None else store


def is_member(params: UlamParams, m: int,
              store: PrefixStore | None = None) -> bool:
    """Membership of m, decided on the prefix to max(m, b)."""
    if m < 1:
        raise InvalidParameters(f"m must be positive, got {m}")
    return _source(store).get(params, max(m, params.b)).contains(m)


def nth_term(params: UlamParams, k: int,
             store: PrefixStore | None = None) -> int:
    """The k-th smallest term (1-based)."""
    return _source(store).get_count(params, k).ints[k - 1]


def count_upto(params: UlamParams, n: int,
               store: PrefixStore | None = None) -> int:
    """|U(a,b) intersect [0, n]|."""
    if n < 0:
        raise InvalidParameters(f"n must be nonnegative, got {n}")
    if n < params.a:
        return 0
    return _source(store).get(params, max(n, params.b)).count_to(n)
