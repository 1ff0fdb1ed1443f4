"""Independent brute-force reference implementations used by the tests.

Everything here follows the definitions directly, with no sieving or
incremental state, so it is slow but obviously correct. The real package
must agree with these bit for bit on small inputs.
"""

import re
import struct
import zlib
from fractions import Fraction

import numpy as np

from ulamkit.engine import UlamPrefix, validate_params
from ulamkit.errors import CorruptCache, InvalidParameters, VersionMismatch
from ulamkit.regularity import PeriodicityCandidate


def naive_ulam(a, b, horizon):
    """All terms of the sequence starting a, b up to horizon, by definition.

    A candidate m joins when it has exactly one representation m = x + y
    with x < y both already in the sequence.
    """
    assert 1 <= a < b
    terms = [a, b]
    term_set = {a, b}
    for m in range(b + 1, horizon + 1):
        reps = 0
        for x in terms:
            if 2 * x >= m:
                break
            if (m - x) in term_set:
                reps += 1
                if reps > 1:
                    break
        if reps == 1:
            terms.append(m)
            term_set.add(m)
    return [t for t in terms if t <= horizon]


def scatter_generate(a, b, horizon):
    """Terms up to horizon by the fancy-index scatter sieve.

    This is the engine's sieve before the byte-add kernel: an int32 table
    holds each undecided integer's exact pair count, and each admitted term
    u bumps u + v for every earlier term v inside the horizon.
    """
    counts = np.zeros(horizon + 1, dtype=np.int32)
    if a + b <= horizon:
        counts[a + b] = 1
    return _scatter_run([a, b], counts, b + 1, horizon)


def scatter_extend(terms, horizon, new_horizon):
    """Continue the terms up to horizon to new_horizon, by the scatter sieve.

    The pair counts for the window (horizon, new_horizon] are rebuilt from
    the stored terms, then the sieve resumes above horizon.
    """
    old = np.asarray(terms, dtype=np.int64)
    counts = np.zeros(new_horizon + 1, dtype=np.int32)
    # Adjacent-pair sums increase, so only a suffix has sums in the window.
    first_j = int(np.searchsorted(old[1:] + old[:-1], horizon,
                                  side="right")) + 1
    for j in range(first_j, len(old)):
        u = int(old[j])
        lo = int(np.searchsorted(old[:j], horizon - u, side="right"))
        hi = int(np.searchsorted(old[:j], new_horizon - u, side="right"))
        if hi > lo:
            counts[u + old[lo:hi]] += 1
    return _scatter_run(old, counts, horizon + 1, new_horizon)


def _scatter_run(known, counts, scan_pos, horizon):
    terms = np.empty(max(4096, 2 * len(known)), dtype=np.int64)
    n_terms = len(known)
    terms[:n_terms] = known
    while True:
        hit = -1
        for pos in range(scan_pos, horizon + 1, 256):
            idx = np.flatnonzero(counts[pos:min(pos + 256, horizon + 1)] == 1)
            if idx.size:
                hit = pos + int(idx[0])
                break
        if hit < 0:
            return terms[:n_terms].tolist()
        if n_terms == terms.size:
            terms = np.concatenate([terms, np.empty_like(terms)])
        terms[n_terms] = hit
        # The sums hit + v are pairwise distinct, so a fancy-indexed add
        # is exact.
        cut = int(np.searchsorted(terms[:n_terms], horizon - hit,
                                  side="right"))
        counts[hit + terms[:cut]] += 1
        n_terms += 1
        scan_pos = hit + 1


def rep_table(terms, horizon):
    """Exact pair-sum counts: table[n] = #{x < y in terms : x + y = n}."""
    arr = np.asarray(terms, dtype=np.int64)
    sums = (arr[:, None] + arr[None, :])[np.triu_indices(len(arr), k=1)]
    sums = sums[sums <= horizon]
    table = np.zeros(horizon + 1, dtype=np.int64)
    if sums.size:
        np.add.at(table, sums, 1)
    return table


def naive_rep_count(terms, n):
    """Number of unordered pairs of distinct terms summing to n."""
    term_set = set(terms)
    return sum(1 for x in terms if 2 * x < n and (n - x) in term_set)


def naive_runs(values):
    """Maximal-interval decomposition of a sorted duplicate-free list."""
    out = []
    for v in values:
        if out and v == out[-1][1] + 1:
            out[-1][1] = v
        else:
            out.append([v, v])
    return [(lo, hi) for lo, hi in out]


def random_component(rng):
    """Seeded generator covering the full component field space."""
    from ulamkit.patterns import PatternComponent
    L = rng.randint(1, 8)
    size = rng.randint(0, L)
    S = frozenset(rng.sample(range(L), size))
    unbounded = rng.random() < 0.15
    return PatternComponent(
        A1=rng.randint(-50, 50), A2=rng.randint(-50, 50),
        B1=rng.randint(-50, 50), B2=rng.randint(-50, 50),
        p=rng.randint(-1000, 1000), q=rng.randint(-1000, 1000),
        L=L, S=S, unbounded=unbounded,
    )


def random_code(rng, max_components=6):
    from ulamkit.patterns import Applicability, PatternCode
    comps = tuple(random_component(rng)
                  for _ in range(rng.randint(0, max_components)))
    applicability = None
    if rng.random() < 0.5:
        modulus = rng.randint(1, 12)
        applicability = Applicability(modulus, rng.randint(0, modulus - 1))
    return PatternCode(comps, applicability)


PRESBURGER = re.compile(
    r"^(?:⊥|x = (-?\d+)|∃t \(x = (-?\d+) \+ (-?\d+)·t\))$"
)


def parse_presburger(text):
    """Tiny evaluator for the exported membership-formula grammar."""
    if text == "⊥":
        return lambda m: False
    singletons, progs = set(), []
    for clause in text.split(" ∨ "):
        match = PRESBURGER.match(clause)
        assert match, f"unparseable clause: {clause!r}"
        if match.group(1) is not None:
            singletons.add(int(match.group(1)))
        else:
            progs.append((int(match.group(2)), int(match.group(3))))
    return lambda m: (m in singletons or
                      any(m >= f and (m - f) % d == 0 for f, d in progs))


def naive_detect_period(gap_list, min_periods=3, min_coverage=Fraction(1, 2)):
    """Quadratic reference for regularity.detect_period.

    Tries each period p in turn and finds its threshold N directly as one
    past the last violation of g[k] == g[k+p].
    """
    if min_periods < 2:
        raise InvalidParameters("min_periods must be at least 2")
    if not 0 < min_coverage <= 1:
        raise InvalidParameters("min_coverage must lie in (0, 1]")
    g = np.asarray(gap_list, dtype=np.int64)
    K = int(g.size)
    for p in range(1, K // min_periods + 1):
        viol = np.flatnonzero(g[p:] != g[:-p])
        N = 0 if viol.size == 0 else int(viol[-1]) + 1
        tail = K - N
        if tail >= min_periods * p and Fraction(tail, K) >= min_coverage:
            period = tuple(int(x) for x in g[N:N + p])
            return PeriodicityCandidate(
                N=N, p=p, period_gaps=period, G=sum(period),
                periods_observed=tail // p,
                coverage_fraction=Fraction(tail, K),
            )
    return None


# Cache file layout, restated from the format description in ulamkit.cache.
CACHE_MAGIC = b"ULAM1"
CACHE_HEADER = struct.Struct("<4Q")
CACHE_CRC = struct.Struct("<I")
VALUE_LIMIT = 2**62  # largest term or horizon the engine works with


def _append_varint(buf, value):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_varint(data, pos, end):
    value = 0
    shift = 0
    while True:
        if pos >= end:
            raise CorruptCache("varint runs past payload end")
        if shift > 63:
            raise CorruptCache("varint exceeds 64 bits")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def naive_encode_prefix(prefix):
    """Byte-at-a-time reference for cache.encode_prefix."""
    terms = prefix.terms
    buf = bytearray(CACHE_MAGIC)
    buf += CACHE_HEADER.pack(prefix.params.a, prefix.params.b,
                             len(terms), prefix.horizon)
    _append_varint(buf, int(terms[0]))
    for gap in np.diff(terms):
        _append_varint(buf, int(gap))
    buf += CACHE_CRC.pack(zlib.crc32(buf))
    return bytes(buf)


def naive_decode_prefix(data):
    """Byte-at-a-time reference for cache.decode_prefix.

    Reads one varint at a time and raises at the first fault it meets,
    with the same exception type and message as the real decoder.
    """
    if len(data) < len(CACHE_MAGIC) + CACHE_HEADER.size + CACHE_CRC.size:
        raise CorruptCache(f"file too short ({len(data)} bytes)")
    (stored_crc,) = CACHE_CRC.unpack_from(data, len(data) - CACHE_CRC.size)
    if zlib.crc32(data[:-CACHE_CRC.size]) != stored_crc:
        raise CorruptCache("checksum mismatch")
    magic = data[:len(CACHE_MAGIC)]
    if magic != CACHE_MAGIC:
        if magic[:4] == CACHE_MAGIC[:4]:
            raise VersionMismatch(
                f"unsupported cache version {magic[4:5]!r}; expected "
                f"{CACHE_MAGIC[4:5]!r}")
        raise CorruptCache(f"bad magic {magic!r}")
    a, b, term_count, horizon = CACHE_HEADER.unpack_from(data, len(CACHE_MAGIC))
    try:
        params = validate_params(a, b)
    except InvalidParameters as exc:
        raise CorruptCache(f"invalid parameters in header: {exc}") from exc
    if term_count < 2:
        raise CorruptCache(f"term count {term_count} below the two seeds")
    pos = len(CACHE_MAGIC) + CACHE_HEADER.size
    end = len(data) - CACHE_CRC.size
    terms = []
    value = 0
    for i in range(term_count):
        gap, pos = _read_varint(data, pos, end)
        if i and gap < 1:
            raise CorruptCache(f"non-increasing gap at term {i}")
        value += gap
        if value > VALUE_LIMIT:
            raise CorruptCache(f"term {i} exceeds the value limit 2**62")
        terms.append(value)
    if pos != end:
        raise CorruptCache(f"{end - pos} unread payload bytes")
    if terms[0] != a or terms[1] != b:
        raise CorruptCache("payload does not start with a, b")
    if horizon < terms[-1]:
        raise CorruptCache(f"horizon {horizon} below last term {terms[-1]}")
    if horizon > VALUE_LIMIT:
        raise CorruptCache(f"horizon {horizon} exceeds the value limit 2**62")
    return UlamPrefix(params, np.array(terms, dtype=np.int64), horizon)
