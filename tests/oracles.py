"""Independent brute-force reference implementations used by the tests.

Everything here follows the definitions directly, with no sieving or
incremental state, so it is slow but obviously correct. The real package
must agree with these bit for bit on small inputs.
"""

import json
import re
import struct
import zlib
from array import array
from fractions import Fraction

import numpy as np

from ulamkit.engine import (MAX_HORIZON_DEFAULT, UlamPrefix, _seed_end,
                            extend, generate_to_horizon, validate_params)
from ulamkit.errors import (CorruptCache, HorizonTooLarge, InvalidParameters,
                            UnboundedPattern, VersionMismatch)
from ulamkit.patterns import eval_endpoints
from ulamkit.regularity import PeriodicityCandidate


def terms_array(prefix):
    """The prefix's terms as a read-only int64 ndarray over its storage."""
    return np.frombuffer(prefix.ints.obj, dtype=np.int64)


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


def shifting_bit_sieve(known, known_horizon, horizon):
    """The engine's bit-plane kernel before its planes trailed the scan.

    Same contract as `engine._bit_sieve`: int64 bytes of the terms up to
    horizon, from the known terms up to known_horizon. Bit p of `one` and
    `two` is scan + p, so every admitted term shifts both planes (and the
    horizon mask `top`) down to the new scan.
    """
    terms = memoryview(known).cast("q")
    j = _seed_end(terms, known_horizon)
    seed = bytearray(((known_horizon - 1) >> 3) + 1)
    for t in terms[:j]:
        seed[(t - 1) >> 3] |= 1 << ((t - 1) & 7)
    g = int.from_bytes(seed, "little")
    prev = terms[j - 1]
    scan = known_horizon + 1
    top = (1 << (horizon - known_horizon)) - 1
    window = (1 << 64) - 1
    one = two = 0
    found = []
    while True:
        if j < len(terms):
            x = terms[j]
            j += 1
            sums = g >> (scan - x - 1)
        else:
            exactly_one = (one & window) ^ (two & window) or one ^ two
            if not exactly_one:
                break
            k = (exactly_one & -exactly_one).bit_length()
            x = scan + k - 1
            one >>= k
            two >>= k
            top >>= k
            scan = x + 1
            found.append(x)
            sums = g
        if x + prev > horizon:
            sums &= top
        two |= one & sums
        one |= sums
        g |= 1 << (x - 1)
        prev = x
    return known + array("q", found).tobytes()


def trailing_bit_sieve(known, known_horizon, horizon):
    """The engine's bit-plane kernel before its late terms stopped growing g.

    Same contract as `engine._bit_sieve`. The planes trail the scan and
    drop their decided bits only once it is more than 4096 bits past their
    base, but every term x whose sum with the previous term passes the
    horizon masks g to the sums up to it, g & ((1 << (horizon - x)) - 1),
    and every term joins g.
    """
    terms = memoryview(known).cast("q")
    j = _seed_end(terms, known_horizon)
    seed = bytearray(((known_horizon - 1) >> 3) + 1)
    for t in terms[:j]:
        seed[(t - 1) >> 3] |= 1 << ((t - 1) & 7)
    g = int.from_bytes(seed, "little")
    prev = terms[j - 1]
    base = known_horizon + 1
    one = two = 0
    for x in terms[j:]:
        sums = g if x + prev <= horizon else g & ((1 << (horizon - x)) - 1)
        sums >>= base - x - 1
        two |= one & sums
        one |= sums
        g |= 1 << (x - 1)
        prev = x
    window, rebase = (1 << 64) - 1, 4096
    off = 0
    found = []
    while True:
        if off > rebase:
            one >>= off
            two >>= off
            base += off
            off = 0
        mask = window << off
        exactly_one = (one & mask) ^ (two & mask) or (one ^ two) >> off << off
        if not exactly_one:
            break
        off = (exactly_one & -exactly_one).bit_length()
        x = base + off - 1
        found.append(x)
        sums = g if x + prev <= horizon else g & ((1 << (horizon - x)) - 1)
        sums <<= off
        two |= one & sums
        one |= sums
        g |= 1 << (x - 1)
        prev = x
    return known + array("q", found).tobytes()


def grow_to_count(params, k, max_horizon=MAX_HORIZON_DEFAULT):
    """generate_count from before it went through PrefixStore: the prefix
    to b, extended to twice its horizon (capped at max_horizon) until it
    holds k terms. At the cap the error keeps the prefix as `partial`."""
    if k < 1:
        raise InvalidParameters(f"k must be positive, got {k}")
    prefix = generate_to_horizon(params, params.b, max_horizon)
    while len(prefix) < k:
        if prefix.horizon >= max_horizon:
            raise HorizonTooLarge(2 * prefix.horizon, max_horizon,
                                  partial=prefix)
        prefix = extend(prefix, min(2 * prefix.horizon, max_horizon),
                        max_horizon)
    return prefix


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
    terms = terms_array(prefix)
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


# The numpy codec that served cache.encode_prefix and cache.decode_prefix
# before the standard-library one; it agrees with the byte-at-a-time pair
# above.

def _vector_encode_varints(values):
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


def _vector_decode_terms(payload, term_count):
    """Terms from the first varint and the gaps after it, vectorized."""
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
    too_big = high | (values > VALUE_LIMIT)
    sums = np.cumsum(np.where(overlong | too_big, 0, values))
    too_big |= sums > VALUE_LIMIT
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
        raise CorruptCache("varint exceeds 64 bits" if payload.size - used > 10
                           else "varint runs past payload end")
    if used != payload.size:
        raise CorruptCache(f"{payload.size - used} unread payload bytes")
    return sums.astype(np.int64)


def vector_encode_prefix(prefix):
    """The numpy reference for cache.encode_prefix."""
    terms = terms_array(prefix)
    values = np.empty(len(terms), dtype=np.uint64)
    values[0] = terms[0]
    values[1:] = np.diff(terms)
    body = (CACHE_MAGIC + CACHE_HEADER.pack(prefix.params.a, prefix.params.b,
                                            len(terms), prefix.horizon)
            + _vector_encode_varints(values))
    return body + CACHE_CRC.pack(zlib.crc32(body))


def vector_decode_terms(payload, term_count):
    """The numpy reference for decoding a cache payload: int64 terms, or the
    CorruptCache the real decoder must raise."""
    return _vector_decode_terms(np.frombuffer(payload, dtype=np.uint8),
                                term_count)


# Analysis code from before it moved to the standard library, kept as
# references for the implementations that replaced it.

def vector_gaps(prefix):
    return np.diff(terms_array(prefix)).tolist()


def vector_residue_census(prefix, modulus, residue):
    """(count, largest, tail_from) as regularity.residue_census gave them."""
    terms = terms_array(prefix)
    matching = terms[terms % modulus == residue]
    if matching.size == 0:
        return 0, None, 0
    largest = int(matching[-1])
    top_half = terms[len(prefix) // 2:]
    if np.any(top_half % modulus == residue):
        return int(matching.size), largest, None
    return int(matching.size), largest, largest + 1


def scan_density_check(prefix, q_num, q_den, k, N, n_max):
    """(holds, first_violation) by testing every n in [N, n_max]: in int64
    chunks of 2**20 when the products fit, else one n at a time."""
    if N > n_max:
        return True, None
    terms = terms_array(prefix)
    vec_safe = (q_den * k * (n_max + 1) < 2**62 and
                abs(q_num * k + q_den * (n_max + 1)) * (n_max + 1) < 2**62)
    if vec_safe:
        step = 1 << 20
        for lo in range(N, n_max + 1, step):
            hi = min(lo + step - 1, n_max)
            n_arr = np.arange(lo, hi + 1, dtype=np.int64)
            counts = np.searchsorted(terms, n_arr, side="right")
            lhs = q_den * k * counts
            rhs = (q_num * k + q_den * (n_arr + 1)) * (n_arr + 1)
            bad = np.flatnonzero(lhs > rhs)
            if bad.size:
                return False, int(n_arr[bad[0]])
        return True, None
    for n in range(N, n_max + 1):
        c = prefix.count_to(n)
        if q_den * k * c > (q_num * k + q_den * (n + 1)) * (n + 1):
            return False, n
    return True, None


def scan_lower_density(prefix, B):
    """Whether B*C(n) >= n - a + 1 for every n in [a, horizon], n by n."""
    a = prefix.params.a
    n_arr = np.arange(a, prefix.horizon + 1, dtype=np.int64)
    counts = np.searchsorted(terms_array(prefix), n_arr, side="right")
    return bool(np.all(B * counts >= n_arr - a + 1))


# The point lists and the bit set that patterns.pattern_mask replaced. The
# bit set builds each (component, s) block by doubling runs and merges the
# blocks in pairs; the point lists step through every point from A.

def pattern_bits(code, a, b, lo, hi):
    """The code's points in [lo, hi] at (a, b) as a bit set: bit m - lo is
    set for each point m. Unbounded components are clipped at hi."""
    blocks = [(0, 0)]
    for comp in code.components:
        A, B = eval_endpoints(comp, a, b)
        B = hi if B is None else min(B, hi)
        L = comp.L
        for s in comp.S:
            first = A + s + max(0, lo - A - s + L - 1) // L * L
            if first > B:
                continue
            # one point per L bits, doubled up to at least count points and
            # cut at the last, so no block spans more than twice the window
            count = (B - first) // L + 1
            run, n = 1, 1
            while n < count:
                run |= run << n * L
                n *= 2
            blocks.append((first - lo, run & ((2 << L * (count - 1)) - 1)))
    # OR neighbours in pairs, from the empty block at 0: each round costs
    # about one window, where ORing blocks one by one costs one per block
    blocks.sort()
    while len(blocks) > 1:
        pairs = zip(blocks[::2], blocks[1::2])
        blocks = ([(i, x | y << j - i) for (i, x), (j, y) in pairs]
                  + blocks[len(blocks) & ~1:])
    return blocks[0][1]


def component_points(comp, a, b, lo=None, hi=None):
    """All points of one component, optionally clipped to [lo, hi].

    Unbounded components require hi.
    """
    A, B = eval_endpoints(comp, a, b)
    if B is None:
        if hi is None:
            raise UnboundedPattern("unbounded component needs an explicit upper clip")
        B = hi
    elif hi is not None:
        B = min(B, hi)
    start = A if lo is None else max(A, lo)
    if start > B:
        return []
    if comp.L == 1:
        return list(range(start, B + 1)) if 0 in comp.S else []
    out = []
    for s in sorted(comp.S):
        first = A + s
        if first < start:
            first += ((start - first + comp.L - 1) // comp.L) * comp.L
        out.extend(range(first, B + 1, comp.L))
    return out


def point_set(code, a, b, lo=None, hi=None):
    """The union of component_points over the code's components."""
    points = set()
    for comp in code.components:
        points.update(component_points(comp, a, b, lo=lo, hi=hi))
    return points


def _setxor_points(code, prefix, lo, hi):
    pattern = np.array(sorted(point_set(code, prefix.params.a, prefix.params.b,
                                        lo, hi)), dtype=np.int64)
    terms = terms_array(prefix)
    i0 = int(np.searchsorted(terms, lo, side="left"))
    i1 = int(np.searchsorted(terms, hi, side="right"))
    members = terms[i0:i1]
    return members, np.setxor1d(members, pattern)


def setxor_first_mismatch(code, prefix, N, M):
    """(m, in_ulam) of the least disagreement on [N, M], or None."""
    members, sym = _setxor_points(code, prefix, N, M)
    if sym.size == 0:
        return None
    first = int(sym[0])
    i = int(np.searchsorted(members, first))
    return first, bool(i < members.size and int(members[i]) == first)


def setxor_threshold(code, prefix, M):
    """rigidity._threshold by np.setxor1d over [0, M]."""
    sym = _setxor_points(code, prefix, 0, M)[1]
    if sym.size == 0:
        return 0
    last = int(sym[-1])
    return last + 1 if last < M else None


# Helpers with no caller in the package, kept as test references.

def reconstruct_term(candidate, u_N, index):
    """Term value at a given 0-based index >= N under the periodic model."""
    if index < candidate.N:
        raise InvalidParameters(f"index {index} below threshold {candidate.N}")
    offset = index - candidate.N
    m, r = divmod(offset, candidate.p)
    return u_N + m * candidate.G + sum(candidate.period_gaps[:r])


def ap_points_upto(decomp, horizon):
    """All members an AP decomposition claims in [0, horizon], ascending."""
    chunks = [np.asarray([v for v in decomp.initial_set if v <= horizon],
                         dtype=np.int64)]
    for first, diff in decomp.progressions:
        if first <= horizon:
            chunks.append(np.arange(first, horizon + 1, diff, dtype=np.int64))
    return np.unique(np.concatenate(chunks)).tolist()


def decomposition_json(decomp):
    from ulamkit.progressions import decomposition_obj
    return json.dumps(decomposition_obj(decomp), separators=(",", ":"))


def flatten(decomp):
    """Inverse of mining.runs(): the underlying sorted point list."""
    out = []
    for lo, hi in decomp.runs:
        out.extend(range(lo, hi + 1))
    return out
