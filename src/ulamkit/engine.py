"""Incremental representation-count sieve for Ulam-type sequences.

The sequence starts from seeds a < b; each later term is the least integer
above the current maximum having exactly one representation as a sum of two
distinct earlier terms. The sieve keeps an indicator f of the admitted
terms and, for every undecided m up to the horizon, its representation
count clamped to 2 ("none", "one" or "more" decides membership). Admitting
x adds f shifted by x to the counts in one contiguous window. A count is
final when the forward scan reaches it, because both halves of any pair
summing to it are smaller. Extension runs the same sieve, seeded with the
stored terms, which add only their sums above the old horizon.

Two kernels hold the counts, chosen by horizon. Up to _BITS_MAX_HORIZON
they are two Python-int bit planes, "at least one" and "at least two",
indexed from a base that trails the scan, and nothing imports numpy. A term
above H/2 pairs only with terms below H/2, so from the first term whose sum
with the one before it passes H the indicator stops growing, and each term
adds a fixed cut of it instead. Above the threshold the counts are a byte
table that numpy adds slices into, which is faster once numpy's import is
paid for.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING

from .errors import HorizonTooLarge, InsufficientHorizon, InvalidParameters

if TYPE_CHECKING:
    from .cache import PrefixStore

# Default resource guard. Above _BITS_MAX_HORIZON a sieve to horizon H holds
# two (H+1)-byte tables and 8 bytes per term: about 2 bytes per integer,
# 100 MB at this limit. Up to it each bit plane takes at most H/16 bytes
# plus 1 kB, the indicator g and its cut `low` about H/16 bytes each (16 kB
# at 2^18), and each term found about 40 bytes until the sieve returns.
MAX_HORIZON_DEFAULT = 50_000_000

# The largest horizon sieved on bit planes: the largest power of two at
# which they beat the byte tables plus numpy's import in fresh processes for
# every pair that scripts/kernel_threshold.py measures (README,
# "Performance"; BENCH_kernels.json).
_BITS_MAX_HORIZON = 1 << 18

# Values are validated against this so every int64 pair sum stays exact.
_VALUE_LIMIT = 1 << 62


class _Record:
    """An immutable value whose fields are the names in its __slots__.

    Fields are given by position or keyword; `_defaults` holds the values of
    the last fields. `__post_init__` may check them and normalize them with
    object.__setattr__. Instances compare, hash, print, pickle and match by
    their fields, as frozen dataclasses do, without importing `dataclasses`.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._default_of = dict(zip(cls.__slots__[::-1], cls._defaults[::-1]))

    def __init__(self, *args, **kwargs):
        names, rest = self.__slots__, self.__slots__[len(args):]
        if len(args) > len(names) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(names)}, each once")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in rest:
            if name in kwargs:
                value = kwargs[name]
            elif name in self._default_of:
                value = self._default_of[name]
            else:
                raise TypeError(
                    f"{type(self).__name__}() needs the field {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class UlamParams(_Record):
    """The seeds a < b and whether they are coprime."""

    __slots__ = ("a", "b", "coprime")


def validate_params(a: int, b: int) -> UlamParams:
    """Check 1 <= a < b and derive the coprimality flag.

    Non-coprime pairs are accepted but flagged; analysis layers refuse
    them unless explicitly overridden.
    """
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, int) or not isinstance(b, int):
        raise InvalidParameters("a and b must be plain integers")
    if a < 1 or b <= a:
        raise InvalidParameters(f"need 1 <= a < b, got a={a}, b={b}")
    if b > _VALUE_LIMIT:
        raise InvalidParameters("b exceeds the 64-bit working range")
    return UlamParams(a, b, math.gcd(a, b) == 1)


def _class_fault(modulus: int, residue: int) -> str | None:
    """Why (modulus, residue) is no residue class, or None when it is one."""
    if modulus < 1:
        return f"modulus must be >= 1, got {modulus}"
    if not 0 <= residue < modulus:
        return f"residue {residue} outside [0, {modulus - 1}]"
    return None


def _check_residue_class(modulus: int, residue: int) -> None:
    """Refuse anything but integers with 0 <= residue < modulus."""
    if not isinstance(modulus, int) or not isinstance(residue, int):
        raise InvalidParameters("modulus and residue must be integers")
    fault = _class_fault(modulus, residue)
    if fault is not None:
        raise InvalidParameters(fault)


def _int64_bytes(terms) -> bytes:
    """Native int64 bytes of the terms: bytes as given, else a copy of an
    int64 buffer (such as an ndarray) or of any sequence of ints."""
    if isinstance(terms, bytes):
        return terms
    try:
        view = memoryview(terms)
    except TypeError:
        view = None
    if (view is not None and view.ndim == 1 and view.itemsize == 8
            and view.format in ("q", "l")):
        return view.tobytes()
    return array("q", terms).tobytes()


class UlamPrefix:
    """A fully decided initial segment: membership is settled for all m <= horizon.

    The strictly increasing terms are immutable int64 storage, which `ints`
    reads as a read-only memoryview of Python ints. Instances are immutable
    and safe to share between threads.
    """

    __slots__ = ("params", "ints", "horizon")

    def __init__(self, params: UlamParams, terms, horizon: int):
        set_ = object.__setattr__
        set_(self, "params", params)
        set_(self, "ints", memoryview(_int64_bytes(terms)).cast("q"))
        set_(self, "horizon", horizon)

    def __setattr__(self, name, value):
        raise AttributeError(f"UlamPrefix is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.ints)

    def term_list(self) -> list[int]:
        return self.ints.tolist()

    def contains(self, m: int) -> bool:
        if m > self.horizon:
            raise InsufficientHorizon(f"m={m} beyond horizon {self.horizon}")
        i = bisect_right(self.ints, m)
        return i > 0 and self.ints[i - 1] == m

    def count_to(self, n: int) -> int:
        """|terms <= n|. Requires n <= horizon."""
        if n > self.horizon:
            raise InsufficientHorizon(f"n={n} beyond horizon {self.horizon}")
        if n < self.params.a:
            return 0
        return bisect_right(self.ints, n)

    def restrict(self, new_horizon: int) -> "UlamPrefix":
        """The prefix direct generation to new_horizon <= horizon would produce."""
        if not self.params.b <= new_horizon <= self.horizon:
            raise InvalidParameters(
                f"restriction horizon must lie in [{self.params.b}, {self.horizon}]"
            )
        cut = bisect_right(self.ints, new_horizon)
        return UlamPrefix(self.params, self.ints[:cut].tobytes(), new_horizon)


def _check_horizon(requested: int, max_horizon: int, partial=None) -> None:
    if requested > max_horizon:
        raise HorizonTooLarge(requested, max_horizon, partial)
    if requested > _VALUE_LIMIT:
        raise InvalidParameters("horizon exceeds the 64-bit working range")


def _check_target(params: UlamParams, horizon: int, max_horizon: int) -> None:
    """Reject a horizon that generate_to_horizon would refuse."""
    if horizon < params.b:
        raise InvalidParameters(f"horizon {horizon} below b={params.b}")
    _check_horizon(horizon, max_horizon)


def _seed_end(terms, known_horizon: int) -> int:
    """How many known terms have no sum above known_horizon with a smaller
    term: those whose sum with their predecessor is <= known_horizon, and
    at least the first. Adjacent-pair sums increase, so these form a prefix;
    every term up to known_horizon // 2 is in it, and at most one more."""
    j = max(bisect_right(terms, known_horizon // 2), 1)
    while j < len(terms) and terms[j] + terms[j - 1] <= known_horizon:
        j += 1
    return j


def _sieve(params: UlamParams, known: bytes, known_horizon: int,
           horizon: int) -> UlamPrefix:
    """Complete a decided prefix, whose int64 terms `known` are all <=
    known_horizon, up to horizon: on bit planes up to _BITS_MAX_HORIZON,
    on byte tables above it."""
    if horizon <= _BITS_MAX_HORIZON:
        terms = _bit_sieve(known, known_horizon, horizon)
    else:
        terms = _byte_sieve(params.a, known, known_horizon, horizon)
    return UlamPrefix(params, terms, horizon)


# Plane positions the next-term search reads before it XORs whole planes.
_WINDOW = (1 << 64) - 1

# How far the scan may run past the planes' base before both planes are
# shifted down to it. Shifting a plane costs several times an `&` or `|` of
# it, so the planes move once per this many bits, not once per term. Late
# terms cut g to buckets of the same size, so g is cut once per bucket too.
_REBASE_BITS = 4096


def _bit_sieve(known: bytes, known_horizon: int, horizon: int) -> bytes:
    """The terms up to horizon as int64 bytes, with Python ints as bit sets.

    Bit p of the planes `one` and `two` says that base + p has at least one
    and at least two representations. Positions below the scan are decided;
    base trails the scan by `off` bits, and the planes drop the decided
    positions only when off exceeds _REBASE_BITS. g holds f shifted down by 1
    (bit v - 1 for the term v >= 1), so the term x = base + off - 1 adds the
    sums x + v at g shifted up by off, and none below x + a, as g has no bit
    below a - 1.

    A term x whose sum with the previous term passes the horizon is late:
    x > horizon / 2, so it and every later term x' need only the terms
    v <= horizon - x' < x, which g already holds. From the first late term
    on, g stays as it is and the sums come from `low`, g cut to the
    multiple of _REBASE_BITS at or above horizon - x (see _late_sums). The
    planes may then hold sums up to one such bucket past the horizon, so
    the search stops at the first candidate above it.
    """
    terms = memoryview(known).cast("q")
    j = _seed_end(terms, known_horizon)
    seed = bytearray((known_horizon + 7) >> 3)
    for v in terms[:j]:
        seed[(v - 1) >> 3] |= 1 << ((v - 1) & 7)
    g = int.from_bytes(seed, "little")
    prev = terms[j - 1]
    base = known_horizon + 1
    one = two = low = drop = off = 0
    window, rebase = _WINDOW, _REBASE_BITS
    found = []
    while True:
        # Known terms with sums above known_horizon come first. They lie
        # below base, so their sums land at g shifted down.
        if j < len(terms):
            x = terms[j]
            j += 1
        else:
            if off > rebase:
                one >>= off
                two >>= off
                base += off
                off = 0
            # two is a subset of one, so one ^ two is "exactly one"; bits
            # below off are decided and are masked out
            mask = window << off
            exactly_one = (one & mask) ^ (two & mask) or (one ^ two) >> off << off
            if not exactly_one:
                break
            off = (exactly_one & -exactly_one).bit_length()
            x = base + off - 1
            if x > horizon:
                break
            found.append(x)
        if x + prev <= horizon:
            sums = g
            g |= 1 << (x - 1)
            prev = x
        else:
            if x >= drop:
                low, drop = _late_sums(g, x, horizon)
            sums = low
        sums = sums << off if x >= base else sums >> base - x - 1
        two |= one & sums
        one |= sums
    return known + array("q", found).tobytes()


def _late_sums(g: int, x: int, horizon: int) -> tuple[int, int]:
    """(low, drop) for the late term x: low is g below bit `cut`, the
    multiple of _REBASE_BITS at or above horizon - x, which holds every
    term that x and the later terms pair with. The terms from drop on need
    at least one bucket less, so they cut again."""
    cut = -((x - horizon) // _REBASE_BITS) * _REBASE_BITS
    return g & ((1 << cut) - 1), horizon - cut + _REBASE_BITS


def _byte_sieve(a: int, known: bytes, known_horizon: int, horizon: int) -> bytes:
    """The terms up to horizon as int64 bytes, with byte tables. The only
    code that imports numpy."""
    import numpy as np

    known_terms = np.frombuffer(known, dtype=np.int64)
    # Byte tables: counts[m] and the term indicator f. bytearray.find scans
    # for the next count of 1; the numpy views do the slice adds.
    counts, f = bytearray(horizon + 1), bytearray(horizon + 1)
    counts_v = np.frombuffer(counts, dtype=np.uint8)
    f_v = np.frombuffer(f, dtype=np.uint8)
    j = _seed_end(memoryview(known).cast("q"), known_horizon)
    f_v[known_terms[:j]] = 1
    prev = int(known_terms[j - 1])
    floor = scan_pos = known_horizon + 1
    adds = 0
    while True:
        if j < len(known_terms):
            x = int(known_terms[j])
            j += 1
        else:
            x = counts.find(1, scan_pos)
            if x < 0:
                break
            scan_pos = x + 1
        # Add the sums x + v for every earlier term v as one slice add of f
        # shifted by x; f[x] is set after, so v != x.
        lo, hi = max(x + a, floor), min(x + prev, horizon)
        if lo <= hi:
            counts_v[lo:hi + 1] += f_v[lo - x:hi + 1 - x]
            adds += 1
            # Membership needs only 0, 1 and "2 or more"; clamping to 2 at
            # least every 253 adds keeps every count below 256.
            if adds == 253:
                tail = counts_v[scan_pos:]
                np.minimum(tail, 2, out=tail)
                adds = 0
        f[x] = 1
        prev = x
    return np.flatnonzero(f_v).astype(np.int64, copy=False).tobytes()


def generate_to_horizon(params: UlamParams, horizon: int,
                        max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """All terms <= horizon, in increasing order. Requires horizon >= b."""
    _check_target(params, horizon, max_horizon)
    return _sieve(params, array("q", (params.a, params.b)).tobytes(),
                  params.b, horizon)


def extend(prefix: UlamPrefix, new_horizon: int,
           max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """Continue a prefix to a strictly larger horizon.

    Produces the identical result to direct generation at new_horizon: the
    stored terms supply only their sums above the old horizon, and the sieve
    resumes where the old run stopped.
    """
    if new_horizon <= prefix.horizon:
        raise InvalidParameters(
            f"new horizon {new_horizon} must exceed {prefix.horizon}"
        )
    _check_horizon(new_horizon, max_horizon, partial=prefix)
    return _sieve(prefix.params, prefix.ints.obj, prefix.horizon, new_horizon)


def generate_count(params: UlamParams, k: int,
                   max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """A prefix holding at least the first k terms: PrefixStore().get_count
    at this cap, whose horizon doubles from b."""
    from .cache import PrefixStore  # cache imports this module

    return PrefixStore(None, max_horizon).get_count(params, k)


def _source(store: PrefixStore | None) -> PrefixStore:
    """`store`, or a PrefixStore that touches no disk, at the default cap."""
    if store is None:
        from .cache import PrefixStore  # cache imports this module

        store = PrefixStore()
    return store


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


def require_analysis_grade(params: UlamParams, allow_non_coprime: bool = False) -> None:
    """Refuse flagged (non-coprime) pairs unless the caller overrides.

    Generation and membership work for any valid pair; the analysis layers
    and the CLI call this first because non-coprime pairs degenerate. The
    message names the CLI flag; library callers pass allow_non_coprime.
    """
    if not params.coprime and not allow_non_coprime:
        raise InvalidParameters(
            f"({params.a},{params.b}) is not coprime; "
            "pass --allow-non-coprime to analyse it anyway")


def rep_count_exact(prefix: UlamPrefix, n: int) -> int:
    """Exact number of unordered pairs of distinct prefix terms summing to n.

    Requires n <= prefix.horizon so every term below n is present.
    """
    if n > prefix.horizon:
        raise InsufficientHorizon(f"n={n} beyond horizon {prefix.horizon}")
    if n < 1:
        raise InvalidParameters(f"n must be positive, got {n}")
    terms = prefix.ints
    # x ranges over terms <= (n-1)//2; the partner n-x is then > x.
    cut = bisect_right(terms, (n - 1) // 2)
    partners = set(terms[cut:bisect_right(terms, n)])
    return sum(n - x in partners for x in terms[:cut])
