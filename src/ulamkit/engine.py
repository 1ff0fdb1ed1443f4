"""Incremental representation-count sieve for Ulam-type sequences.

The sequence starts from seeds a < b; each later term is the least integer
above the current maximum having exactly one representation as a sum of two
distinct earlier terms. The sieve keeps a byte indicator f of the admitted
terms and, for every undecided m up to the horizon, its representation
count clamped to 2 ("none", "one" or "more" decides membership). Admitting
x adds f shifted by x to the counts in one contiguous slice. A count is
final when the forward scan reaches it, because both halves of any pair
summing to it are smaller. Extension runs the same kernel, seeded with the
stored terms, which add only their sums above the old horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooLarge, InsufficientHorizon, InvalidParameters

# Default resource guard. A sieve to horizon H holds two (H+1)-byte tables
# and 8 bytes per term: about 2 bytes per integer, 100 MB at this limit.
MAX_HORIZON_DEFAULT = 50_000_000

# Values are validated against this so every int64 pair sum stays exact.
_VALUE_LIMIT = 1 << 62


@dataclass(frozen=True)
class UlamParams:
    a: int
    b: int
    coprime: bool


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


@dataclass(frozen=True, eq=False)
class UlamPrefix:
    """A fully decided initial segment: membership is settled for all m <= horizon.

    `terms` is a read-only strictly increasing int64 array. Instances are
    immutable and safe to share between threads.
    """

    params: UlamParams
    terms: np.ndarray
    horizon: int

    def __post_init__(self):
        self.terms.setflags(write=False)

    def __len__(self) -> int:
        return int(self.terms.size)

    def term_list(self) -> list[int]:
        return [int(t) for t in self.terms]

    def contains(self, m: int) -> bool:
        if m > self.horizon:
            raise InsufficientHorizon(f"m={m} beyond horizon {self.horizon}")
        i = int(np.searchsorted(self.terms, m))
        return i < len(self) and int(self.terms[i]) == m

    def count_to(self, n: int) -> int:
        """|terms <= n|. Requires n <= horizon."""
        if n > self.horizon:
            raise InsufficientHorizon(f"n={n} beyond horizon {self.horizon}")
        if n < self.params.a:
            return 0
        return int(np.searchsorted(self.terms, n, side="right"))

    def restrict(self, new_horizon: int) -> "UlamPrefix":
        """The prefix direct generation to new_horizon <= horizon would produce."""
        if not self.params.b <= new_horizon <= self.horizon:
            raise InvalidParameters(
                f"restriction horizon must lie in [{self.params.b}, {self.horizon}]"
            )
        cut = int(np.searchsorted(self.terms, new_horizon, side="right"))
        return UlamPrefix(self.params, self.terms[:cut].copy(), new_horizon)


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


def _check_count(k: int) -> None:
    if k < 1:
        raise InvalidParameters(f"k must be positive, got {k}")


def _grow_to_count(prefix: UlamPrefix, k: int, max_horizon: int) -> UlamPrefix:
    """Double the horizon (capped) until k terms; the cap error keeps the prefix."""
    while len(prefix) < k:
        if prefix.horizon >= max_horizon:
            raise HorizonTooLarge(2 * prefix.horizon, max_horizon,
                                  partial=prefix)
        prefix = extend(prefix, min(2 * prefix.horizon, max_horizon),
                        max_horizon)
    return prefix


def _sieve(params: UlamParams, known_terms: np.ndarray, known_horizon: int,
           horizon: int) -> UlamPrefix:
    """Complete a decided prefix, all terms <= known_horizon, up to horizon."""
    # Byte tables: counts[m] and the term indicator f. bytearray.find scans
    # for the next count of 1; the numpy views do the slice adds.
    counts, f = bytearray(horizon + 1), bytearray(horizon + 1)
    counts_v = np.frombuffer(counts, dtype=np.uint8)
    f_v = np.frombuffer(f, dtype=np.uint8)
    # A known term whose sum with its predecessor is <= known_horizon has no
    # sum in the window; adjacent-pair sums increase, so these form a prefix.
    j = int(np.searchsorted(known_terms[1:] + known_terms[:-1],
                            known_horizon, side="right")) + 1
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
        lo, hi = max(x + params.a, floor), min(x + prev, horizon)
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
    return UlamPrefix(params, np.flatnonzero(f_v).astype(np.int64, copy=False),
                      horizon)


def generate_to_horizon(params: UlamParams, horizon: int,
                        max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """All terms <= horizon, in increasing order. Requires horizon >= b."""
    _check_target(params, horizon, max_horizon)
    return _sieve(params, np.array([params.a, params.b], dtype=np.int64),
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
    return _sieve(prefix.params, prefix.terms, prefix.horizon, new_horizon)


def generate_count(params: UlamParams, k: int,
                   max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """A prefix holding at least the first k terms (horizon grows by doubling)."""
    _check_count(k)
    return _grow_to_count(generate_to_horizon(params, params.b, max_horizon),
                          k, max_horizon)


def is_member(params: UlamParams, m: int,
              max_horizon: int = MAX_HORIZON_DEFAULT) -> bool:
    """Membership of m, decided by generating up to max(m, b)."""
    if m < 1:
        raise InvalidParameters(f"m must be positive, got {m}")
    prefix = generate_to_horizon(params, max(m, params.b), max_horizon)
    return prefix.contains(m)


def nth_term(params: UlamParams, k: int,
             max_horizon: int = MAX_HORIZON_DEFAULT) -> int:
    """The k-th smallest term (1-based)."""
    prefix = generate_count(params, k, max_horizon)
    return int(prefix.terms[k - 1])


def count_upto(params: UlamParams, n: int,
               max_horizon: int = MAX_HORIZON_DEFAULT) -> int:
    """|U(a,b) intersect [0, n]|."""
    if n < 0:
        raise InvalidParameters(f"n must be nonnegative, got {n}")
    if n < params.a:
        return 0
    prefix = generate_to_horizon(params, max(n, params.b), max_horizon)
    return prefix.count_to(n)


def require_analysis_grade(params: UlamParams, allow_non_coprime: bool = False) -> None:
    """Refuse flagged (non-coprime) pairs unless the caller overrides.

    Generation and membership work for any valid pair; the analysis layers
    call this first because non-coprime pairs degenerate.
    """
    if not params.coprime and not allow_non_coprime:
        raise InvalidParameters(
            f"({params.a},{params.b}) is not coprime; "
            "pass allow_non_coprime=True to analyse it anyway"
        )


def rep_count_exact(prefix: UlamPrefix, n: int) -> int:
    """Exact number of unordered pairs of distinct prefix terms summing to n.

    Requires n <= prefix.horizon so every term below n is present.
    """
    if n > prefix.horizon:
        raise InsufficientHorizon(f"n={n} beyond horizon {prefix.horizon}")
    if n < 1:
        raise InvalidParameters(f"n must be positive, got {n}")
    terms = prefix.terms
    # x ranges over terms <= (n-1)//2; the partner n-x is then > x.
    cut = int(np.searchsorted(terms, (n - 1) // 2, side="right"))
    if cut == 0:
        return 0
    xs = terms[:cut]
    ys = n - xs
    idx = np.searchsorted(terms, ys)
    idx[idx == len(terms)] = 0  # safe sentinel; value compare below decides
    return int(np.count_nonzero(terms[idx] == ys))
