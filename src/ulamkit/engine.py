"""Incremental representation-count sieve for Ulam-type sequences.

The sequence starts from seeds a < b; each later term is the least integer
above the current maximum having exactly one representation as a sum of two
distinct earlier terms. The sieve keeps, for every undecided integer m up
to the horizon, the exact number of such representations among the terms
admitted so far; when a term u is admitted, u + v is bumped for every
earlier term v with u + v inside the horizon. An integer's count is final
by the time the forward scan reaches it, because both halves of any pair
summing to it are smaller than it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooLarge, InsufficientHorizon, InvalidParameters

# Default resource guard: a horizon needs a (horizon+1)-entry int32 table.
MAX_HORIZON_DEFAULT = 50_000_000

# Values are validated against this so every int64 pair sum stays exact.
_VALUE_LIMIT = 1 << 62

_SCAN_CHUNK = 256


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


def _run_sieve(terms: np.ndarray, n_terms: int, counts: np.ndarray,
               scan_pos: int, horizon: int) -> tuple[np.ndarray, int]:
    """Admit terms until no candidate <= horizon remains.

    Precondition: counts[m] holds the pair count over the current terms for
    every undecided m in [scan_pos, horizon].
    """
    while scan_pos <= horizon:
        hit = -1
        pos = scan_pos
        while pos <= horizon:
            end = min(pos + _SCAN_CHUNK, horizon + 1)
            idx = np.flatnonzero(counts[pos:end] == 1)
            if idx.size:
                hit = pos + int(idx[0])
                break
            pos = end
        if hit < 0:
            break
        if n_terms == terms.size:
            grown = np.empty(terms.size * 2, dtype=np.int64)
            grown[:n_terms] = terms
            terms = grown
        terms[n_terms] = hit
        # Bump every sum hit+v that still lies inside the horizon. The sums
        # are pairwise distinct, so a plain fancy-indexed add is exact.
        cut = int(np.searchsorted(terms[:n_terms], horizon - hit, side="right"))
        if cut:
            counts[hit + terms[:cut]] += 1
        n_terms += 1
        scan_pos = hit + 1
    return terms, n_terms


def generate_to_horizon(params: UlamParams, horizon: int,
                        max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """All terms <= horizon, in increasing order. Requires horizon >= b."""
    a, b = params.a, params.b
    _check_target(params, horizon, max_horizon)
    counts = np.zeros(horizon + 1, dtype=np.int32)
    terms = np.empty(4096, dtype=np.int64)
    terms[0], terms[1] = a, b
    if a + b <= horizon:
        counts[a + b] = 1
    terms, n_terms = _run_sieve(terms, 2, counts, b + 1, horizon)
    return UlamPrefix(params, terms[:n_terms].copy(), horizon)


def extend(prefix: UlamPrefix, new_horizon: int,
           max_horizon: int = MAX_HORIZON_DEFAULT) -> UlamPrefix:
    """Continue a prefix to a strictly larger horizon.

    Produces the identical result to direct generation at new_horizon: the
    pair counts for the window (horizon, new_horizon] are rebuilt from the
    stored terms and the sieve resumes where the old run stopped.
    """
    if new_horizon <= prefix.horizon:
        raise InvalidParameters(
            f"new horizon {new_horizon} must exceed {prefix.horizon}"
        )
    _check_horizon(new_horizon, max_horizon, partial=prefix)
    old = prefix.terms
    h1 = prefix.horizon
    counts = np.zeros(new_horizon + 1, dtype=np.int32)
    if len(old) >= 2:
        # Pairs of old terms with sums in the window; adjacent-pair sums
        # increase with the larger index, so only a suffix can contribute.
        pair_sums = old[1:] + old[:-1]
        first_j = int(np.searchsorted(pair_sums, h1, side="right")) + 1
        for j in range(first_j, len(old)):
            u = int(old[j])
            lo = int(np.searchsorted(old[:j], h1 - u, side="right"))
            hi = int(np.searchsorted(old[:j], new_horizon - u, side="right"))
            if hi > lo:
                counts[u + old[lo:hi]] += 1
    buf = np.empty(max(4096, 2 * len(old)), dtype=np.int64)
    buf[:len(old)] = old
    buf, n_terms = _run_sieve(buf, len(old), counts, h1 + 1, new_horizon)
    return UlamPrefix(prefix.params, buf[:n_terms].copy(), new_horizon)


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
