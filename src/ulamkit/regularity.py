"""Gap-sequence analysis over computed prefixes.

Covers gap extraction, eventual-periodicity candidate detection, exact
density arithmetic, residue censuses, and the five-level evidence report
(strong pattern rigidity down to positive lower density). Everything a
prefix can only suggest, never prove, is reported with an explicit
"-on-prefix" status or as a candidate with its detection thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rigidity
from .engine import (
    MAX_HORIZON_DEFAULT,
    UlamParams,
    UlamPrefix,
    generate_to_horizon,
    require_analysis_grade,
)
from .errors import InvalidParameters
from .patterns import PatternCode, b_max

VERIFIED = "verified-on-prefix"
REFUTED = "refuted-on-prefix"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PeriodicityCandidate:
    """Evidence that gaps g_k repeat with period p for all k >= N (0-based).

    G is the sum of one period; periods_observed counts full periods in the
    observed tail and coverage_fraction its share of the whole gap list.
    """

    N: int
    p: int
    period_gaps: tuple
    G: int
    periods_observed: int
    coverage_fraction: Fraction


@dataclass(frozen=True)
class DensityEstimate:
    n: int
    count: int
    ratio: Fraction


@dataclass(frozen=True)
class DensityCheckResult:
    holds: bool
    first_violation: int | None


@dataclass(frozen=True)
class Census:
    count: int
    largest: int | None
    tail_from: int | None


@dataclass(frozen=True)
class HierarchyReport:
    statuses: dict
    witnesses: dict


def gaps(prefix: UlamPrefix) -> list[int]:
    """Consecutive differences of the term list."""
    if len(prefix) < 2:
        raise InvalidParameters("gap sequence needs at least 2 terms")
    return np.diff(prefix.terms).tolist()


def _check_period_options(min_periods: int, min_coverage) -> None:
    if min_periods < 2:
        raise InvalidParameters("min_periods must be at least 2")
    if not 0 < min_coverage <= 1:
        raise InvalidParameters("min_coverage must lie in (0, 1]")


def detect_period(gap_list, min_periods: int = 3,
                  min_coverage=Fraction(1, 2)) -> PeriodicityCandidate | None:
    """Smallest-period candidate for an eventually periodic gap list.

    Candidates are ordered by period first, threshold second; for each
    period p the threshold N is forced (one past the last violation of
    g[k] == g[k+p]). A candidate qualifies when the periodic tail spans at
    least min_periods full periods and at least min_coverage of the list.
    """
    _check_period_options(min_periods, min_coverage)
    g = np.asarray(gap_list, dtype=np.int64)
    K = int(g.size)
    # Z-algorithm (Gusfield 1997, sec. 1.3) over the reversed list s:
    # z[p] is the longest common prefix of s and s[p:], so the longest
    # p-periodic suffix of g has length p + z[p] (z[p] <= K - p). Each z[p]
    # needs only earlier entries, so p is tested as soon as z[p] is known.
    s = g[::-1].tolist()
    z = [K] * (K // min_periods + 1)
    left = right = 0
    for p in range(1, K // min_periods + 1):
        n = min(right - p, z[p - left]) if p < right else 0
        while p + n < K and s[n] == s[p + n]:
            n += 1
        if p + n > right:
            left, right = p, p + n
        z[p] = n
        tail = p + n
        if tail >= min_periods * p and Fraction(tail, K) >= min_coverage:
            N = K - tail
            period = tuple(int(x) for x in g[N:N + p])
            return PeriodicityCandidate(
                N=N, p=p, period_gaps=period, G=sum(period),
                periods_observed=tail // p,
                coverage_fraction=Fraction(tail, K),
            )
    return None


def candidate_matches_prefix(prefix: UlamPrefix,
                             candidate: PeriodicityCandidate) -> bool:
    """Whether the candidate's periodic tail reproduces the prefix exactly.

    Checks that the stored period equals the gaps at the threshold and that
    every later gap continues it.
    """
    g = np.diff(prefix.terms)
    N, p = candidate.N, candidate.p
    if N + p > g.size:
        return False
    if tuple(int(x) for x in g[N:N + p]) != candidate.period_gaps:
        return False
    tail = g[N:]
    period = np.asarray(candidate.period_gaps, dtype=tail.dtype)
    return bool(np.array_equal(tail, np.resize(period, tail.size)))


def reconstruct_term(candidate: PeriodicityCandidate, u_N: int, index: int) -> int:
    """Term value at a given 0-based index >= N under the periodic model."""
    if index < candidate.N:
        raise InvalidParameters(f"index {index} below threshold {candidate.N}")
    offset = index - candidate.N
    m, r = divmod(offset, candidate.p)
    return u_N + m * candidate.G + sum(candidate.period_gaps[:r])


def density_from_period(candidate: PeriodicityCandidate) -> Fraction:
    """Exact tail density p/G in lowest terms."""
    return Fraction(candidate.p, candidate.G)


def empirical_density(params: UlamParams, n: int,
                      max_horizon: int = MAX_HORIZON_DEFAULT,
                      allow_non_coprime: bool = False) -> DensityEstimate:
    """Counting-function ratio |U cap [0,n]| / (n+1) as an exact rational."""
    require_analysis_grade(params, allow_non_coprime)
    if n < 0:
        raise InvalidParameters(f"n must be nonnegative, got {n}")
    if n < params.a:
        return DensityEstimate(n, 0, Fraction(0))
    prefix = generate_to_horizon(params, max(n, params.b), max_horizon)
    count = prefix.count_to(n)
    return DensityEstimate(n, count, Fraction(count, n + 1))


def density_inequality_check(params: UlamParams, q_num: int, q_den: int,
                             k: int, N: int, n_max: int,
                             max_horizon: int = MAX_HORIZON_DEFAULT,
                             allow_non_coprime: bool = False,
                             prefix: UlamPrefix | None = None) -> DensityCheckResult:
    """Scan the integer density inequality over N <= n <= n_max.

    The inequality tested is, with C(n) the counting function and the
    target ratio written as q_num/q_den,

        q_den * k * C(n)  <=  (q_num * k + q_den * (n + 1)) * (n + 1)

    evaluated in exact integer arithmetic. In ratio form, with q =
    q_num/q_den, this is C(n)/(n+1) <= q + (n+1)/k. Since C(n) <= n+1,
    for q >= 0 it holds automatically once n >= k - 1, so a scan only has
    force below that point. Returns whether it held on the whole range
    and, if not, the least violating n.
    """
    require_analysis_grade(params, allow_non_coprime)
    if q_den < 1:
        raise InvalidParameters("q_den must be positive")
    if k < 1:
        raise InvalidParameters("k must be positive")
    if N < 0:
        raise InvalidParameters("N must be nonnegative")
    if N > n_max:
        return DensityCheckResult(True, None)
    if prefix is None or prefix.horizon < n_max:
        prefix = generate_to_horizon(params, max(n_max, params.b), max_horizon)
    terms = prefix.terms
    # int64 is safe only when the largest intermediate product fits
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
                return DensityCheckResult(False, int(n_arr[bad[0]]))
        return DensityCheckResult(True, None)
    for n in range(N, n_max + 1):
        c = prefix.count_to(n)
        if q_den * k * c > (q_num * k + q_den * (n + 1)) * (n + 1):
            return DensityCheckResult(False, n)
    return DensityCheckResult(True, None)


def _check_residue_class(modulus: int, residue: int) -> None:
    if modulus < 1:
        raise InvalidParameters(f"modulus must be >= 1, got {modulus}")
    if not 0 <= residue < modulus:
        raise InvalidParameters(f"residue {residue} outside [0, {modulus - 1}]")


def residue_census(prefix: UlamPrefix, modulus: int, residue: int,
                   allow_non_coprime: bool = False) -> Census:
    """Count terms in one residue class and flag an apparent class-free tail.

    tail_from is the successor of the largest matching term when no
    matching term occurs in the top half of the prefix (0 when the class
    is empty), else None. It is evidence, not a truth value.
    """
    require_analysis_grade(prefix.params, allow_non_coprime)
    _check_residue_class(modulus, residue)
    terms = prefix.terms
    matching = terms[terms % modulus == residue]
    count = int(matching.size)
    if count == 0:
        return Census(0, None, 0)
    largest = int(matching[-1])
    top_half = terms[len(prefix) // 2:]
    if np.any(top_half % modulus == residue):
        return Census(count, largest, None)
    return Census(count, largest, largest + 1)


def evens_census(prefix: UlamPrefix, allow_non_coprime: bool = False) -> Census:
    """residue_census specialised to the even terms."""
    return residue_census(prefix, 2, 0, allow_non_coprime)


def _check_implications(statuses: dict) -> None:
    implied = {"R1": ["R2"], "R2": ["R3", "R4"], "R3": ["R5"]}
    for stronger, weaker_list in implied.items():
        if statuses[stronger] == VERIFIED:
            for weaker in weaker_list:
                if statuses[weaker] == REFUTED:
                    raise AssertionError(
                        f"inconsistent hierarchy: {stronger} verified "
                        f"but {weaker} refuted"
                    )


def hierarchy_report(params: UlamParams, code: PatternCode | None,
                     candidate: PeriodicityCandidate | None,
                     prefix: UlamPrefix,
                     allow_non_coprime: bool = False,
                     override_applicability: bool = False) -> HierarchyReport:
    """Assemble prefix-evidence statuses for the five regularity levels.

    R1 strong pattern rigidity: a threshold below which mismatches stop,
    searched over the prefix (clipped to the code's largest endpoint when
    bounded). R2 gap periodicity: the supplied or detected candidate.
    R3 bounded gaps: maximum gap stability (no new maximum in the second
    half of the gap list). R4 density existence and R5 positive lower
    density: witnessed by the candidate's exact tail density and the
    integer bound max_gap * C(n) >= n - a + 1 respectively.
    """
    require_analysis_grade(params, allow_non_coprime)
    statuses = {name: UNKNOWN for name in ("R1", "R2", "R3", "R4", "R5")}
    witnesses: dict = {}

    if code is not None:
        bm = b_max(code, params.a, params.b)
        M = prefix.horizon if bm is None else min(prefix.horizon, bm)
        threshold = rigidity.search_threshold(
            code, params, M, prefix=prefix,
            override_applicability=override_applicability)
        if threshold is None:
            statuses["R1"] = REFUTED
        else:
            statuses["R1"] = VERIFIED
            witnesses["r1_threshold"] = threshold

    gap_list = gaps(prefix)
    if candidate is not None and not candidate_matches_prefix(prefix, candidate):
        candidate = None  # stale witness; fall back to fresh detection
    if candidate is None:
        candidate = detect_period(gap_list)
    if candidate is not None:
        statuses["R2"] = VERIFIED
        witnesses["r2_candidate"] = candidate

    g = np.asarray(gap_list)
    B = int(g.max())
    half = g.size // 2
    # stability heuristic: the second half sets no new gap record
    if g.size >= 4 and int(g[half:].max()) <= int(g[:half].max()):
        statuses["R3"] = VERIFIED
        witnesses["r3_gap_bound"] = B

    if candidate is not None:
        d = density_from_period(candidate)
        statuses["R4"] = VERIFIED
        witnesses["r4_density"] = d

    if statuses["R3"] == VERIFIED:
        # integer form of the lower-density bound: B*C(n) >= n - a + 1
        n_arr = np.arange(params.a, prefix.horizon + 1, dtype=np.int64)
        counts = np.searchsorted(prefix.terms, n_arr, side="right")
        if np.all(B * counts >= n_arr - params.a + 1):
            statuses["R5"] = VERIFIED
            witnesses["r5_lower_bound"] = Fraction(1, B)
        else:
            statuses["R5"] = REFUTED
    elif statuses["R4"] == VERIFIED:
        statuses["R5"] = VERIFIED
        witnesses["r5_lower_bound"] = witnesses["r4_density"]

    _check_implications(statuses)
    return HierarchyReport(statuses, witnesses)
