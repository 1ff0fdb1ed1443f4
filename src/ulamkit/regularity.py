"""Gap-sequence analysis over computed prefixes.

Covers gap extraction, eventual-periodicity candidate detection, exact
density arithmetic, residue censuses, and the five-level evidence report
(strong pattern rigidity down to positive lower density). Everything a
prefix can only suggest, never prove, is reported with an explicit
"-on-prefix" status or as a candidate with its detection thresholds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, repeat
from operator import mod, sub
from typing import TYPE_CHECKING

from .cache import PrefixStore, _source, count_upto
from .engine import (UlamParams, UlamPrefix, _check_residue_class, _Record,
                     require_analysis_grade)
from .errors import InvalidParameters

if TYPE_CHECKING:
    from .patterns import PatternCode

VERIFIED = "verified-on-prefix"
REFUTED = "refuted-on-prefix"
UNKNOWN = "unknown"


class PeriodicityCandidate(_Record):
    """Evidence that gaps g_k repeat with period p for all k >= N (0-based).

    G is the sum of one period; periods_observed counts full periods in the
    observed tail and coverage_fraction its share of the whole gap list.
    """

    __slots__ = ("N", "p", "period_gaps", "G", "periods_observed",
                 "coverage_fraction")


class DensityEstimate(_Record):
    __slots__ = ("n", "count", "ratio")


class DensityCheckResult(_Record):
    __slots__ = ("holds", "first_violation")


class Census(_Record):
    __slots__ = ("count", "largest", "tail_from")


class HierarchyReport(_Record):
    __slots__ = ("statuses", "witnesses")


def gaps(prefix: UlamPrefix) -> list[int]:
    """Consecutive differences of the term list."""
    if len(prefix) < 2:
        raise InvalidParameters("gap sequence needs at least 2 terms")
    terms = prefix.ints
    return list(map(sub, terms[1:], terms))


def _check_period_options(min_periods: int, min_coverage) -> None:
    if min_periods < 2:
        raise InvalidParameters("min_periods must be at least 2")
    if not 0 < min_coverage <= 1:
        raise InvalidParameters("min_coverage must lie in (0, 1]")


def _match_end(s: list, n: int, p: int) -> int:
    """Least i >= n with p + i == len(s) or s[i] != s[p + i], given that
    s[:n] == s[p:p + n]. Blocks of doubling length are compared as list
    slices until one differs, then that block is halved to its mismatch."""
    limit = len(s) - p
    step = 1
    while n < limit:
        m = min(step, limit - n)
        if s[n:n + m] != s[p + n:p + n + m]:
            break
        n += m
        step *= 2
    else:
        return n
    while m > 1:  # the first mismatch lies in s[n:n + m]
        half = m // 2
        if s[n:n + half] == s[p + n:p + n + half]:
            n += half
            m -= half
        else:
            m = half
    return n


def detect_period(gap_list, min_periods: int = 3,
                  min_coverage=Fraction(1, 2)) -> PeriodicityCandidate | None:
    """Smallest-period candidate for an eventually periodic gap list.

    Candidates are ordered by period first, threshold second; for each
    period p the threshold N is forced (one past the last violation of
    g[k] == g[k+p]). A candidate qualifies when the periodic tail spans at
    least min_periods full periods and at least min_coverage of the list.
    """
    _check_period_options(min_periods, min_coverage)
    g = list(map(int, gap_list))
    K = len(g)
    # Z-algorithm (Gusfield 1997, sec. 1.3) over the reversed list s:
    # z[p] is the longest common prefix of s and s[p:], so the longest
    # p-periodic suffix of g has length p + z[p] (z[p] <= K - p). Each z[p]
    # needs only earlier entries, so p is tested as soon as z[p] is known.
    # A match is walked element by element until n reaches a multiple of 8;
    # _match_end finishes it, so a long periodic tail costs O(log) compares.
    s = g[::-1]
    z = [K] * (K // min_periods + 1)
    left = right = 0
    for p in range(1, K // min_periods + 1):
        n = min(right - p, z[p - left]) if p < right else 0
        while p + n < K and s[n] == s[p + n]:
            n += 1
            if n % 8 == 0:
                n = _match_end(s, n, p)
                break
        if p + n > right:
            left, right = p, p + n
        z[p] = n
        tail = p + n
        if tail >= min_periods * p and Fraction(tail, K) >= min_coverage:
            N = K - tail
            period = tuple(g[N:N + p])
            return PeriodicityCandidate(
                N=N, p=p, period_gaps=period, G=sum(period),
                periods_observed=tail // p,
                coverage_fraction=Fraction(tail, K),
            )
    return None


def _candidate_fault(prefix: UlamPrefix,
                     candidate: PeriodicityCandidate) -> str | None:
    """Why the prefix refutes the candidate, or None when it does not.

    The stored period must equal the gaps at the threshold and G their sum,
    every later gap must continue it, and the next term it predicts must
    lie above the horizon, where the prefix has decided nothing.
    """
    if candidate.G != sum(candidate.period_gaps):
        return (f"candidate G={candidate.G} differs from "
                f"{sum(candidate.period_gaps)}, the sum of its period gaps")
    terms = prefix.ints[candidate.N:]
    tail = list(map(sub, terms[1:], terms))
    period = list(candidate.period_gaps)
    if (len(tail) < candidate.p or tail[:candidate.p] != period
            or tail != (period * (len(tail) // candidate.p + 1))[:len(tail)]):
        return (f"candidate (N={candidate.N}, p={candidate.p}) does not "
                f"reproduce the prefix tail")
    predicted_next = terms[-1] + period[len(tail) % candidate.p]
    if predicted_next <= prefix.horizon:
        return (f"periodic model predicts a member at {predicted_next} inside "
                f"the decided-empty region up to horizon {prefix.horizon}")
    return None


def candidate_matches_prefix(prefix: UlamPrefix,
                             candidate: PeriodicityCandidate) -> bool:
    """Whether the candidate's periodic tail reproduces the prefix exactly
    and predicts no member in the decided region past the last term."""
    return _candidate_fault(prefix, candidate) is None


def density_from_period(candidate: PeriodicityCandidate) -> Fraction:
    """Exact tail density p/G in lowest terms."""
    return Fraction(candidate.p, candidate.G)


def empirical_density(params: UlamParams, n: int,
                      store: PrefixStore | None = None,
                      allow_non_coprime: bool = False) -> DensityEstimate:
    """Counting-function ratio |U cap [0,n]| / (n+1) as an exact rational."""
    require_analysis_grade(params, allow_non_coprime)
    count = count_upto(params, n, store)
    return DensityEstimate(n, count, Fraction(count, n + 1))


def density_inequality_check(params: UlamParams, q_num: int, q_den: int,
                             k: int, N: int, n_max: int,
                             store: PrefixStore | None = None,
                             allow_non_coprime: bool = False) -> DensityCheckResult:
    """Scan the integer density inequality over N <= n <= n_max.

    The inequality tested is, with C(n) the counting function and the
    target ratio written as q_num/q_den,

        q_den * k * C(n)  <=  (q_num * k + q_den * (n + 1)) * (n + 1)

    evaluated in exact integer arithmetic. In ratio form, with q =
    q_num/q_den, this is C(n)/(n+1) <= q + (n+1)/k. Since C(n) <= n+1,
    for q >= 0 it holds automatically once n >= k - 1, so a scan only has
    force below that point. The scan visits only the n where a violation
    can begin, one per term. Returns whether it held on the whole range
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
    terms = _source(store).get(params, max(n_max, params.b)).ints
    # With m = n + 1 and c = C(n) the inequality fails where
    # f(m) = (q_num*k + q_den*m)*m - q_den*k*c is negative. C is constant
    # between terms, and on such a run f is negative at the first m already
    # (when q_num*k + q_den*m < 0) or rises from there, so only n = N and
    # the terms above N can be the least violation. As c <= m, f >= 0 once
    # q_den*m >= k*(q_den - q_num): the scan ends before that.
    last = min(n_max, -(-k * (q_den - q_num) // q_den) - 2)
    i = bisect_right(terms, N)
    for c, n in enumerate(chain((N,), terms[i:bisect_right(terms, last)]), i):
        if n > last:
            break
        if q_den * k * c > (q_num * k + q_den * (n + 1)) * (n + 1):
            return DensityCheckResult(False, n)
    return DensityCheckResult(True, None)


def residue_census(prefix: UlamPrefix, modulus: int, residue: int,
                   allow_non_coprime: bool = False) -> Census:
    """Count terms in one residue class and flag an apparent class-free tail.

    tail_from is the successor of the largest matching term when no
    matching term occurs in the top half of the prefix (0 when the class
    is empty), else None. It is evidence, not a truth value.
    """
    return residue_censuses(prefix, modulus, [residue], allow_non_coprime)[0]


def residue_censuses(prefix: UlamPrefix, modulus: int, residues: Sequence[int],
                     allow_non_coprime: bool = False) -> list[Census]:
    """residue_census of each residue, from one pass over the terms."""
    require_analysis_grade(prefix.params, allow_non_coprime)
    for residue in residues:
        _check_residue_class(modulus, residue)
    terms = prefix.ints
    classes = list(map(mod, terms, repeat(modulus)))
    counts = Counter(classes)
    # the last index of each class: a later index overwrites an earlier one
    last = dict(zip(classes, range(len(classes))))
    censuses = []
    for residue in residues:
        i = last.get(residue)
        if i is None:
            censuses.append(Census(0, None, 0))
            continue
        largest = terms[i]
        # recurring when a matching term lies in the top half of the prefix
        censuses.append(Census(counts[residue], largest,
                               None if i >= len(terms) // 2 else largest + 1))
    return censuses


def evens_census(prefix: UlamPrefix, allow_non_coprime: bool = False) -> Census:
    """residue_census specialised to the even terms."""
    return residue_census(prefix, 2, 0, allow_non_coprime)


def hierarchy_report(params: UlamParams, code: PatternCode | None,
                     candidate: PeriodicityCandidate | None,
                     prefix: UlamPrefix,
                     allow_non_coprime: bool = False,
                     override_applicability: bool = False) -> HierarchyReport:
    """Assemble prefix-evidence statuses for the five regularity levels.

    R1 strong pattern rigidity: a threshold below which mismatches stop,
    searched over the prefix (clipped to the code's largest endpoint when
    bounded). R2 gap periodicity: the supplied candidate, or a detected one
    when it is absent or stale; either must pass candidate_matches_prefix.
    R4 density existence: that candidate's exact tail density. R3 bounded
    gaps: the largest gap B sets no new record in the second half of the
    gap list, and the open gap after the last term, at least H + 1 - t_last,
    does not exceed it (H - t_last < B). R5 positive lower density follows
    from R3 with witness 1/B: as t_0 = a, t_i <= a + i*B gives
    B*C(n) >= n - a + 1 on [a, H]. Else it follows from R4. Only R1 can be
    refuted. A prefix whose terms do not start with a, b raises
    InvalidParameters.
    """
    require_analysis_grade(params, allow_non_coprime)
    if prefix.params != params:
        raise InvalidParameters(
            f"prefix is of U({prefix.params.a},{prefix.params.b}), "
            f"not U({params.a},{params.b})")
    if prefix.ints[:2].tolist() != [params.a, params.b]:
        raise InvalidParameters(
            f"prefix terms must start with a={params.a}, b={params.b}, "
            f"got {prefix.ints[:2].tolist()}")
    statuses = {name: UNKNOWN for name in ("R1", "R2", "R3", "R4", "R5")}
    witnesses: dict = {}

    if code is not None:
        from . import rigidity
        from .patterns import b_max

        bm = b_max(code, params.a, params.b)
        M = prefix.horizon if bm is None else min(prefix.horizon, bm)
        rigidity._check_applicability(code, params, override_applicability)
        threshold = rigidity._threshold(code, prefix, M)
        if threshold is None:
            statuses["R1"] = REFUTED
        else:
            statuses["R1"] = VERIFIED
            witnesses["r1_threshold"] = threshold

    gap_list = gaps(prefix)
    if candidate is None or not candidate_matches_prefix(prefix, candidate):
        candidate = detect_period(gap_list)  # a stale witness is replaced
    if candidate is not None and candidate_matches_prefix(prefix, candidate):
        statuses["R2"] = VERIFIED
        witnesses["r2_candidate"] = candidate

    B = max(gap_list)
    half = len(gap_list) // 2
    # stability heuristic: the second half, open gap included, sets no new
    # gap record
    if (len(gap_list) >= 4 and max(gap_list[half:]) <= max(gap_list[:half])
            and prefix.horizon - prefix.ints[-1] < B):
        statuses["R3"] = VERIFIED
        witnesses["r3_gap_bound"] = B

    if statuses["R2"] == VERIFIED:
        statuses["R4"] = VERIFIED
        witnesses["r4_density"] = density_from_period(candidate)

    if statuses["R3"] == VERIFIED:
        statuses["R5"] = VERIFIED
        witnesses["r5_lower_bound"] = Fraction(1, B)
    elif statuses["R4"] == VERIFIED:
        statuses["R5"] = VERIFIED
        witnesses["r5_lower_bound"] = witnesses["r4_density"]

    return HierarchyReport(statuses, witnesses)
