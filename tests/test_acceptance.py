"""Executable acceptance gates, one verdict line per criterion.

Every test prints `ACCEPTANCE <id>: PASS/FAIL - detail` before asserting,
so the captured output carries a one-line verdict even when a criterion
fails. Criterion 8b scans the density inequality with target ratio 0,
where it reads k * C(n) <= (n+1)^2. Since C(0) = 0 and C(n) <= n for a
sequence of positive integers, and (n+1)^2 / n >= 4, no k <= 4 can be
violated. The criterion therefore derives the least violating k and the
least violating n from the brute-force oracle, and checks that the scan
reports no violation below that k and exactly that n at it.
"""

import random
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd

import numpy as np
import pytest

from oracles import (ap_member, fixed_point_fault, naive_ap_decomposition,
                     naive_ulam, parse_presburger, random_code,
                     reconstruct_term, rep_table, terms_array)
from ulamkit.cache import decode_prefix, encode_prefix
from ulamkit.engine import UlamPrefix, generate_to_horizon, validate_params
from ulamkit.mining import mine
from ulamkit.patterns import (Applicability, PatternCode, PatternComponent,
                              decode, encode, in_pattern)
from ulamkit.progressions import ap_decomposition, to_presburger_text
from ulamkit.regularity import (density_inequality_check, detect_period,
                                empirical_density, gaps)
from ulamkit.rigidity import verify_segment

U12 = [1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26, 28]
REP_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4)]
COPRIME_PAIRS = [(a, b) for a in range(1, 10) for b in range(a + 1, 11)
                 if gcd(a, b) == 1]
BLOCK_CODE = PatternCode(
    (PatternComponent(A1=0, A2=4, B1=0, B2=5, p=2, q=-1),),
    Applicability(1, 0))
REGULAR_PAIRS = [(2, 5), (2, 7)]


def verdict(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {tag}: {detail}"


@pytest.fixture(scope="module")
def u12_million():
    return generate_to_horizon(validate_params(1, 2), 10**6)


def test_criterion_1_exact_prefix_reproduction():
    start = time.perf_counter()
    prefix = generate_to_horizon(validate_params(1, 2), 28)
    elapsed = time.perf_counter() - start
    ok = prefix.term_list() == U12 and elapsed < 1.0
    verdict(1, ok, f"U(1,2) to 28 = {prefix.term_list()} in {elapsed:.3f}s")


def test_criterion_2_representation_bounds():
    start = time.perf_counter()
    horizon = 10_000
    violations = 0
    for a, b in REP_PAIRS:
        prefix = generate_to_horizon(validate_params(a, b), horizon)
        table = rep_table(prefix.term_list(), horizon)
        terms = terms_array(prefix)
        violations += int(np.count_nonzero(table[terms[2:]] != 1))
        non_member = np.ones(horizon + 1, dtype=bool)
        non_member[terms] = False
        non_member[:b + 1] = False
        violations += int(np.count_nonzero(table[non_member] == 1))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    verdict(2, ok, f"{len(REP_PAIRS)} pairs to {horizon}: "
                   f"{violations} representation-bound violations "
                   f"in {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    horizon = 2000
    mismatched = [(a, b) for a, b in COPRIME_PAIRS
                  if generate_to_horizon(validate_params(a, b),
                                         horizon).term_list()
                  != naive_ulam(a, b, horizon)]
    elapsed = time.perf_counter() - start
    ok = len(COPRIME_PAIRS) == 31 and not mismatched and elapsed < 60.0
    verdict(3, ok, f"sieve == naive oracle on {len(COPRIME_PAIRS)} coprime "
                   f"pairs to {horizon} in {elapsed:.1f}s"
                   + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_criterion_4_density_reproduction():
    start = time.perf_counter()
    est = empirical_density(validate_params(1, 2), 10**6)
    elapsed = time.perf_counter() - start
    ok = (Fraction(6, 100) <= est.ratio <= Fraction(8, 100)
          and elapsed < 120.0)
    verdict(4, ok, f"C(10^6)/(10^6+1) = {est.count}/{est.n + 1} "
                   f"= {float(est.ratio):.5f} in [0.06, 0.08], "
                   f"{elapsed:.1f}s")


def test_criterion_5_mined_block_verification():
    code, holdout = mine(1, 0, [4, 5, 6], (5, -1))
    assert code.applicability == Applicability(1, 0)
    assert all(r.agrees for r in holdout)
    qualifying = range(4, 24)
    mismatches = []
    for n in qualifying:
        report = verify_segment(BLOCK_CODE, validate_params(1, n),
                                4 * n + 2, 5 * n - 1)
        if not report.agrees:
            mismatches.append((n, report.first_mismatch))
    ok = not mismatches and len(qualifying) >= 10
    verdict(5, ok, f"block [4n+2, 5n-1] vs U(1,n) for n in "
                   f"[{qualifying[0]}, {qualifying[-1]}]: "
                   f"{len(mismatches)} mismatches"
                   + (f" ({mismatches[:3]})" if mismatches else ""))


def test_criterion_6_period_density_coherence():
    combos = [(a, b, h) for a, b in REGULAR_PAIRS for h in (2000, 4000)]
    rng = random.Random(0x2026)
    small_pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 15)
                   if gcd(a, b) == 1]
    combos += [(*rng.choice(small_pairs), rng.randrange(300, 2500))
               for _ in range(60)]
    validated = 0
    failures = []
    for a, b, horizon in combos:
        prefix = generate_to_horizon(validate_params(a, b), horizon)
        cand = detect_period(gaps(prefix))
        if cand is None:
            continue
        validated += 1
        terms = prefix.term_list()
        u_N = terms[cand.N]
        for i in range(cand.N, len(terms)):
            if reconstruct_term(cand, u_N, i) != terms[i]:
                failures.append((a, b, horizon, "reconstruction", i))
                break
        gap_density = Fraction(cand.p, cand.G)
        counting = Fraction(len(terms), horizon + 1)
        if abs(gap_density - counting) > Fraction(cand.G + u_N, horizon + 1):
            failures.append((a, b, horizon, "density-bound"))
    ok = not failures and validated >= 4
    verdict(6, ok, f"{validated} detected candidates out of {len(combos)} "
                   f"runs: tail reconstruction exact and "
                   f"|p/G - C(n)/(n+1)| <= (G+u_N)/(n+1) at n=horizon"
                   + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_7_ap_presburger_coherence():
    horizon = 2000
    formula_limit = 10_000
    discrepancies = 0
    for a, b in REGULAR_PAIRS:
        prefix = generate_to_horizon(validate_params(a, b), horizon)
        cand = detect_period(gaps(prefix))
        code = ap_decomposition(prefix, cand)
        decomp = naive_ap_decomposition(prefix, cand)
        for m in range(horizon + 1):
            if in_pattern(code, a, b, m) != prefix.contains(m):
                discrepancies += 1
            if in_pattern(code, a, b, m) != ap_member(decomp, m):
                discrepancies += 1
        evaluate = parse_presburger(to_presburger_text(code, a, b))
        for m in range(formula_limit + 1):
            if evaluate(m) != in_pattern(code, a, b, m):
                discrepancies += 1
    verdict(7, discrepancies == 0,
            f"in_pattern on the code == is_member (m <= {horizon}) and the "
            f"replaced decomposition, and re-parsed formula "
            f"(m <= {formula_limit}) on U(2,5), U(2,7): "
            f"{discrepancies} discrepancies")


def test_criterion_8a_density_inequality_matrix():
    params = validate_params(1, 2)
    failing = []
    for k in range(1, 11):
        result = density_inequality_check(params, 1, 2, k, 1, 10_000)
        if not result.holds:
            failing.append((k, result.first_violation))
    verdict("8a", not failing,
            "q=1/2, k=1..10: inequality holds for all n <= 10^4"
            + (f"; failures {failing}" if failing else ""))


def test_criterion_8b_zero_target_violation():
    params = validate_params(1, 2)
    n_max = 10_000
    members = set(naive_ulam(1, 2, n_max))
    counts = list(accumulate(int(n in members) for n in range(n_max + 1)))
    # With q = 0 the scanned inequality is k * C(n) <= (n+1)^2, so n
    # violates it exactly when k > (n+1)^2 / C(n).
    k_min = min((n + 1) ** 2 // c + 1 for n, c in enumerate(counts) if c)
    n_first = next(n for n, c in enumerate(counts)
                   if k_min * c > (n + 1) ** 2)
    below = [(k, density_inequality_check(params, 0, 1, k, 1, n_max))
             for k in range(1, k_min)]
    wrong = [(k, r.first_violation) for k, r in below
             if not r.holds or r.first_violation is not None]
    at = density_inequality_check(params, 0, 1, k_min, 1, n_max)
    ok = not wrong and not at.holds and at.first_violation == n_first
    verdict("8b", ok,
            f"q=0, n <= 10^4: oracle gives least violating k={k_min} at "
            f"n={n_first}; scan holds for k=1..{k_min - 1}"
            + (f" except {wrong}" if wrong else "")
            + f", and at k={k_min} reports holds={at.holds}, "
            f"first_violation={at.first_violation}")


def test_criterion_9_roundtrip_identities(u12_million):
    rng = random.Random(0x0909)
    code_failures = 0
    for _ in range(1000):
        code = random_code(rng)
        if decode(encode(code)) != code:
            code_failures += 1
    cache_failures = 0
    for _ in range(1000):
        size = rng.randint(2, 150)
        terms = sorted({rng.randrange(1, 10**9) for _ in range(size)})
        while len(terms) < 2:
            terms.append(terms[-1] + rng.randint(1, 100) if terms else 1)
            terms = sorted(set(terms))
        arr = np.array(terms, dtype=np.int64)
        prefix = UlamPrefix(validate_params(int(arr[0]), int(arr[1])), arr,
                            int(arr[-1]) + rng.randrange(0, 10**6))
        back = decode_prefix(encode_prefix(prefix))
        if not (back.ints == prefix.ints
                and back.horizon == prefix.horizon
                and back.params == prefix.params):
            cache_failures += 1
    big = decode_prefix(encode_prefix(u12_million))
    big_ok = (big.ints == u12_million.ints
              and big.horizon == u12_million.horizon)
    ok = code_failures == 0 and cache_failures == 0 and big_ok
    verdict(9, ok, f"1000 pattern-code and 1000 cache roundtrips plus the "
                   f"10^6-horizon prefix: {code_failures + cache_failures} "
                   f"failures" + ("" if big_ok else "; large prefix differs"))


@pytest.mark.parametrize("a, b", [(1, 2), (2, 5), (1, 1000)])
def test_sieve_to_a_million_passes_the_fixed_point_oracle(a, b, request):
    # the byte tables at scale, against an oracle that shares no sieve code
    prefix = (request.getfixturevalue("u12_million") if (a, b) == (1, 2)
              else generate_to_horizon(validate_params(a, b), 10**6))
    assert fixed_point_fault(prefix.term_list(), a, b, 10**6) is None
