import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamkit import engine, rigidity
from ulamkit.errors import ApplicabilityError, InvalidParameters
from ulamkit.patterns import (Applicability, PatternCode, PatternComponent,
                              b_max, code_id, eval_endpoints, in_pattern,
                              pattern_mask, pattern_set)

from oracles import (naive_runs, naive_ulam, pattern_bits, point_set,
                     random_code, setxor_first_mismatch, setxor_threshold)

BLOCK = PatternComponent(A1=0, A2=4, B1=0, B2=5, p=2, q=-1)
BLOCK_CODE = PatternCode((BLOCK,))


def params(a, b):
    return engine.validate_params(a, b)


class TestVerifySegment:
    def test_block_on_u1_50(self):
        r = rigidity.verify_segment(BLOCK_CODE, params(1, 50), 202, 249)
        assert r.agrees
        assert r.first_mismatch is None
        assert r.matched_count == 48
        assert r.code == code_id(BLOCK_CODE)

    def test_empty_range_vacuous(self):
        r = rigidity.verify_segment(BLOCK_CODE, params(1, 50), 10, 9)
        assert r.agrees
        assert r.matched_count == 0

    def test_perturbed_endpoint_mismatch(self):
        # widen the block by one: the extra point 5n is not a member
        wide = PatternCode((PatternComponent(A1=0, A2=4, B1=0, B2=5, p=2, q=0),))
        r = rigidity.verify_segment(wide, params(1, 50), 202, 250)
        assert not r.agrees
        assert r.first_mismatch == (250, rigidity.IN_PATTERN_NOT_ULAM)
        assert r.matched_count == 250 - 202

    def test_mismatch_direction_member_side(self):
        # empty code disagrees exactly at the members
        r = rigidity.verify_segment(PatternCode(), params(1, 2), 5, 30)
        assert not r.agrees
        assert r.first_mismatch == (6, rigidity.IN_ULAM_NOT_PATTERN)

    def test_mismatch_reproducible_by_set_difference(self):
        wide = PatternCode((PatternComponent(A1=0, A2=4, B1=0, B2=5, p=1, q=-1),))
        n = 20
        r = rigidity.verify_segment(wide, params(1, n), 4 * n + 1, 5 * n - 1)
        terms = set(naive_ulam(1, n, 5 * n - 1))
        pattern = set(range(4 * n + 1, 5 * n))
        diff = sorted(terms.symmetric_difference(pattern) & set(range(4 * n + 1, 5 * n)))
        assert not r.agrees
        assert r.first_mismatch[0] == diff[0]

    def test_applicability_enforced(self):
        code = PatternCode((BLOCK,), Applicability(2, 0))
        with pytest.raises(ApplicabilityError):
            rigidity.verify_segment(code, params(1, 9), 38, 44)
        r = rigidity.verify_segment(code, params(1, 9), 38, 44,
                                    override_applicability=True)
        assert r.agrees

    def test_monotone_in_lower_endpoint(self):
        N0 = rigidity.search_threshold(BLOCK_CODE, params(1, 10), 49)
        assert N0 is not None
        for N in (N0, N0 + 3, 45):
            assert rigidity.verify_segment(BLOCK_CODE, params(1, 10), N, 49).agrees
        if N0 > 0:
            assert not rigidity.verify_segment(BLOCK_CODE, params(1, 10), N0 - 1,
                                               49).agrees


class TestSearchThreshold:
    def test_exact_match_gives_zero(self):
        # a code that is exactly the members of U(1,2) up to 28
        comps = tuple(PatternComponent(p=t, q=t)
                      for t in [1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26, 28])
        assert rigidity.search_threshold(PatternCode(comps), params(1, 2), 28) == 0

    def test_threshold_past_last_mismatch(self):
        prefix = engine.generate_to_horizon(params(1, 10), 49)
        N0 = rigidity.search_threshold(BLOCK_CODE, params(1, 10), 49)
        # members below the block mismatch; the block itself agrees
        last_low_member = max(t for t in prefix.term_list() if t < 42)
        assert N0 == last_low_member + 1

    def test_disagreement_at_endpoint_gives_none(self):
        # pattern claims one point past the horizon-checked member region
        code = PatternCode((PatternComponent(p=50, q=50),))
        prefix = engine.generate_to_horizon(params(1, 2), 50)
        got = rigidity.search_threshold(code, params(1, 2), 50)
        assert (50 in prefix.term_list()) is False
        assert got is None

    @pytest.mark.parametrize("M", [-1, -20])
    def test_empty_range_below_zero_gives_zero(self, M):
        # [0, M] holds nothing to disagree on, even with a point at -1
        code = PatternCode((PatternComponent(p=-1, q=5),))
        assert rigidity.search_threshold(code, params(1, 2), M) == 0


class TestFamilySweep:
    def test_block_over_class(self):
        entries = rigidity.family_sweep(BLOCK_CODE, 1, 0, range(4, 14), (5, -1))
        assert len(entries) == 10
        for e in entries:
            assert e.error is None
            assert e.report.N == 1 and e.report.M == 5 * e.n - 1
            # the full window [1, 5n-1] has low members outside the block
            assert not e.report.agrees

    def test_block_on_own_interval_via_segment(self):
        for n in range(4, 14):
            r = rigidity.verify_segment(BLOCK_CODE, params(1, n), 4 * n + 2, 5 * n - 1)
            assert r.agrees, f"n={n}"

    def test_empty_n_values(self):
        assert rigidity.family_sweep(BLOCK_CODE, 1, 0, [], (5, -1)) == []

    def test_out_of_class_n_errors_individually(self):
        entries = rigidity.family_sweep(BLOCK_CODE, 2, 0, [4, 5, 6], (5, -1))
        assert entries[0].error is None
        assert entries[1].report is None and "mod" in entries[1].error
        assert entries[2].error is None

    @pytest.mark.parametrize("modulus, residue", [(0, 0), (-3, 0), (3, 3)])
    def test_bad_class_refused(self, modulus, residue):
        with pytest.raises(InvalidParameters):
            rigidity.family_sweep(PatternCode(), modulus, residue, [4], (5, -1))

    def test_degenerate_n_reported_not_raised(self):
        entries = rigidity.family_sweep(BLOCK_CODE, 1, 0, [1, 4], (5, -1))
        assert entries[0].report is None and entries[0].error
        assert entries[1].error is None


ORACLE_PAIRS = [(1, 2), (1, 10), (2, 5), (3, 4), (1, 50)]


@given(st.integers(0, 10**9), st.sampled_from(ORACLE_PAIRS),
       st.integers(0, 1500), st.integers(0, 1500))
@settings(max_examples=200, deadline=None)
def test_matches_setxor_reference(seed, pair, N, M):
    # random codes against the np.setxor1d comparison the sets replaced
    code = random_code(random.Random(seed))
    p = params(*pair)
    prefix = engine.generate_to_horizon(p, max(M, p.b))
    report = rigidity.verify_segment(code, p, N, M, override_applicability=True)
    if N <= M:
        expected = setxor_first_mismatch(code, prefix, N, M)
        if expected is None:
            assert report.agrees and report.matched_count == M - N + 1
        else:
            first, in_ulam = expected
            direction = (rigidity.IN_ULAM_NOT_PATTERN if in_ulam
                         else rigidity.IN_PATTERN_NOT_ULAM)
            assert not report.agrees
            assert report.first_mismatch == (first, direction)
            assert report.matched_count == first - N
    assert (rigidity.search_threshold(code, p, M, override_applicability=True)
            == setxor_threshold(code, prefix, M))


def test_random_codes_draw_masks_and_unbounded_components():
    # the generator the mask tests below draw from covers both shapes
    comps = [c for seed in range(50)
             for c in random_code(random.Random(seed)).components]
    assert any(c.L > 1 and 0 < len(c.S) < c.L for c in comps)
    assert any(c.unbounded for c in comps)


@given(st.integers(0, 10**9), st.sampled_from([(1, 2), (2, 5), (3, 4)]),
       st.sampled_from(["one", "least A"]), st.integers(-300, 30),
       st.integers(-30, 300))
@settings(max_examples=120, deadline=None)
def test_bit_sets_match_point_oracle_and_scan(seed, pair, anchor, below, above):
    # windows start below 1 or below the least A and end above b_max, so
    # every clip of pattern_mask and _mismatches is crossed
    code = random_code(random.Random(seed))
    a, b = pair
    ends = [eval_endpoints(c, a, b) for c in code.components]
    least = min((A for A, _ in ends), default=1)
    top = max([B for _, B in ends if B is not None] + [b])
    N = (1 if anchor == "one" else least) + below
    M = max(N, top + above)
    prefix = engine.generate_to_horizon(params(a, b), max(M, b))
    members = set(prefix.term_list())

    def scan(lo, hi):
        return [m for m in range(lo, hi + 1)
                if (m in members) != in_pattern(code, a, b, m)]

    mask = pattern_mask(code, a, b, N, M)
    assert mask == bytearray(m in point_set(code, a, b, N, M)
                             for m in range(N, M + 1))
    assert sum(1 << i for i, v in enumerate(mask) if v) == pattern_bits(
        code, a, b, N, M)
    sym = scan(N, M)
    assert sym == sorted(members & set(range(N, M + 1))
                         ^ point_set(code, a, b, N, M))
    report = rigidity.verify_segment(code, params(a, b), N, M,
                                     override_applicability=True)
    first = None if not sym else (sym[0], rigidity.IN_ULAM_NOT_PATTERN
                                  if sym[0] in members
                                  else rigidity.IN_PATTERN_NOT_ULAM)
    assert (report.agrees, report.first_mismatch, report.matched_count) == (
        not sym, first, sym[0] - N if sym else M - N + 1)
    tail = scan(0, M)
    assert rigidity._threshold(code, prefix, M) == (
        0 if not tail else tail[-1] + 1 if tail[-1] < M else None)
    assert rigidity._threshold(code, prefix, M) == setxor_threshold(
        code, prefix, M)
    if not code.has_unbounded:
        listed = pattern_set(code, a, b)
        assert listed == sorted(point_set(code, a, b))
        hi = b_max(code, a, b)
        assert listed == ([] if hi is None else [
            m for m in range(least, hi + 1) if in_pattern(code, a, b, m)])


def cap_windows(monkeypatch, limit=10**4):
    """Fail, before anything is allocated, on a mask wider than limit."""
    mask = rigidity.pattern_mask

    def capped_mask(code, a, b, lo, hi):
        assert hi - lo < limit
        return mask(code, a, b, lo, hi)

    monkeypatch.setattr(rigidity, "pattern_mask", capped_mask)


def test_window_far_below_one_costs_its_points(monkeypatch):
    # no member lies below a and no point below its component's A, so the
    # masks start at 1; a component that is empty far below changes
    # nothing
    runs = naive_runs(naive_ulam(1, 20, 599))
    code = PatternCode(tuple(PatternComponent(p=lo, q=hi) for lo, hi in runs)
                       + (PatternComponent(p=-10**12, q=-10**12 - 1),))
    cap_windows(monkeypatch)
    N = -10**12
    r = rigidity.verify_segment(code, params(1, 20), N, 599)
    assert (r.agrees, r.first_mismatch, r.matched_count) == (
        True, None, 1_000_000_000_600)
    r = rigidity.verify_segment(PatternCode(code.components[1:]),
                                params(1, 20), N, 599)
    assert (r.first_mismatch, r.matched_count) == (
        (1, rigidity.IN_ULAM_NOT_PATTERN), 10**12 + 1)


def test_point_far_below_one_is_found_by_arithmetic(monkeypatch):
    # a point of the code below a is a mismatch whatever the members are,
    # so the least one is the report and no mask reaches down to it
    far = -10**12
    p = params(1, 2)
    prefix = engine.generate_to_horizon(p, 10)
    cap_windows(monkeypatch)
    for comp, first in [(PatternComponent(p=far, q=far + 5), far),
                        (PatternComponent(p=far - 7, q=far + 50, L=10,
                                          S=frozenset({3, 9})), far + 2)]:
        code = PatternCode((comp, PatternComponent(p=1, q=2)))
        r = rigidity.verify_segment(code, p, far, 10)
        assert setxor_first_mismatch(code, prefix, far, 10) == (first, False)
        assert (r.agrees, r.first_mismatch, r.matched_count) == (
            False, (first, rigidity.IN_PATTERN_NOT_ULAM), first - far)
        assert rigidity._threshold(code, prefix, 10) == setxor_threshold(
            code, prefix, 10)


def test_many_one_point_components_and_a_masked_tail():
    # a component per term, as ap_decomposition starts its code, then a
    # periodic tail that agrees with the members only here and there
    p = params(1, 2)
    prefix = engine.generate_to_horizon(p, 25_000)
    head = prefix.term_list()[:1500]
    tail = PatternComponent(p=head[-1] + 1, L=7, S=frozenset({0, 3}),
                            unbounded=True)
    code = PatternCode(tuple(PatternComponent(p=t, q=t) for t in head)
                       + (tail,))
    for N, M in [(1, head[-1]), (-50, 25_000), (head[-1] - 99, 20_000),
                 (head[700], head[-1] + 40)]:
        r = rigidity.verify_segment(code, p, N, M)
        expected = setxor_first_mismatch(code, prefix, N, M)
        first = None if expected is None else (expected[0], (
            rigidity.IN_ULAM_NOT_PATTERN if expected[1]
            else rigidity.IN_PATTERN_NOT_ULAM))
        assert (r.agrees, r.first_mismatch) == (expected is None, first)
        assert rigidity._threshold(code, prefix, M) == setxor_threshold(
            code, prefix, M)
    assert rigidity.verify_segment(code, p, 1, head[-1]).agrees


def test_huge_mask_period_costs_its_points(monkeypatch):
    # one point per s at L = 10**12 is one byte, never an L-byte block
    L = 10**12
    bounded = PatternComponent(p=3, q=5000, L=L, S=frozenset({0, 5, L - 1}))
    code = PatternCode((bounded, PatternComponent(
        A2=1, p=-1, L=L, S=frozenset({0, 7}), unbounded=True)))
    p = params(1, 2)
    prefix = engine.generate_to_horizon(p, 500)
    cap_windows(monkeypatch)
    for N, M in [(1, 500), (-10**12, 500), (4, 8)]:
        r = rigidity.verify_segment(code, p, N, M)
        expected = setxor_first_mismatch(code, prefix, N, M)
        first = None if expected is None else (expected[0], (
            rigidity.IN_ULAM_NOT_PATTERN if expected[1]
            else rigidity.IN_PATTERN_NOT_ULAM))
        assert r.first_mismatch == first
    assert rigidity._threshold(code, prefix, 500) == setxor_threshold(
        code, prefix, 500)
    assert pattern_set(PatternCode((bounded,)), 1, 2) == [3, 8]
