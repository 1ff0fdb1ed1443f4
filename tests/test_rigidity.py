import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamkit import engine, rigidity
from ulamkit.errors import ApplicabilityError, InvalidParameters
from ulamkit.patterns import Applicability, PatternCode, PatternComponent, code_id

from oracles import (naive_ulam, random_code, setxor_first_mismatch,
                     setxor_threshold)

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
