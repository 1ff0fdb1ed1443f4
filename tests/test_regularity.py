import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (naive_detect_period, naive_runs, naive_ulam,
                     reconstruct_term, scan_density_check, scan_lower_density,
                     vector_gaps, vector_residue_census)
from ulamkit import engine, progressions, regularity
from ulamkit.errors import InvalidParameters
from ulamkit.patterns import PatternCode, PatternComponent, pattern_set
from ulamkit.regularity import REFUTED, UNKNOWN, VERIFIED


def params(a, b):
    return engine.validate_params(a, b)


def prefix(a, b, h):
    return engine.generate_to_horizon(params(a, b), h)


class TestGaps:
    def test_u12(self):
        assert regularity.gaps(prefix(1, 2, 28)) == [1, 1, 1, 2, 2, 3, 2, 3, 2, 8, 2]

    def test_two_terms(self):
        assert regularity.gaps(prefix(3, 10, 10)) == [7]

    def test_requires_two_terms(self):
        p = prefix(1, 2, 28)
        one_term = engine.UlamPrefix(p.params, p.ints[:1].tobytes(), 1)
        with pytest.raises(InvalidParameters):
            regularity.gaps(one_term)


class TestDetectPeriod:
    def test_constant_gaps(self):
        c = regularity.detect_period([4, 4, 4, 4, 4])
        assert (c.N, c.p, c.G) == (0, 1, 4)
        assert c.period_gaps == (4,)
        assert c.periods_observed == 5
        assert c.coverage_fraction == 1

    def test_forced_minimality(self):
        c = regularity.detect_period([5, 9, 1, 2, 1, 2, 1, 2, 1, 2])
        assert (c.N, c.p, c.G) == (2, 2, 3)
        assert c.period_gaps == (1, 2)

    def test_smaller_period_preferred(self):
        # both p=1 (from index 2) and p=2 (from 0) describe the tail
        c = regularity.detect_period([2, 1, 3, 3, 3, 3, 3, 3])
        assert (c.p, c.N) == (1, 2)

    def test_none_when_no_period(self):
        assert regularity.detect_period([1, 2, 4, 8, 16, 32, 64]) is None

    def test_coverage_gate(self):
        gap_list = [9, 8, 7, 6, 5, 4, 2, 2, 2, 2]
        assert regularity.detect_period(gap_list, min_coverage=Fraction(1, 2)) is None
        c = regularity.detect_period(gap_list, min_coverage=Fraction(2, 5))
        assert (c.N, c.p) == (6, 1)

    def test_min_periods_gate(self):
        gap_list = [7, 1, 2, 3, 1, 2, 3]
        assert regularity.detect_period(gap_list, min_periods=3) is None
        c = regularity.detect_period(gap_list, min_periods=2)
        assert (c.N, c.p, c.G) == (1, 3, 6)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            regularity.detect_period([1, 1], min_periods=1)
        with pytest.raises(InvalidParameters):
            regularity.detect_period([1, 1], min_coverage=0)

    def test_u25_candidate(self):
        # stable candidate for a pair long reported gap-regular
        p = prefix(2, 5, 3000)
        c = regularity.detect_period(regularity.gaps(p))
        assert (c.N, c.p, c.G) == (6, 32, 126)
        p2 = prefix(2, 5, 6000)
        c2 = regularity.detect_period(regularity.gaps(p2))
        assert (c2.N, c2.p, c2.period_gaps) == (c.N, c.p, c.period_gaps)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(1, 5), min_size=0, max_size=6),
       st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(3, 8))
def test_detect_period_extension_invariance(head, period, reps):
    gap_list = head + period * reps
    c = regularity.detect_period(gap_list)
    if c is None:
        return
    # extending in phase keeps the same period and threshold
    K = len(gap_list)
    extended = gap_list + [c.period_gaps[(K - c.N + i) % c.p]
                           for i in range(2 * c.p)]
    c2 = regularity.detect_period(extended)
    assert c2 is not None
    assert (c2.N, c2.p, c2.period_gaps) == (c.N, c.p, c.period_gaps)
    # breaking the tail withdraws or changes the candidate
    broken = gap_list + [max(gap_list) + 1]
    c3 = regularity.detect_period(broken)
    assert c3 is None or (c3.N, c3.p) != (c.N, c.p) or len(gap_list) < 2


COVERAGES = st.one_of(
    st.fractions(min_value=Fraction(1, 100), max_value=1),
    st.floats(min_value=0.01, max_value=1.0),
)


class TestDetectPeriodOracle:
    """The Z-function search against the quadratic per-period reference."""

    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.integers(1, 4), max_size=120),
           st.sampled_from([2, 3, 4, 7]), COVERAGES)
    def test_random_lists(self, gap_list, min_periods, min_coverage):
        assert (regularity.detect_period(gap_list, min_periods, min_coverage)
                == naive_detect_period(gap_list, min_periods, min_coverage))

    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.integers(1, 4), max_size=30),
           st.lists(st.integers(1, 4), min_size=1, max_size=8),
           st.integers(1, 15), st.integers(0, 7),
           st.sampled_from([2, 3, 4, 7]), COVERAGES)
    def test_eventually_periodic_lists(self, head, period, reps, cut,
                                       min_periods, min_coverage):
        gap_list = head + period * reps
        gap_list = gap_list[:len(gap_list) - cut]
        assert (regularity.detect_period(gap_list, min_periods, min_coverage)
                == naive_detect_period(gap_list, min_periods, min_coverage))

    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.integers(1, 2), min_size=1, max_size=6),
           st.integers(1, 60), st.lists(st.integers(1, 2), max_size=20),
           st.data())
    def test_match_end(self, word, reps, noise, data):
        # the galloping match against a walk one element at a time
        s = word * reps + noise
        p = data.draw(st.integers(1, len(s)))
        end = 0
        while p + end < len(s) and s[end] == s[p + end]:
            end += 1
        n = data.draw(st.integers(0, end))
        assert regularity._match_end(s, n, p) == end

    @pytest.mark.parametrize("a, b, h", [(1, 2, 200_000), (2, 5, 20_000),
                                         (1, 3, 20_000)])
    def test_real_gaps(self, a, b, h):
        gap_list = regularity.gaps(prefix(a, b, h))
        assert (regularity.detect_period(gap_list)
                == naive_detect_period(gap_list))


class TestReconstruction:
    def test_u25_tail_reconstruction(self):
        p = prefix(2, 5, 5000)
        c = regularity.detect_period(regularity.gaps(p))
        u_N = p.ints[c.N]
        for i in range(c.N, len(p)):
            assert reconstruct_term(c, u_N, i) == p.ints[i]

    def test_below_threshold_rejected(self):
        c = regularity.PeriodicityCandidate(3, 1, (2,), 2, 4, Fraction(1, 2))
        with pytest.raises(InvalidParameters):
            reconstruct_term(c, 10, 2)

    def test_candidate_matches_prefix(self):
        p = prefix(2, 5, 3000)
        c = regularity.detect_period(regularity.gaps(p))
        assert regularity.candidate_matches_prefix(p, c)
        wrong = regularity.PeriodicityCandidate(
            c.N, c.p, tuple(reversed(c.period_gaps)), c.G,
            c.periods_observed, c.coverage_fraction)
        assert not regularity.candidate_matches_prefix(p, wrong)


class TestDensity:
    def test_from_period(self):
        c = regularity.PeriodicityCandidate(0, 2, (2, 3), 5, 4, Fraction(1))
        assert regularity.density_from_period(c) == Fraction(2, 5)
        c1 = regularity.PeriodicityCandidate(0, 1, (4,), 4, 4, Fraction(1))
        assert regularity.density_from_period(c1) == Fraction(1, 4)

    def test_lowest_terms(self):
        c = regularity.PeriodicityCandidate(0, 4, (2, 1, 2, 3), 8, 3, Fraction(1))
        d = regularity.density_from_period(c)
        assert (d.numerator, d.denominator) == (1, 2)

    def test_empirical_u12(self):
        est = regularity.empirical_density(params(1, 2), 28)
        assert (est.count, est.ratio) == (12, Fraction(12, 29))

    def test_empirical_below_a(self):
        est = regularity.empirical_density(params(3, 7), 2)
        assert est.count == 0 and est.ratio == 0

    def test_period_matches_empirical(self):
        p = prefix(2, 5, 4000)
        c = regularity.detect_period(regularity.gaps(p))
        d = regularity.density_from_period(c)
        est = regularity.empirical_density(params(2, 5), 4000)
        assert abs(d - est.ratio) <= Fraction(2, int(4000 ** 0.5))

    def test_non_coprime_refused(self):
        with pytest.raises(InvalidParameters):
            regularity.empirical_density(params(2, 4), 100)
        est = regularity.empirical_density(params(2, 4), 100,
                                           allow_non_coprime=True)
        assert est.count > 0


class TestDensityInequality:
    def test_half_holds(self):
        r = regularity.density_inequality_check(params(1, 2), 1, 2, 1, 0, 10_000)
        assert r.holds and r.first_violation is None

    def test_one_always_holds(self):
        for k in (1, 3, 10):
            r = regularity.density_inequality_check(params(1, 2), 1, 1, k, 0, 2000)
            assert r.holds

    def test_zero_target_large_k_violated(self):
        # with target 0 the bound collapses to k*C(n) <= (n+1)^2, which a
        # large enough k breaks at small n
        r = regularity.density_inequality_check(params(1, 2), 0, 1, 5, 0, 100)
        assert not r.holds
        assert r.first_violation == 1  # 5*C(1)=5 > (1+1)^2=4

    def test_vectorized_matches_scalar(self):
        big = 10 ** 10  # forces the pure-python exact path
        r1 = regularity.density_inequality_check(params(1, 2), 1, big, 7, 0, 300)
        pfx = engine.generate_to_horizon(params(1, 2), 300)
        held = all(
            big * 7 * pfx.count_to(n) <= (7 + big * (n + 1)) * (n + 1)
            for n in range(0, 301)
        )
        assert r1.holds == held

    def test_range_start_respected(self):
        r = regularity.density_inequality_check(params(1, 2), 0, 1, 5, 3, 100)
        assert r.holds  # the only violations sit below n=3

    def test_empty_range_vacuous(self):
        r = regularity.density_inequality_check(params(1, 2), 0, 1, 5, 50, 10)
        assert r.holds and r.first_violation is None


class TestCensus:
    def test_u12_evens(self):
        c = regularity.evens_census(prefix(1, 2, 28))
        assert c.count == 8
        assert c.largest == 28

    def test_empty_class(self):
        p = prefix(1, 2, 28)
        c = regularity.residue_census(p, 97, 0)
        assert c == regularity.Census(0, None, 0)

    def test_modulus_one_counts_everything(self):
        p = prefix(1, 2, 28)
        c = regularity.residue_census(p, 1, 0)
        assert c.count == len(p)

    def test_evens_is_specialisation(self):
        p = prefix(2, 3, 500)
        assert regularity.evens_census(p) == regularity.residue_census(p, 2, 0)

    def test_tail_flag_when_class_dies_out(self):
        # the even terms of U(2,5) stop early; the top half of the prefix is clean
        p = prefix(2, 5, 3000)
        c = regularity.evens_census(p)
        assert c.count == 2
        assert c.largest == 12
        assert c.tail_from == 13

    def test_invalid_residue(self):
        p = prefix(1, 2, 28)
        with pytest.raises(InvalidParameters):
            regularity.residue_census(p, 5, 5)


# H - t_last = 24 is at least the largest gap 2, and the period-1 tail
# predicts a member at 7 <= H
HAND_BUILT = engine.UlamPrefix(params(1, 3), [1, 3, 4, 5, 6], 30)
# detected candidate (p = 5, G = 20) predicts a member at 88 <= 91
U13_AT_91 = prefix(1, 3, 91)
# largest gap 100, but the last term is 18,796
U12_AT_18898 = prefix(1, 2, 18898)
# every gap is 2 and so is H - t_last: 2*C(11) = 10 < 11 - 1 + 1
OPEN_GAP_EQUALS_B = engine.UlamPrefix(params(1, 3), [1, 3, 5, 7, 9], 11)


class TestHierarchy:
    def test_u25_all_verified(self):
        p = prefix(2, 5, 4000)
        rep = regularity.hierarchy_report(params(2, 5), None, None, p)
        assert rep.statuses["R1"] == UNKNOWN  # no code supplied
        for name in ("R2", "R3", "R4", "R5"):
            assert rep.statuses[name] == VERIFIED, name
        assert rep.witnesses["r4_density"] == Fraction(32, 126)
        assert rep.witnesses["r3_gap_bound"] >= max(regularity.gaps(p))
        assert rep.witnesses["r5_lower_bound"] == Fraction(1, rep.witnesses["r3_gap_bound"])

    def test_prefix_of_another_pair_refused(self):
        # the R5 bound once mixed a=1 with U(2,5) and raised AssertionError
        with pytest.raises(InvalidParameters, match=r"prefix is of U\(2,5\)"):
            regularity.hierarchy_report(params(1, 2), None, None,
                                        prefix(2, 5, 3000))

    @pytest.mark.parametrize("terms", [[10, 11, 12, 13, 14], [1, 4, 5, 6, 7],
                                       [3, 4, 5]])
    def test_terms_must_start_with_the_seeds(self, terms):
        # R5 follows from R3 only when t_0 = a: the first of these prefixes
        # once got R2-R5 verified, R5 with 1/1, though 1*C(1) = 0 < 1
        p = engine.UlamPrefix(params(1, 3), terms, terms[-1])
        assert not scan_lower_density(p, 1)
        with pytest.raises(InvalidParameters,
                           match=r"must start with a=1, b=3, got \["):
            regularity.hierarchy_report(params(1, 3), None, None, p)

    def test_growing_gaps_not_certified(self):
        # very short prefix of a pair whose record gap lands late
        p = prefix(1, 2, 28)
        rep = regularity.hierarchy_report(params(1, 2), None, None, p)
        assert rep.statuses["R2"] == UNKNOWN
        assert rep.statuses["R3"] == UNKNOWN
        assert rep.statuses["R5"] == UNKNOWN

    def test_code_feeds_r1(self):
        code = PatternCode((PatternComponent(A1=0, A2=4, B1=0, B2=5, p=2, q=-1),))
        p = prefix(1, 10, 49)
        rep = regularity.hierarchy_report(params(1, 10), code, None, p)
        assert rep.statuses["R1"] == VERIFIED
        # last member below the block is 40, so agreement starts at 41
        assert rep.witnesses["r1_threshold"] == 41

    def test_empty_component_leaves_r1_alone(self):
        # p = 100 > q = 50 holds no point; its upper endpoint once clipped
        # the range at 50, so members 36 to 48 moved the threshold to 49
        terms = naive_ulam(1, 2, 28)
        code = PatternCode(tuple(PatternComponent(p=lo, q=hi)
                                 for lo, hi in naive_runs(terms)))
        empty = PatternCode(code.components + (PatternComponent(p=100, q=50),))
        p = prefix(1, 2, 200)
        assert pattern_set(empty, 1, 2) == pattern_set(code, 1, 2) == terms
        for c in (code, empty):
            rep = regularity.hierarchy_report(params(1, 2), c, None, p)
            assert rep.statuses["R1"] == VERIFIED
            assert rep.witnesses["r1_threshold"] == 0

    def test_refuting_code(self):
        # 49 is a member but not in the code, so the mismatch sits at the
        # very end of the checked range and no threshold exists
        code = PatternCode((PatternComponent(p=41, q=41),))
        p = prefix(1, 10, 49)
        rep = regularity.hierarchy_report(params(1, 10), code, None, p)
        assert rep.statuses["R1"] == REFUTED

    def test_open_gap_past_the_largest_gap(self):
        # once refuted R5 and raised AssertionError; the report now grades
        # nothing, as the stale period-1 tail and the open gap leave no witness
        rep = regularity.hierarchy_report(params(1, 3), None, None, HAND_BUILT)
        assert set(rep.statuses.values()) == {UNKNOWN}
        assert rep.witnesses == {}

    def test_open_gap_must_stay_below_the_largest_gap(self):
        below = OPEN_GAP_EQUALS_B.restrict(10)
        rep = regularity.hierarchy_report(params(1, 3), None, None, below)
        assert rep.statuses["R3"] == rep.statuses["R5"] == VERIFIED
        assert rep.witnesses["r3_gap_bound"] == 2
        rep = regularity.hierarchy_report(params(1, 3), None, None,
                                          OPEN_GAP_EQUALS_B)
        assert rep.statuses["R3"] == UNKNOWN

    def test_open_gap_sets_a_record(self):
        rep = regularity.hierarchy_report(params(1, 2), None, None,
                                          U12_AT_18898)
        assert max(regularity.gaps(U12_AT_18898)) == 100
        assert rep.statuses["R3"] == UNKNOWN
        assert "r3_gap_bound" not in rep.witnesses

    def test_detected_candidate_checked_like_exports(self):
        candidate = regularity.detect_period(regularity.gaps(U13_AT_91))
        assert (candidate.p, candidate.G) == (5, 20)
        assert not regularity.candidate_matches_prefix(U13_AT_91, candidate)
        rep = regularity.hierarchy_report(params(1, 3), None, None, U13_AT_91)
        assert rep.statuses["R2"] == rep.statuses["R4"] == UNKNOWN

    def test_stale_candidate_ignored(self):
        p = prefix(2, 5, 3000)
        bogus = regularity.PeriodicityCandidate(0, 1, (1,), 1, 3, Fraction(1))
        rep = regularity.hierarchy_report(params(2, 5), None, bogus, p)
        # bogus candidate is dropped, fresh detection still succeeds
        assert rep.statuses["R2"] == VERIFIED
        assert rep.witnesses["r2_candidate"].p == 32

    def test_implication_consistency(self):
        for pair, h in [((2, 5), 4000), ((1, 2), 28), ((1, 10), 49)]:
            p = prefix(*pair, h)
            rep = regularity.hierarchy_report(params(*pair), None, None, p)
            s = rep.statuses
            if s["R1"] == VERIFIED:
                assert s["R2"] != REFUTED
            if s["R2"] == VERIFIED:
                assert s["R3"] != REFUTED and s["R4"] != REFUTED
            if s["R3"] == VERIFIED:
                assert s["R5"] != REFUTED

    def test_count_lower_bound_integer_form(self):
        p = prefix(2, 5, 4000)
        B = max(regularity.gaps(p))
        a = 2
        for n in range(a, 4001):
            assert B * p.count_to(n) >= n - a + 1


# Coprime pairs with early, late and no even terms past the seeds.
ORACLE_PAIRS = [(1, 2), (1, 3), (2, 5), (3, 4), (4, 9), (5, 6)]


class TestAgainstReplacedCode:
    """The standard-library analyses against the numpy code they replaced."""

    @given(st.sampled_from(ORACLE_PAIRS), st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_gaps(self, pair, horizon):
        p = prefix(*pair, max(horizon, pair[1]))
        got = regularity.gaps(p)
        assert got == vector_gaps(p)
        terms = naive_ulam(*pair, p.horizon)
        assert got == [y - x for x, y in zip(terms, terms[1:])]

    @given(st.sampled_from(ORACLE_PAIRS), st.integers(0, 3000),
           st.integers(1, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_residue_census(self, pair, horizon, modulus, data):
        residue = data.draw(st.integers(0, modulus - 1))
        p = prefix(*pair, max(horizon, pair[1]))
        c = regularity.residue_census(p, modulus, residue)
        assert (c.count, c.largest, c.tail_from) == vector_residue_census(
            p, modulus, residue)

    @given(st.sampled_from(ORACLE_PAIRS), st.integers(0, 3000),
           st.integers(1, 40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_residue_censuses_in_one_pass(self, pair, horizon, modulus, data):
        # every class at once, or some classes repeated, as one class at a
        # time and as the numpy census
        residues = data.draw(st.lists(st.integers(0, modulus - 1)))
        p = prefix(*pair, max(horizon, pair[1]))
        for chosen in (range(modulus), residues):
            got = regularity.residue_censuses(p, modulus, chosen)
            assert got == [regularity.residue_census(p, modulus, r)
                           for r in chosen]
            assert got == [regularity.Census(*vector_residue_census(
                p, modulus, r)) for r in chosen]
        with pytest.raises(InvalidParameters):
            regularity.residue_censuses(p, modulus, [*residues, modulus])

    @given(st.sampled_from(ORACLE_PAIRS), st.integers(4, 3000))
    @settings(max_examples=40, deadline=None)
    def test_hierarchy_r5(self, pair, horizon):
        p = prefix(*pair, max(horizon, pair[1]))
        rep = regularity.hierarchy_report(params(*pair), None, None, p)
        if rep.statuses["R3"] == VERIFIED:
            B = rep.witnesses["r3_gap_bound"]
            assert scan_lower_density(p, B)
            assert rep.statuses["R5"] == VERIFIED
            assert rep.witnesses["r5_lower_bound"] == Fraction(1, B)


@functools.lru_cache(maxsize=None)
def sieved(pair):
    return prefix(*pair, 3000)


# Any increasing terms, with a horizon that may run far past the last, and
# restrictions of sieve-built prefixes.
ANY_PREFIX = st.one_of(
    st.builds(lambda points, slack: engine.UlamPrefix(
        params(min(points), sorted(points)[1]), sorted(points),
        max(points) + slack),
        st.sets(st.integers(1, 400), min_size=2, max_size=40),
        st.integers(0, 300)),
    st.builds(lambda pair, h: sieved(pair).restrict(max(h, pair[1])),
              st.sampled_from(ORACLE_PAIRS), st.integers(0, 3000)))


def report_on(p):
    return regularity.hierarchy_report(p.params, None, None, p,
                                       allow_non_coprime=True)


def found_examples(test):
    for p in (HAND_BUILT, U13_AT_91, U12_AT_18898, OPEN_GAP_EQUALS_B):
        test = example(p)(test)
    return test


class TestHierarchyOnAnyPrefix:
    """What hierarchy_report grades holds of the prefix it was given."""

    @found_examples
    @given(ANY_PREFIX)
    @settings(max_examples=150, deadline=None)
    def test_never_raises(self, p):
        assert isinstance(report_on(p), regularity.HierarchyReport)

    @found_examples
    @given(ANY_PREFIX)
    @settings(max_examples=150, deadline=None)
    def test_only_r1_can_be_refuted(self, p):
        statuses = report_on(p).statuses
        assert REFUTED not in [statuses[name] for name in ("R2", "R3", "R4",
                                                           "R5")]

    @found_examples
    @given(ANY_PREFIX)
    @settings(max_examples=150, deadline=None)
    def test_r3_witness_bounds_the_open_gap(self, p):
        rep = report_on(p)
        if rep.statuses["R3"] == VERIFIED:
            B = rep.witnesses["r3_gap_bound"]
            assert p.horizon - p.ints[-1] < B
            assert scan_lower_density(p, B)
            assert rep.witnesses["r5_lower_bound"] == Fraction(1, B)

    @found_examples
    @given(ANY_PREFIX)
    @settings(max_examples=150, deadline=None)
    def test_r2_candidate_passes_ap_decomposition(self, p):
        rep = report_on(p)
        if rep.statuses["R2"] == VERIFIED:
            progressions.ap_decomposition(p, rep.witnesses["r2_candidate"],
                                          allow_non_coprime=True)
            assert rep.statuses["R4"] == VERIFIED


def density_case(q_num):
    """Cases for one sign of q: a pair, q_den, k (up to past 2**62, where
    the replaced scan took its one-n-at-a-time path), N and n_max."""
    return st.tuples(st.sampled_from(ORACLE_PAIRS), q_num, st.integers(1, 13),
                     st.one_of(st.integers(1, 60), st.integers(1, 10**5),
                               st.integers(2**61, 2**70)),
                     st.integers(0, 2500), st.integers(0, 3000))


class TestDensityAgainstScan:
    """density_inequality_check against the n-by-n scan it replaced."""

    @staticmethod
    def check(case):
        pair, q_num, q_den, k, N, n_max = case
        got = regularity.density_inequality_check(params(*pair), q_num, q_den,
                                                  k, N, n_max)
        p = prefix(*pair, max(n_max, pair[1]))
        assert (got.holds, got.first_violation) == scan_density_check(
            p, q_num, q_den, k, N, n_max)

    @given(density_case(st.integers(-60, -1)))
    @settings(max_examples=200, deadline=None)
    def test_negative_q(self, case):
        self.check(case)

    @given(density_case(st.just(0)))
    @settings(max_examples=100, deadline=None)
    def test_zero_q(self, case):
        self.check(case)

    @given(density_case(st.integers(1, 30)))
    @settings(max_examples=150, deadline=None)
    def test_positive_q(self, case):
        self.check(case)

    @pytest.mark.parametrize("q_num,q_den,k,N", [
        (-1, 13, 40, 0), (-1, 13, 400, 0), (-1, 13, 400, 31), (-7, 3, 25, 55),
        (-1, 2, 2**63, 0), (0, 1, 2**63, 0), (1, 13, 2**63, 100),
        (0, 1, 650, 400), (1, 2, 10**4, 1)])
    def test_edges(self, q_num, q_den, k, N):
        self.check(((1, 2), q_num, q_den, k, N, 2000))
