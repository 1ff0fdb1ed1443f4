
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulamkit import engine
from ulamkit.errors import HorizonTooLarge, InsufficientHorizon, InvalidParameters

from oracles import (naive_rep_count, naive_ulam, rep_table, scatter_extend,
                     scatter_generate)

U12_PREFIX = [1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26, 28]
# frozen from the brute-force oracle
U23_TO_30 = [2, 3, 5, 7, 8, 9, 13, 14, 18, 19, 24, 25, 29, 30]


def params(a, b):
    return engine.validate_params(a, b)


class TestValidateParams:
    def test_coprime_flag(self):
        assert params(1, 2).coprime is True
        assert params(2, 4).coprime is False

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameters):
            engine.validate_params(3, 3)
        with pytest.raises(InvalidParameters):
            engine.validate_params(5, 2)
        with pytest.raises(InvalidParameters):
            engine.validate_params(0, 2)

    def test_rejects_non_ints(self):
        with pytest.raises(InvalidParameters):
            engine.validate_params(1.0, 2)
        with pytest.raises(InvalidParameters):
            engine.validate_params(True, 2)


class TestGenerate:
    def test_known_prefix(self):
        p = engine.generate_to_horizon(params(1, 2), 28)
        assert p.term_list() == U12_PREFIX

    def test_excludes_two_representation_value(self):
        p = engine.generate_to_horizon(params(1, 2), 5)
        assert p.term_list() == [1, 2, 3, 4]

    def test_u23_against_oracle_freeze(self):
        p = engine.generate_to_horizon(params(2, 3), 30)
        assert p.term_list() == U23_TO_30

    def test_horizon_below_b(self):
        with pytest.raises(InvalidParameters):
            engine.generate_to_horizon(params(2, 5), 4)

    def test_horizon_equal_b(self):
        p = engine.generate_to_horizon(params(2, 5), 5)
        assert p.term_list() == [2, 5]

    def test_resource_limit(self):
        with pytest.raises(HorizonTooLarge) as ei:
            engine.generate_to_horizon(params(1, 2), 1000, max_horizon=100)
        assert ei.value.requested == 1000
        assert ei.value.limit == 100

    def test_terms_read_only(self):
        p = engine.generate_to_horizon(params(1, 2), 28)
        with pytest.raises(ValueError):
            p.terms[0] = 99


class TestGenerateCount:
    def test_first_two(self):
        p = engine.generate_count(params(1, 2), 2)
        assert p.term_list()[:2] == [1, 2]

    def test_twelfth_term(self):
        p = engine.generate_count(params(1, 2), 12)
        assert len(p) >= 12
        assert int(p.terms[11]) == 28
        assert p.horizon >= 28

    def test_u23_tenth(self):
        # frozen from the brute-force oracle
        assert engine.nth_term(params(2, 3), 10) == 19

    def test_resource_limit_carries_partial(self):
        with pytest.raises(HorizonTooLarge) as ei:
            engine.generate_count(params(1, 2), 10_000, max_horizon=50)
        assert ei.value.partial is not None
        assert ei.value.partial.horizon == 50

    def test_k_zero(self):
        with pytest.raises(InvalidParameters):
            engine.generate_count(params(1, 2), 0)


class TestQueries:
    def test_membership(self):
        assert engine.is_member(params(1, 2), 11) is True
        assert engine.is_member(params(1, 2), 5) is False
        assert engine.is_member(params(3, 7), 3) is True

    def test_membership_below_b(self):
        assert engine.is_member(params(5, 9), 5) is True
        assert engine.is_member(params(5, 9), 4) is False

    def test_nth(self):
        assert engine.nth_term(params(1, 2), 5) == 6
        assert engine.nth_term(params(4, 11), 1) == 4
        # frozen from the brute-force oracle
        assert engine.nth_term(params(2, 3), 6) == 9

    def test_count_upto(self):
        assert engine.count_upto(params(1, 2), 10) == 6
        assert engine.count_upto(params(1, 2), 0) == 0
        assert engine.count_upto(params(1, 2), 28) == 12

    def test_count_monotone_steps(self):
        p = engine.generate_to_horizon(params(1, 2), 100)
        counts = [p.count_to(n) for n in range(101)]
        deltas = np.diff(counts)
        assert set(deltas.tolist()) <= {0, 1}
        assert sum(deltas) + counts[0] == len(p)
        for t in p.term_list():
            assert counts[t] == counts[t - 1] + 1

    def test_count_beyond_horizon_raises(self):
        p = engine.generate_to_horizon(params(1, 2), 50)
        with pytest.raises(InsufficientHorizon):
            p.count_to(51)


class TestRepCount:
    def test_known_values(self):
        p = engine.generate_to_horizon(params(1, 2), 30)
        assert engine.rep_count_exact(p, 5) == 2
        assert engine.rep_count_exact(p, 3) == 1

    def test_below_smallest_sum(self):
        p = engine.generate_to_horizon(params(3, 8), 100)
        for n in range(1, 11):
            assert engine.rep_count_exact(p, n) == 0

    def test_beyond_horizon(self):
        p = engine.generate_to_horizon(params(1, 2), 30)
        with pytest.raises(InsufficientHorizon):
            engine.rep_count_exact(p, 31)

    def test_matches_oracle(self):
        p = engine.generate_to_horizon(params(2, 3), 500)
        terms = p.term_list()
        for n in range(1, 501):
            assert engine.rep_count_exact(p, n) == naive_rep_count(terms, n)


class TestExtend:
    def test_matches_direct(self):
        pr = params(1, 2)
        small = engine.generate_to_horizon(pr, 10)
        big = engine.extend(small, 28)
        assert big.term_list() == U12_PREFIX
        assert big.horizon == 28

    def test_old_is_initial_segment(self):
        pr = params(2, 3)
        small = engine.generate_to_horizon(pr, 10)
        big = engine.extend(small, 30)
        assert big.term_list()[: len(small)] == small.term_list()
        assert big.term_list() == U23_TO_30

    def test_rejects_non_increase(self):
        p = engine.generate_to_horizon(params(1, 2), 10)
        with pytest.raises(InvalidParameters):
            engine.extend(p, 10)

    def test_chained_equals_direct(self):
        pr = params(2, 5)
        p = engine.generate_to_horizon(pr, 5)
        for h in (7, 19, 100, 321, 1000):
            p = engine.extend(p, h)
        direct = engine.generate_to_horizon(pr, 1000)
        assert p.term_list() == direct.term_list()


class TestRestrict:
    def test_restrict_equals_direct(self):
        pr = params(1, 4)
        p = engine.generate_to_horizon(pr, 300)
        for h in (4, 17, 120, 300):
            assert p.restrict(h).term_list() == engine.generate_to_horizon(pr, h).term_list()

    def test_restrict_bounds(self):
        p = engine.generate_to_horizon(params(2, 5), 30)
        with pytest.raises(InvalidParameters):
            p.restrict(4)
        with pytest.raises(InvalidParameters):
            p.restrict(31)


SMALL_PAIRS = st.tuples(st.integers(1, 8), st.integers(2, 12)).filter(lambda t: t[0] < t[1])


@settings(deadline=None, max_examples=60)
@given(SMALL_PAIRS, st.integers(12, 400))
def test_sieve_matches_oracle(pair, horizon):
    a, b = pair
    got = engine.generate_to_horizon(params(a, b), max(horizon, b)).term_list()
    assert got == naive_ulam(a, b, max(horizon, b))


@settings(deadline=None, max_examples=40)
@given(SMALL_PAIRS, st.integers(12, 150), st.integers(1, 200))
def test_extend_matches_direct(pair, h1, delta):
    a, b = pair
    h1 = max(h1, b)
    p = engine.generate_to_horizon(params(a, b), h1)
    got = engine.extend(p, h1 + delta).term_list()
    assert got == engine.generate_to_horizon(params(a, b), h1 + delta).term_list()


# Coprime and non-coprime pairs, with horizons large enough for pair counts
# past 255.
WIDE_PAIRS = st.tuples(st.integers(1, 12), st.integers(2, 40)).filter(lambda t: t[0] < t[1])


@settings(deadline=None, max_examples=40)
@example((1, 2), 20_000)
@example((2, 4), 20_000)
@given(WIDE_PAIRS, st.integers(2, 20_000))
def test_generation_matches_scatter_oracle(pair, horizon):
    a, b = pair
    horizon = max(horizon, b)
    got = engine.generate_to_horizon(params(a, b), horizon).term_list()
    assert got == scatter_generate(a, b, horizon)


@settings(deadline=None, max_examples=40)
@given(WIDE_PAIRS, st.integers(3, 20_000), st.data())
def test_extend_matches_scatter_oracle(pair, horizon, data):
    a, b = pair
    horizon = max(horizon, b + 1)
    h0 = data.draw(st.integers(b, horizon - 1), label="h0")
    got = engine.extend(engine.generate_to_horizon(params(a, b), h0), horizon)
    assert got.term_list() == scatter_extend(scatter_generate(a, b, h0), h0,
                                             horizon)


@pytest.mark.parametrize("a, b, horizon", [(1, 2, 200_000), (2, 5, 50_000)])
def test_long_prefix_matches_scatter_oracle(a, b, horizon):
    got = engine.generate_to_horizon(params(a, b), horizon).term_list()
    assert got == scatter_generate(a, b, horizon)


def test_counts_past_a_byte_match_naive():
    # Some pair count exceeds 255 here, so membership rests on the sieve
    # clamping its byte counts, in generation and in extension.
    expected = naive_ulam(2, 5, 5000)
    assert rep_table(expected, 5000).max() > 255
    assert engine.generate_to_horizon(params(2, 5), 5000).term_list() == expected
    start = engine.generate_to_horizon(params(2, 5), 2500)
    assert engine.extend(start, 5000).term_list() == expected


@settings(deadline=None, max_examples=40)
@given(SMALL_PAIRS, st.integers(2, 40))
def test_nth_term_consistent_with_horizon_generation(pair, k):
    a, b = pair
    t = engine.nth_term(params(a, b), k)
    p = engine.generate_to_horizon(params(a, b), t)
    assert len(p) == k
    assert int(p.terms[-1]) == t


def test_representation_bound_on_prefix():
    # every term beyond the seeds has exactly one representation; every
    # non-term above b has zero or at least two
    p = engine.generate_to_horizon(params(1, 2), 1000)
    terms = set(p.term_list())
    for m in range(3, 1001):
        c = engine.rep_count_exact(p, m)
        if m in terms:
            assert c == 1
        else:
            assert c == 0 or c >= 2
