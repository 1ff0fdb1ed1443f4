
import importlib.util
import json
import pickle
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ulamkit import cache, engine
from ulamkit.errors import HorizonTooLarge, InsufficientHorizon, InvalidParameters

from oracles import (fixed_point_fault, grow_to_count, naive_rep_count,
                     naive_ulam, rep_table, scatter_extend, scatter_generate,
                     shifting_bit_sieve, trailing_bit_sieve)

ROOT = Path(__file__).resolve().parents[1]
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

    def test_params_are_an_immutable_value(self):
        # as the frozen dataclass it replaced: equality, hash and repr by
        # the three fields, no assignment, and a pickle round trip
        p = params(2, 4)
        assert p == engine.UlamParams(a=2, b=4, coprime=False)
        assert p != params(1, 2) and p != (2, 4, False)
        assert hash(p) == hash((2, 4, False))
        assert repr(p) == "UlamParams(a=2, b=4, coprime=False)"
        with pytest.raises(AttributeError):
            p.a = 3
        with pytest.raises(AttributeError):
            del p.b
        assert pickle.loads(pickle.dumps(p)) == p

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
        with pytest.raises(TypeError):
            p.ints[0] = 99

    def test_storage_and_terms_view(self):
        p = engine.generate_to_horizon(params(1, 2), 28)
        assert p.ints.readonly and p.ints.format == "q"
        assert p.ints.tolist() == p.term_list() == U12_PREFIX
        with pytest.raises(AttributeError):
            p.horizon = 30
        # an int64 ndarray, a non-int64 ndarray, bytes and a list all build
        # the same prefix
        for given in (np.array(U12_PREFIX, dtype=np.int64),
                      np.array(U12_PREFIX, dtype=np.int32),
                      p.ints.obj, U12_PREFIX):
            q = engine.UlamPrefix(p.params, given, 28)
            assert q.term_list() == U12_PREFIX and len(q) == 12


class TestGenerateCount:
    def test_first_two(self):
        p = cache.generate_count(params(1, 2), 2)
        assert p.term_list()[:2] == [1, 2]

    def test_twelfth_term(self):
        p = cache.generate_count(params(1, 2), 12)
        assert len(p) >= 12
        assert p.ints[11] == 28
        assert p.horizon >= 28

    def test_u23_tenth(self):
        # frozen from the brute-force oracle
        assert cache.nth_term(params(2, 3), 10) == 19

    def test_resource_limit_carries_partial(self):
        # as the doubling loop generate_count ran before PrefixStore did
        with pytest.raises(HorizonTooLarge) as want:
            grow_to_count(params(1, 2), 10_000, max_horizon=50)
        with pytest.raises(HorizonTooLarge) as ei:
            cache.generate_count(params(1, 2), 10_000, max_horizon=50)
        assert str(ei.value) == str(want.value)
        assert ei.value.partial is not None
        assert ei.value.partial.horizon == 50
        assert ei.value.partial.term_list() == want.value.partial.term_list()

    def test_k_zero(self):
        with pytest.raises(InvalidParameters):
            cache.generate_count(params(1, 2), 0)


class TestQueries:
    def test_membership(self):
        assert cache.is_member(params(1, 2), 11) is True
        assert cache.is_member(params(1, 2), 5) is False
        assert cache.is_member(params(3, 7), 3) is True

    def test_membership_below_b(self):
        assert cache.is_member(params(5, 9), 5) is True
        assert cache.is_member(params(5, 9), 4) is False

    def test_nth(self):
        assert cache.nth_term(params(1, 2), 5) == 6
        assert cache.nth_term(params(4, 11), 1) == 4
        # frozen from the brute-force oracle
        assert cache.nth_term(params(2, 3), 6) == 9

    def test_count_upto(self):
        assert cache.count_upto(params(1, 2), 10) == 6
        assert cache.count_upto(params(1, 2), 0) == 0
        assert cache.count_upto(params(1, 2), 28) == 12

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

# Thresholds that put every horizon on the byte kernel, then on the bit one.
KERNEL_THRESHOLDS = {"byte": 0, "bit": 1 << 62}

# For tests that patch the kernel threshold through a function-scoped
# fixture: each example sets it before it sieves, so the fixture may be
# shared across examples.
PATCHES_THRESHOLD = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def each_kernel(monkeypatch):
    """Call fn once with every horizon on each kernel: {kernel: result}."""
    def run(fn):
        results = {}
        for kernel, threshold in KERNEL_THRESHOLDS.items():
            monkeypatch.setattr(engine, "_BITS_MAX_HORIZON", threshold)
            results[kernel] = fn()
        return results
    return run


@settings(PATCHES_THRESHOLD, max_examples=60)
@given(SMALL_PAIRS, st.integers(12, 400))
def test_sieve_matches_oracle(each_kernel, pair, horizon):
    a, b = pair
    want = naive_ulam(a, b, max(horizon, b))
    got = each_kernel(lambda: engine.generate_to_horizon(
        params(a, b), max(horizon, b)).term_list())
    assert got == {"byte": want, "bit": want}


@settings(PATCHES_THRESHOLD, max_examples=40)
@given(SMALL_PAIRS, st.integers(12, 150), st.integers(1, 200))
def test_extend_matches_direct(each_kernel, pair, h1, delta):
    a, b = pair
    h1 = max(h1, b)

    def extended_and_direct():
        p = engine.generate_to_horizon(params(a, b), h1)
        return (engine.extend(p, h1 + delta).term_list(),
                engine.generate_to_horizon(params(a, b), h1 + delta).term_list())

    got = each_kernel(extended_and_direct)
    assert got["byte"] == got["bit"]
    assert got["bit"][0] == got["bit"][1]


# Coprime and non-coprime pairs, with horizons large enough for pair counts
# past 255.
WIDE_PAIRS = st.tuples(st.integers(1, 12), st.integers(2, 40)).filter(lambda t: t[0] < t[1])


@settings(PATCHES_THRESHOLD, max_examples=40)
@example(pair=(1, 2), horizon=20_000)
@example(pair=(2, 4), horizon=20_000)
@given(pair=WIDE_PAIRS, horizon=st.integers(2, 20_000))
def test_generation_matches_scatter_oracle(each_kernel, pair, horizon):
    a, b = pair
    horizon = max(horizon, b)
    want = scatter_generate(a, b, horizon)
    got = each_kernel(lambda: engine.generate_to_horizon(
        params(a, b), horizon).term_list())
    assert got == {"byte": want, "bit": want}


@settings(PATCHES_THRESHOLD, max_examples=40)
@given(WIDE_PAIRS, st.integers(3, 20_000), st.data())
def test_extend_matches_scatter_oracle(each_kernel, pair, horizon, data):
    a, b = pair
    horizon = max(horizon, b + 1)
    h0 = data.draw(st.integers(b, horizon - 1), label="h0")
    want = scatter_extend(scatter_generate(a, b, h0), h0, horizon)
    got = each_kernel(lambda: engine.extend(
        engine.generate_to_horizon(params(a, b), h0), horizon).term_list())
    assert got == {"byte": want, "bit": want}


# Rebase distances, which are also the buckets that late terms cut g to:
# 1 bit, so that every late term cuts g to exactly its sums up to the
# horizon; 2 bits, so that the planes hold sums one bit past it; 64 bits
# (the search window); and the engine's own.
REBASES = st.sampled_from([1, 2, 64, engine._REBASE_BITS])


def assert_bit_kernels_agree(a, b, h0, horizon):
    """The bit kernel completes the terms up to h0 (the seeds when h0 == b)
    to horizon exactly as the two bit-plane kernels it replaced and the
    scatter oracles do."""
    known = scatter_generate(a, b, h0)
    want = scatter_generate(a, b, horizon)
    if h0 > b:
        assert scatter_extend(known, h0, horizon) == want
    known = array("q", known).tobytes()
    got = engine._bit_sieve(known, h0, horizon)
    assert got == trailing_bit_sieve(known, h0, horizon)
    assert got == shifting_bit_sieve(known, h0, horizon)
    assert memoryview(got).cast("q").tolist() == want
    return want


def count_late_cuts(monkeypatch):
    """A list that gets one entry each time the bit kernel cuts g."""
    cuts, late_sums = [], engine._late_sums

    def counted(g, x, horizon):
        cuts.append(x)
        return late_sums(g, x, horizon)

    monkeypatch.setattr(engine, "_late_sums", counted)
    return cuts


def assert_late_cuts(cuts, terms, horizon, bucket):
    """The kernel cut g first at the first late term, the first whose sum
    with the one before it passes the horizon, and, with 1-bit buckets, at
    every late term."""
    late = next((terms[i:] for i in range(1, len(terms))
                 if terms[i] + terms[i - 1] > horizon), [])
    assert cuts[:1] == late[:1]
    assert set(cuts) <= set(late)
    if bucket == 1:
        assert cuts == late


@settings(PATCHES_THRESHOLD, max_examples=60)
@example(pair=(1, 2), extra=20_000, bucket=1)
@example(pair=(2, 5), extra=20_000, bucket=2)
@example(pair=(1, 3), extra=0, bucket=64)
@given(pair=WIDE_PAIRS,
       extra=st.one_of(st.sampled_from([0, 1]), st.integers(2, 20_000)),
       bucket=REBASES)
def test_bit_kernel_late_terms_from_the_seeds(monkeypatch, pair, extra,
                                              bucket):
    # generation to H = b + extra, H = b and b + 1 among them: the terms
    # past H / 2 sieve from g cut to buckets of `bucket` bits
    a, b = pair
    horizon = b + extra
    monkeypatch.setattr(engine, "_REBASE_BITS", bucket)
    cuts = count_late_cuts(monkeypatch)
    want = assert_bit_kernels_agree(a, b, b, horizon)
    assert_late_cuts(cuts, want, horizon, bucket)


@settings(PATCHES_THRESHOLD, max_examples=60)
@example(pair=(1, 2), horizon=20_000, fraction=0.5, bucket=1)
@example(pair=(2, 5), horizon=20_000, fraction=0.99, bucket=4096)
@given(pair=WIDE_PAIRS, horizon=st.integers(3, 20_000),
       fraction=st.floats(0.5, 1), bucket=REBASES)
def test_bit_kernel_extends_late(monkeypatch, pair, horizon, fraction,
                                 bucket):
    # the known horizon h0 is at least H / 2, so the known terms that pass
    # H / 2 are late in the known-term loop, and the found terms go on from
    # the cut g they leave
    a, b = pair
    horizon = max(horizon, b + 1)
    h0 = min(max(b, -(-horizon // 2), int(fraction * horizon)), horizon - 1)
    monkeypatch.setattr(engine, "_REBASE_BITS", bucket)
    cuts = count_late_cuts(monkeypatch)
    want = assert_bit_kernels_agree(a, b, h0, horizon)
    assert_late_cuts(cuts, want, horizon, bucket)


@settings(PATCHES_THRESHOLD, max_examples=40)
@example(pair=(1, 2), horizon=20_000, start=0, rebase=64)
@given(pair=WIDE_PAIRS, horizon=st.integers(3, 20_000),
       start=st.integers(0, 20_000), rebase=REBASES)
def test_bit_kernel_rebases(monkeypatch, pair, horizon, start, rebase):
    a, b = pair
    horizon = max(horizon, b + 1)
    monkeypatch.setattr(engine, "_REBASE_BITS", rebase)
    assert_bit_kernels_agree(a, b, b + start % (horizon - b), horizon)


@settings(PATCHES_THRESHOLD, max_examples=25)
@given(n=st.integers(66, 300), factor=st.integers(8, 40),
       start=st.integers(0, 600), rebase=REBASES)
def test_bit_kernel_gaps_wider_than_the_window(monkeypatch, n, factor, start,
                                               rebase):
    # U(1, n) has gaps near 2n between found terms, so the next term lies
    # past the 64-bit search window and is read from whole planes
    horizon, h0 = factor * n, n + start % (2 * n)
    terms = scatter_generate(1, n, horizon)
    assert any(y - max(x, h0) > 64 for x, y in zip(terms, terms[1:]) if y > h0)
    monkeypatch.setattr(engine, "_REBASE_BITS", rebase)
    assert_bit_kernels_agree(1, n, h0, horizon)


@settings(PATCHES_THRESHOLD, max_examples=30)
@example(pair=(1, 2), index=5, span=100, rebase=1)
@given(pair=WIDE_PAIRS, index=st.integers(1, 200), span=st.integers(1, 3000),
       rebase=REBASES)
def test_bit_kernel_extends_from_a_term(monkeypatch, pair, index, span,
                                        rebase):
    # The known horizon is a term t, so the seeded terms up to t, whose
    # sums reach past t, lie below the base t + 1; t itself shifts by 0.
    a, b = pair
    terms = scatter_generate(a, b, 4000)
    h0 = terms[min(index, len(terms) - 1)]
    monkeypatch.setattr(engine, "_REBASE_BITS", rebase)
    assert_bit_kernels_agree(a, b, h0, h0 + span)


@settings(PATCHES_THRESHOLD, max_examples=40)
@given(pair=WIDE_PAIRS, index=st.integers(1, 300),
       shift=st.sampled_from([-1, 0, 1]), start=st.integers(0, 6000),
       rebase=REBASES)
def test_bit_kernel_sums_at_the_horizon(monkeypatch, pair, index, shift,
                                        start, rebase):
    # x + prev for consecutive terms lands at horizon - 1, horizon or
    # horizon + 1, on either side of the horizon mask; x is found or, when
    # h0 >= x, seeded
    a, b = pair
    terms = scatter_generate(a, b, 3000)
    i = min(index, len(terms) - 1)
    horizon = max(terms[i] + terms[i - 1] + shift, b + 1)
    monkeypatch.setattr(engine, "_REBASE_BITS", rebase)
    assert_bit_kernels_agree(a, b, b + start % (horizon - b), horizon)


@pytest.mark.parametrize("a, b, horizon", [(1, 2, 200_000), (2, 5, 50_000)])
def test_long_prefix_matches_scatter_oracle(a, b, horizon):
    got = engine.generate_to_horizon(params(a, b), horizon).term_list()
    assert got == scatter_generate(a, b, horizon)


def test_counts_past_a_byte_match_naive(monkeypatch):
    # Some pair count exceeds 255 here, so membership rests on the byte
    # kernel clamping its counts, in generation and in extension.
    monkeypatch.setattr(engine, "_BITS_MAX_HORIZON", 0)
    expected = naive_ulam(2, 5, 5000)
    assert rep_table(expected, 5000).max() > 255
    assert engine.generate_to_horizon(params(2, 5), 5000).term_list() == expected
    start = engine.generate_to_horizon(params(2, 5), 2500)
    assert engine.extend(start, 5000).term_list() == expected


def trailing_oracle(a, b, horizon, known=None, known_horizon=None):
    """The terms up to horizon by the bit kernel the engine replaced, from
    the seeds or from the terms `known` up to known_horizon. On the denser
    pairs it takes a fraction of the scatter oracles' time."""
    if known is None:
        known, known_horizon = [a, b], b
    got = trailing_bit_sieve(array("q", known).tobytes(), known_horizon,
                             horizon)
    return memoryview(got).cast("q").tolist()


@pytest.mark.parametrize("a, b", [(1, 2), (2, 5), (3, 6)])
def test_extend_across_the_kernel_threshold(a, b):
    # the bit kernel builds the prefix, the byte kernel extends it; U(1,2)
    # is checked against the scatter oracles, the others against the bit
    # kernel the engine replaced
    h0 = engine._BITS_MAX_HORIZON - 37
    horizon = engine._BITS_MAX_HORIZON + 4000
    start = engine.generate_to_horizon(params(a, b), h0)
    got = engine.extend(start, horizon).term_list()
    if (a, b) == (1, 2):
        assert got == scatter_extend(scatter_generate(a, b, h0), h0, horizon)
        assert got == scatter_generate(a, b, horizon)
    else:
        known = trailing_oracle(a, b, h0)
        assert start.term_list() == known
        assert got == trailing_oracle(a, b, horizon, known, h0)


@settings(PATCHES_THRESHOLD, max_examples=25)
@given(WIDE_PAIRS, st.integers(2, 3000), st.data())
def test_extend_across_a_lowered_threshold(monkeypatch, pair, threshold, data):
    a, b = pair
    threshold = max(threshold, b)
    h0 = data.draw(st.integers(b, threshold), label="h0")
    horizon = data.draw(st.integers(threshold + 1, 4000), label="horizon")
    monkeypatch.setattr(engine, "_BITS_MAX_HORIZON", threshold)
    got = engine.extend(engine.generate_to_horizon(params(a, b), h0), horizon)
    assert got.term_list() == naive_ulam(a, b, horizon)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 5)])
def test_count_doubling_across_the_kernel_threshold(a, b):
    # generate_count grows from b, doubling until the density estimate
    # binds: bit kernel up to the threshold, then the byte kernel for the
    # first term above it; checked as across the threshold above
    threshold = engine._BITS_MAX_HORIZON
    k = len(engine.generate_to_horizon(params(a, b), threshold)) + 1
    p = cache.generate_count(params(a, b), k)
    assert p.horizon // 2 <= threshold < p.horizon
    want = (scatter_generate(a, b, p.horizon) if (a, b) == (1, 2)
            else trailing_oracle(a, b, p.horizon))
    assert p.term_list() == want
    assert p.term_list()[:500] == naive_ulam(a, b, want[499])


def timing_script():
    """scripts/timing.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(
        "timing", ROOT / "scripts" / "timing.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_threshold_is_the_recorded_crossover():
    # _BITS_MAX_HORIZON is what `scripts/timing.py kernels` derives from the
    # kernel timings it recorded in BENCH_kernels.json, by the stated rule
    script = timing_script()
    record = json.loads((ROOT / "BENCH_kernels.json").read_text())
    assert record["rule"] == script.RULE
    assert script.threshold(record["rows"]) == record["threshold"]
    assert record["threshold"] == engine._BITS_MAX_HORIZON


def threshold_rows(bit_wins):
    """Synthetic kernel rows: {horizon: [runs the bit planes win, per pair]},
    out of 4 interleaved pairs of runs each."""
    return [{"pair": [1, n], "horizon": horizon,
             "fresh_byte_ms": [10.0] * 4,
             "fresh_bit_ms": [5.0] * won + [20.0] * (4 - won)}
            for horizon, per_pair in bit_wins.items()
            for n, won in enumerate(per_pair, 2)]


@pytest.mark.parametrize("bit_wins, expected", [
    # a clear win everywhere: the largest horizon
    ({1 << 14: [4, 4], 1 << 15: [4, 4], 1 << 16: [4, 4]}, 1 << 16),
    # a tie, 2 of 4 pairs of runs, excludes its horizon; a narrow
    # majority for every pair keeps one
    ({1 << 14: [4, 4], 1 << 15: [3, 3], 1 << 16: [4, 2]}, 1 << 15),
    # a loss everywhere: none
    ({1 << 14: [0, 1], 1 << 15: [1, 0], 1 << 16: [0, 0]}, 0),
], ids=["clear-win", "tie", "loss"])
def test_threshold_counts_paired_wins(bit_wins, expected):
    assert timing_script().threshold(threshold_rows(bit_wins)) == expected


@settings(deadline=None, max_examples=25)
@given(WIDE_PAIRS, st.integers(40, 10_000))
@example(pair=(1, 2), horizon=10_000)
def test_fixed_point_oracle_agrees_with_naive(pair, horizon):
    a, b = pair
    horizon = max(horizon, b)
    assert fixed_point_fault(naive_ulam(a, b, horizon), a, b, horizon) is None


@settings(deadline=None, max_examples=60)
@given(WIDE_PAIRS, st.integers(100, 3000),
       st.sampled_from(["drop", "add", "up", "down"]), st.data())
def test_fixed_point_oracle_finds_the_first_fault(pair, horizon, change, data):
    # a dropped term, an added non-term or a term moved by 1 is the first
    # fault: below it the set is the sequence
    a, b = pair
    terms = engine.generate_to_horizon(params(a, b), horizon).term_list()
    members = set(terms)
    if change == "drop":
        fault = data.draw(st.sampled_from(terms), label="dropped")
        changed = members - {fault}
    elif change == "add":
        fault = data.draw(st.integers(1, horizon).filter(
            lambda m: m not in members), label="added")
        changed = members | {fault}
    else:
        step = 1 if change == "up" else -1
        t = data.draw(st.sampled_from([t for t in terms
                                       if 1 <= t + step <= horizon
                                       and t + step not in members]),
                      label="moved")
        fault = min(t, t + step)
        changed = members - {t} | {t + step}
    assert fixed_point_fault(sorted(changed), a, b, horizon) == fault


@pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 5), (1, 1000),
                                  (1, 5000)])
def test_bit_planes_at_the_threshold_pass_the_fixed_point_oracle(a, b):
    # the pairs `scripts/timing.py kernels` times, at the largest horizon
    # the bit planes sieve; above 2^18 only the byte tables sieved before
    horizon = engine._BITS_MAX_HORIZON
    terms = engine.generate_to_horizon(params(a, b), horizon).term_list()
    assert fixed_point_fault(terms, a, b, horizon) is None


@settings(deadline=None, max_examples=40)
@given(SMALL_PAIRS, st.integers(2, 40))
def test_nth_term_consistent_with_horizon_generation(pair, k):
    a, b = pair
    t = cache.nth_term(params(a, b), k)
    p = engine.generate_to_horizon(params(a, b), t)
    assert len(p) == k
    assert p.ints[-1] == t


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
