import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamkit.engine import generate_to_horizon, validate_params
from ulamkit.errors import AlignmentFailure, FitFailure, InvalidParameters
from ulamkit.mining import fit_components, mine, runs
from ulamkit.patterns import PatternComponent, pattern_set

from oracles import flatten, naive_fit, naive_runs

# U(1, n) restricted to [1, 5n - 1], frozen from direct generation.
FAMILY_RUNS = {
    3: ((1, 1), (3, 6), (8, 8), (10, 10), (12, 12)),
    4: ((1, 1), (4, 8), (10, 10), (16, 16), (18, 19)),
    5: ((1, 1), (5, 10), (12, 12), (20, 20), (22, 24)),
    6: ((1, 1), (6, 12), (14, 14), (24, 24), (26, 29)),
    7: ((1, 1), (7, 14), (16, 16), (28, 28), (30, 34)),
}

BLOCK = PatternComponent(A1=0, A2=4, B1=0, B2=5, p=2, q=-1)


@st.composite
def fit_case(draw):
    """A residue class, and samples of integer lines at distinct n in it,
    with at most one run endpoint of one sample moved off its line."""
    modulus = draw(st.integers(1, 3))
    residue = draw(st.integers(0, modulus - 1))
    ns = [residue + modulus * k for k in draw(
        st.lists(st.integers(0, 12), min_size=3, max_size=6, unique=True))]
    lines = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * 4),
                          min_size=1, max_size=4))
    samples = [[[sl * n + il, sh * n + ih] for sl, il, sh, ih in lines]
               for n in ns]
    if draw(st.booleans()):
        run = draw(st.sampled_from(samples))[draw(st.integers(
            0, len(lines) - 1))]
        run[draw(st.integers(0, 1))] += draw(
            st.integers(-3, 3).filter(lambda d: d != 0))
    return modulus, residue, [(n, tuple(map(tuple, runs)))
                              for n, runs in zip(ns, samples)]


def family_sample(n):
    prefix = generate_to_horizon(validate_params(1, n), 5 * n - 1)
    return n, runs(prefix.term_list())


class TestRuns:
    def test_basic(self):
        assert runs([1, 2, 3, 5, 7, 8]) == ((1, 3), (5, 5), (7, 8))

    def test_empty_and_singleton(self):
        assert runs([]) == ()
        assert runs([9]) == ((9, 9),)

    def test_all_one_run(self):
        assert runs(range(4, 11)) == ((4, 10),)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidParameters):
            runs([3, 1, 2])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameters):
            runs([1, 2, 2, 3])

    def test_family_windows(self):
        for n, expected in FAMILY_RUNS.items():
            assert family_sample(n)[1] == expected

    @given(st.sets(st.integers(-200, 200), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_flatten_roundtrip(self, points):
        values = sorted(points)
        assert flatten(runs(values)) == values
        assert list(runs(values)) == naive_runs(values)


class TestFitComponents:
    def synthetic(self, ns, lines):
        # lines: per run, (slope_lo, int_lo, slope_hi, int_hi)
        return [(n, tuple((sl * n + il, sh * n + ih)
                          for sl, il, sh, ih in lines))
                for n in ns]

    def test_recovers_lines(self):
        samples = self.synthetic([4, 6, 8], [(1, 0, 2, 0), (4, 2, 5, -1)])
        assert fit_components(samples, 2, 0) == (
            PatternComponent(A2=1, p=0, B2=2, q=0),
            PatternComponent(A2=4, p=2, B2=5, q=-1),
        )

    def test_runs_as_lists_fit(self):
        # JSON-decoded samples, as in `mine --log` events, hold lists
        samples = self.synthetic([4, 6, 8], [(1, 0, 2, 0), (4, 2, 5, -1)])
        decoded = [(n, [list(run) for run in sample]) for n, sample in samples]
        assert fit_components(decoded, 2, 0) == fit_components(samples, 2, 0)

    def test_too_few_samples(self):
        samples = self.synthetic([4, 6], [(1, 0, 1, 0)])
        with pytest.raises(InvalidParameters):
            fit_components(samples, 2, 0)

    def test_duplicate_n(self):
        samples = self.synthetic([4, 4, 6], [(1, 0, 1, 0)])
        with pytest.raises(InvalidParameters):
            fit_components(samples, 2, 0)

    def test_off_class_sample(self):
        samples = self.synthetic([4, 5, 6], [(1, 0, 1, 0)])
        with pytest.raises(InvalidParameters, match="mod"):
            fit_components(samples, 2, 0)

    def test_run_count_mismatch(self):
        samples = self.synthetic([4, 6], [(1, 0, 1, 0), (3, 0, 3, 1)])
        samples.append((8, ((8, 8),)))
        with pytest.raises(AlignmentFailure) as exc:
            fit_components(samples, 2, 0)
        assert exc.value.counts == {4: 2, 6: 2, 8: 1}

    def test_non_integer_slope(self):
        samples = self.synthetic([3, 5, 6], [(2, 1, 2, 1)])
        broken = samples[-1][1][0]
        samples[-1] = (6, ((broken[0] + 1, broken[1]),))
        with pytest.raises(FitFailure) as exc:
            fit_components(samples, 1, 0)
        assert exc.value.run_index == 0

    def test_middle_sample_misaligned(self):
        samples = self.synthetic([1, 2, 3], [(2, -2, 2, -1)])
        samples[1] = (2, ((3, 3),))
        with pytest.raises(FitFailure) as exc:
            fit_components(samples, 1, 0)
        assert str(exc.value) == (
            "fitted lines miss some samples: run 0 at n=[2]")
        assert exc.value.run_index == 0

    def test_real_family_misalignment(self):
        # n=3 deviates from the n>=4 lines in its last two runs while
        # the extremes n=3, n=5 still admit integer fits there.
        samples = [family_sample(n) for n in (3, 4, 5)]
        with pytest.raises(FitFailure) as exc:
            fit_components(samples, 1, 0)
        assert str(exc.value) == ("fitted lines miss some samples: "
                                  "run 3 at n=[4]; run 4 at n=[4]")
        assert exc.value.run_index == 3

    def test_invalid_class(self):
        samples = self.synthetic([4, 6, 8], [(1, 0, 1, 0)])
        with pytest.raises(InvalidParameters):
            fit_components(samples, 0, 0)

    @given(fit_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle(self, case):
        modulus, residue, samples = case
        fits = naive_fit(samples)
        fractional = [i for i, (lines, _, _) in enumerate(fits)
                      if any(x.denominator != 1 for x in lines)]
        missed = [(i, miss) for i, (_, _, miss) in enumerate(fits) if miss]
        if not fractional and not missed:
            assert fit_components(samples, modulus, residue) == tuple(
                PatternComponent(A2=sl, p=il, B2=sh, q=ih)
                for (sl, il, sh, ih), _, _ in fits)
            return
        with pytest.raises(FitFailure) as exc:
            fit_components(samples, modulus, residue)
        if fractional:
            # a non-integer slope is reported before any missed sample
            assert exc.value.run_index == fractional[0]
            assert re.match(rf"run {fractional[0]}: .* non-integer slope",
                            str(exc.value))
        else:
            assert exc.value.run_index == missed[0][0]
            assert str(exc.value) == "fitted lines miss some samples: " + (
                "; ".join(f"run {i} at n={miss}" for i, miss in missed))


class TestMine:
    def test_family_recovery(self):
        code, reports = mine(1, 0, [4, 5, 6], (5, -1))
        assert len(code.components) == 5
        assert code.applicability.modulus == 1
        assert code.applicability.residue == 0
        assert all(c.L == 1 and c.S == frozenset({0})
                   for c in code.components)
        assert code.components[-1] == BLOCK
        assert [r.b for r in reports] == [7, 8]
        assert all(r.agrees for r in reports)

    def test_mined_code_reproduces_window(self):
        code, _ = mine(1, 0, [4, 5, 6], (5, -1))
        n = 12
        prefix = generate_to_horizon(validate_params(1, n), 5 * n - 1)
        assert pattern_set(code, 1, n) == prefix.term_list()

    def test_explicit_holdout(self):
        _, reports = mine(1, 0, [4, 5, 6], (5, -1), holdout=[10, 20, 30])
        assert [r.b for r in reports] == [10, 20, 30]
        assert all(r.agrees for r in reports)

    def test_holdout_default_respects_class(self):
        _, reports = mine(2, 0, [4, 6, 8], (5, -1))
        assert [r.b for r in reports] == [10, 12]

    def test_alignment_failure_propagates(self):
        # U(1, 2) has 3 runs in its window, the others 5.
        with pytest.raises(AlignmentFailure) as exc:
            mine(1, 0, [2, 4, 6], (5, -1))
        assert exc.value.counts[2] == 3

    def test_misaligned_sample_is_fatal(self):
        with pytest.raises(FitFailure):
            mine(1, 0, [3, 4, 5], (5, -1))

    def test_bad_segment_rule(self):
        with pytest.raises(InvalidParameters):
            mine(1, 0, [4, 5, 6], (0, 2))

    def test_session_log(self):
        log = []
        mine(1, 0, [4, 5, 6], (5, -1), log=log)
        assert [e["event"] for e in log] == [
            "sample", "sample", "sample", "fit", "verify", "verify"]
        assert log[0]["n"] == 4 and log[0]["runs"][0] == [1, 1]
        assert all(e["agrees"] for e in log if e["event"] == "verify")
