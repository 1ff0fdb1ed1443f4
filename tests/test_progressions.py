import json
import re
from fractions import Fraction
from itertools import accumulate, compress

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ulamkit import engine, progressions, regularity
from ulamkit.errors import PatternSemanticError, StaleCandidate
from ulamkit.patterns import (PatternCode, PatternComponent, in_pattern,
                              pattern_mask)
from ulamkit.regularity import PeriodicityCandidate

from oracles import (ap_member, ap_points_upto, decomposition_json,
                     naive_ap_decomposition, parse_presburger)

# pairs whose gaps turn periodic within a few thousand
REGULAR_PAIRS = [(2, 5), (2, 7), (2, 15), (4, 5), (4, 9), (4, 13)]


def params(a, b):
    return engine.validate_params(a, b)


def regular_decomp(a, b, horizon):
    prefix = engine.generate_to_horizon(params(a, b), horizon)
    candidate = regularity.detect_period(regularity.gaps(prefix))
    assert candidate is not None
    return prefix, candidate, progressions.ap_decomposition(prefix, candidate)


def synthetic_code(initial=(), progs=()):
    """Singletons, then the progressions (first, diff), which share one diff,
    as one unbounded component anchored at the least first term."""
    comps = tuple(PatternComponent(p=v, q=v) for v in initial)
    if progs:
        A, L = min(first for first, _ in progs), progs[0][1]
        comps += (PatternComponent(p=A, L=L, unbounded=True,
                                   S=frozenset(f - A for f, _ in progs)),)
    return PatternCode(comps)


def code_points(code, a, b, horizon):
    return list(compress(range(horizon + 1),
                         pattern_mask(code, a, b, 0, horizon)))


def tail_density(code):
    """|S|/L summed over the unbounded components."""
    return sum((Fraction(len(c.S), c.L) for c in code.components
                if c.unbounded), Fraction(0))


@st.composite
def detected(draw):
    """A prefix of a regular pair and a detected candidate it does not
    refute."""
    a, b = draw(st.sampled_from(REGULAR_PAIRS))
    prefix = engine.generate_to_horizon(params(a, b),
                                        draw(st.integers(200, 4000)))
    candidate = regularity.detect_period(regularity.gaps(prefix))
    assume(candidate is not None
           and regularity.candidate_matches_prefix(prefix, candidate))
    return prefix, candidate


@st.composite
def synthetic_candidate(draw):
    """Initial terms, then whole and partial periods of random gaps, a
    horizon short of the next predicted term, and the candidate."""
    initial = draw(st.lists(st.integers(1, 9), max_size=6))
    period = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    reps = draw(st.integers(1, 4))
    extra = draw(st.integers(0, len(period) - 1))
    gap_list = initial + period * reps + period[:extra]
    terms = list(accumulate(gap_list, initial=draw(st.integers(1, 20))))
    horizon = terms[-1] + draw(st.integers(0, period[extra] - 1))
    prefix = engine.UlamPrefix(params(1, 2), terms, horizon)
    return prefix, PeriodicityCandidate(len(initial), len(period),
                                        tuple(period), sum(period), reps,
                                        Fraction(1))


class TestDecomposition:
    def test_u25_shape(self):
        prefix, candidate, code = regular_decomp(2, 5, 3000)
        terms = prefix.term_list()
        *singletons, tail = code.components
        assert candidate.N == 6 and candidate.p == 32
        assert singletons == [PatternComponent(p=v, q=v) for v in terms[:6]]
        assert tail.unbounded and (tail.p, tail.L) == (terms[6], 126)
        assert sorted(tail.S) == [t - terms[6] for t in terms[6:6 + 32]]

    def test_progressions_pairwise_disjoint(self):
        prefix, candidate, code = regular_decomp(2, 5, 3000)
        initial, progs = naive_ap_decomposition(prefix, candidate)
        residues = [first % candidate.G for first, _ in progs]
        assert len(set(residues)) == len(residues)
        *singletons, tail = code.components
        assert len(tail.S) == candidate.p
        assert {c.p for c in singletons} == set(initial)
        assert set(initial).isdisjoint(
            code_points(PatternCode((tail,)), 2, 5, 3000))

    def test_single_gap_progression(self):
        # constant-gap tail gives one progression
        cand = PeriodicityCandidate(2, 1, (3,), 3, 5, Fraction(1, 2))
        terms = [1, 2, 4, 7, 10, 13, 16]
        prefix = engine.UlamPrefix(params(1, 2), __import__("numpy").array(terms), 18)
        code = progressions.ap_decomposition(prefix, cand)
        assert code == PatternCode((
            PatternComponent(p=1, q=1), PatternComponent(p=2, q=2),
            PatternComponent(p=4, L=3, unbounded=True)))
        assert naive_ap_decomposition(prefix, cand) == ((1, 2), ((4, 3),))

    def test_two_gap_construction(self):
        cand = PeriodicityCandidate(0, 2, (2, 3), 5, 3, Fraction(1))
        terms = [7, 9, 12, 14, 17, 19]
        prefix = engine.UlamPrefix(params(7, 9), __import__("numpy").array(terms), 21)
        code = progressions.ap_decomposition(prefix, cand)
        assert code == PatternCode((PatternComponent(
            p=7, L=5, S=frozenset({0, 2}), unbounded=True),))
        assert naive_ap_decomposition(prefix, cand) == ((), ((7, 5), (9, 5)))

    def test_stale_when_tail_mismatches(self):
        prefix, candidate, _ = regular_decomp(2, 5, 3000)
        wrong = PeriodicityCandidate(candidate.N, candidate.p,
                                     tuple(reversed(candidate.period_gaps)),
                                     candidate.G, candidate.periods_observed,
                                     candidate.coverage_fraction)
        with pytest.raises(StaleCandidate, match=(
                rf"^candidate \(N={candidate.N}, p=32\) does not reproduce "
                r"the prefix tail$")):
            progressions.ap_decomposition(prefix, wrong)

    def test_stale_when_G_is_not_the_period_sum(self):
        # a G one above the period's sum once passed and gave a code with
        # 761 points in [1, 3000] for the prefix's 767 terms
        prefix, candidate, _ = regular_decomp(2, 5, 3000)
        assert (candidate.N, candidate.p, candidate.G) == (6, 32, 126)
        wrong = PeriodicityCandidate(candidate.N, candidate.p,
                                     candidate.period_gaps, 127,
                                     candidate.periods_observed,
                                     candidate.coverage_fraction)
        assert not regularity.candidate_matches_prefix(prefix, wrong)
        with pytest.raises(StaleCandidate, match=(
                r"^candidate G=127 differs from 126, the sum of its period "
                r"gaps$")):
            progressions.ap_decomposition(prefix, wrong)

    def test_stale_when_model_predicts_into_decided_region(self):
        # horizon sits far beyond the last term, so the periodic model's next
        # predicted member (last + gap) lands in decided-empty territory
        cand = PeriodicityCandidate(0, 1, (3,), 3, 4, Fraction(1))
        terms = [4, 7, 10, 13]
        prefix = engine.UlamPrefix(params(4, 7), __import__("numpy").array(terms), 100)
        with pytest.raises(StaleCandidate):
            progressions.ap_decomposition(prefix, cand)

    def test_prediction_at_the_horizon_is_stale(self):
        # the next predicted member, 16, is decided at horizon 16 and not
        # at 15; regularity.candidate_matches_prefix draws the same line
        cand = PeriodicityCandidate(0, 1, (3,), 3, 4, Fraction(1))
        terms = [4, 7, 10, 13]
        below = engine.UlamPrefix(params(4, 7), terms, 15)
        assert progressions.ap_decomposition(below, cand) == PatternCode(
            (PatternComponent(p=4, L=3, unbounded=True),))
        assert regularity.candidate_matches_prefix(below, cand)
        at = engine.UlamPrefix(params(4, 7), terms, 16)
        with pytest.raises(StaleCandidate, match=(
                r"^periodic model predicts a member at 16 inside the "
                r"decided-empty region up to horizon 16$")):
            progressions.ap_decomposition(at, cand)
        assert not regularity.candidate_matches_prefix(at, cand)

    @given(detected())
    @settings(max_examples=60, deadline=None)
    def test_points_match_the_oracle_on_detected_candidates(self, case):
        prefix, candidate = case
        code = progressions.ap_decomposition(prefix, candidate)
        a, b, H = prefix.params.a, prefix.params.b, prefix.horizon
        assert (code_points(code, a, b, H)
                == ap_points_upto(naive_ap_decomposition(prefix, candidate), H)
                == prefix.term_list())


class TestMembership:
    def test_initial_and_progression_points(self):
        code = synthetic_code(initial=(1, 2), progs=((5, 3),))
        decomp = ((1, 2), ((5, 3),))
        for m, member in [(1, True), (2, True), (5 + 7 * 3, True), (4, False),
                          (6, False)]:
            assert in_pattern(code, 1, 2, m) == ap_member(decomp, m) == member

    def test_agrees_with_engine_on_full_horizon(self):
        prefix, candidate, code = regular_decomp(2, 5, 3000)
        claimed = ap_points_upto(naive_ap_decomposition(prefix, candidate),
                                 prefix.horizon)
        assert code_points(code, 2, 5, prefix.horizon) == claimed
        assert claimed == prefix.term_list()

    def test_agrees_pointwise(self):
        prefix, candidate, code = regular_decomp(2, 7, 2000)
        decomp = naive_ap_decomposition(prefix, candidate)
        members = set(prefix.term_list())
        for m in range(0, prefix.horizon + 1, 7):
            assert in_pattern(code, 2, 7, m) == ap_member(decomp, m) == (
                m in members)


@st.composite
def formula_code(draw):
    """Singletons and unbounded components, endpoints linear in (a, b)."""
    coef, const = st.integers(-3, 3), st.integers(-60, 60)
    comps = []
    for _ in range(draw(st.integers(0, 6))):
        A1, A2, p = draw(coef), draw(coef), draw(const)
        if draw(st.booleans()):
            comps.append(PatternComponent(A1=A1, A2=A2, B1=A1, B2=A2,
                                          p=p, q=p))
        else:
            L = draw(st.integers(1, 8))
            S = draw(st.frozensets(st.integers(0, L - 1)))
            comps.append(PatternComponent(A1=A1, A2=A2, p=p, L=L, S=S,
                                          unbounded=True))
    return PatternCode(tuple(comps))


class TestPresburgerText:
    def test_single_progression(self):
        code = synthetic_code(progs=((5, 3),))
        assert progressions.to_presburger_text(code, 1, 2) == "∃t (x = 5 + 3·t)"

    def test_empty(self):
        assert progressions.to_presburger_text(PatternCode(), 1, 2) == "⊥"

    def test_clause_order(self):
        code = synthetic_code(initial=(9, 2), progs=((20, 6), (15, 6)))
        text = progressions.to_presburger_text(code, 1, 2)
        assert text == "x = 2 ∨ x = 9 ∨ ∃t (x = 15 + 6·t) ∨ ∃t (x = 20 + 6·t)"

    def test_reparsed_formula_evaluates_identically(self):
        prefix, candidate, code = regular_decomp(2, 5, 2500)
        decomp = naive_ap_decomposition(prefix, candidate)
        evaluate = parse_presburger(progressions.to_presburger_text(code, 2, 5))
        for m in range(0, 2501):
            assert evaluate(m) == in_pattern(code, 2, 5, m) == ap_member(
                decomp, m)

    @given(formula_code(), st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_reparsed_formula_on_random_codes(self, code, a, b):
        evaluate = parse_presburger(progressions.to_presburger_text(code, a, b))
        for m in range(-120, 240):
            assert evaluate(m) == in_pattern(code, a, b, m)

    def test_refuses_a_bounded_component_of_several_points(self):
        # a bounded component holding at most one point is a singleton
        # clause or none; two points have no clause in the grammar
        for comp, text in [(PatternComponent(p=3, q=9, L=7), "x = 3"),
                           (PatternComponent(p=3, q=9, L=7, S={6}), "x = 9"),
                           (PatternComponent(p=3, q=2), "⊥"),
                           (PatternComponent(p=3, q=9, S=()), "⊥")]:
            code = PatternCode((comp,))
            assert progressions.to_presburger_text(code, 1, 2) == text
        for comp in [PatternComponent(p=3, q=4),
                     PatternComponent(p=3, q=10, L=7),
                     PatternComponent(p=3, q=5, L=7, S={0, 2})]:
            code = synthetic_code(initial=(1,), progs=((20, 6),))
            code = PatternCode(code.components + (comp,))
            with pytest.raises(PatternSemanticError, match=re.escape(
                    "no clause for a bounded component of more than one "
                    f"point: {comp!r}")):
                progressions.to_presburger_text(code, 1, 2)
            with pytest.raises(PatternSemanticError):
                progressions.decomposition_obj(code, 1, 2)


class TestPatternBridge:
    # The code is the decomposition: its points, bounded in a window or
    # not, are the points of the replaced (initial set, progressions) pair.

    def test_bounded_translation(self):
        code = synthetic_code(progs=((5, 3),))
        assert code_points(code, 1, 2, 100) == list(range(5, 101, 3)) == (
            ap_points_upto(((), ((5, 3),)), 100))

    def test_empty_translation(self):
        assert code_points(PatternCode(), 1, 2, 10) == [] == (
            ap_points_upto(((), ()), 10))

    def test_unbounded_translation(self):
        code = synthetic_code(progs=((5, 3),))
        assert code.has_unbounded
        assert in_pattern(code, 1, 2, 5 + 300 * 3)
        assert ap_member(((), ((5, 3),)), 5 + 300 * 3)

    def test_roundtrip_membership(self):
        prefix, candidate, code = regular_decomp(2, 5, 2000)
        decomp = naive_ap_decomposition(prefix, candidate)
        for m in range(0, prefix.horizon + 1):
            assert in_pattern(code, 2, 5, m) == ap_member(decomp, m)


class TestDensity:
    def test_simple_values(self):
        for terms, horizon, cand, density in [
                ([7, 9, 12, 14, 17, 19], 21,
                 PeriodicityCandidate(0, 2, (2, 3), 5, 3, Fraction(1)),
                 Fraction(2, 5)),
                ([3, 4, 5, 6], 6,
                 PeriodicityCandidate(0, 1, (1,), 1, 3, Fraction(1)), 1)]:
            prefix = engine.UlamPrefix(params(1, 2), terms, horizon)
            code = progressions.ap_decomposition(prefix, cand)
            assert tail_density(code) == regularity.density_from_period(
                cand) == density
        assert tail_density(PatternCode()) == 0

    def test_matches_candidate_density(self):
        _, candidate, code = regular_decomp(2, 7, 2000)
        assert (tail_density(code) ==
                regularity.density_from_period(candidate) == Fraction(26, 126))

    @given(synthetic_candidate())
    @settings(max_examples=200, deadline=None)
    def test_density_on_random_candidates(self, case):
        prefix, candidate = case
        code = progressions.ap_decomposition(prefix, candidate)
        tail = code.components[-1]
        assert Fraction(len(tail.S), tail.L) == tail_density(code) == (
            regularity.density_from_period(candidate))
        assert code_points(code, 1, 2, prefix.horizon) == prefix.term_list()


class TestJson:
    def test_shape_and_grade(self):
        code = synthetic_code(initial=(1,), progs=((5, 3),))
        obj = json.loads(decomposition_json(code, 1, 2))
        assert obj == {
            "grade": "candidate", "a": 1, "b": 2,
            "initial_set": [1],
            "progressions": [{"first": 5, "diff": 3}],
        }
