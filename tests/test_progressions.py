import re
from fractions import Fraction

import pytest

from ulamkit import engine, patterns, progressions, regularity
from ulamkit.errors import StaleCandidate
from ulamkit.progressions import APDecomposition
from ulamkit.regularity import PeriodicityCandidate

from oracles import ap_points_upto, decomposition_json, parse_presburger


def params(a, b):
    return engine.validate_params(a, b)


def regular_decomp(a, b, horizon):
    prefix = engine.generate_to_horizon(params(a, b), horizon)
    candidate = regularity.detect_period(regularity.gaps(prefix))
    assert candidate is not None
    return prefix, candidate, progressions.ap_decomposition(prefix, candidate)


def synthetic_decomp(initial=(), progs=()):
    cand = PeriodicityCandidate(len(initial), max(len(progs), 1),
                                (1,) * max(len(progs), 1), 1, 3, Fraction(1))
    return APDecomposition(params(1, 2), cand, tuple(initial), tuple(progs))


class TestDecomposition:
    def test_u25_shape(self):
        prefix, candidate, decomp = regular_decomp(2, 5, 3000)
        assert len(decomp.initial_set) == candidate.N
        assert len(decomp.progressions) == candidate.p == 32
        diffs = {diff for _, diff in decomp.progressions}
        assert diffs == {126}
        firsts = [first for first, _ in decomp.progressions]
        assert firsts == [int(t) for t in prefix.terms[candidate.N:candidate.N + 32]]

    def test_progressions_pairwise_disjoint(self):
        _, _, decomp = regular_decomp(2, 5, 3000)
        G = decomp.progressions[0][1]
        residues = [first % G for first, _ in decomp.progressions]
        assert len(set(residues)) == len(residues)
        assert set(decomp.initial_set).isdisjoint(
            ap_points_upto(decomp, 3000)[len(decomp.initial_set):])

    def test_single_gap_progression(self):
        # constant-gap tail gives one progression
        cand = PeriodicityCandidate(2, 1, (3,), 3, 5, Fraction(1, 2))
        terms = [1, 2, 4, 7, 10, 13, 16]
        prefix = engine.UlamPrefix(params(1, 2), __import__("numpy").array(terms), 18)
        decomp = progressions.ap_decomposition(prefix, cand)
        assert decomp.initial_set == (1, 2)
        assert decomp.progressions == ((4, 3),)

    def test_two_gap_construction(self):
        cand = PeriodicityCandidate(0, 2, (2, 3), 5, 3, Fraction(1))
        terms = [7, 9, 12, 14, 17, 19]
        prefix = engine.UlamPrefix(params(7, 9), __import__("numpy").array(terms), 21)
        decomp = progressions.ap_decomposition(prefix, cand)
        assert decomp.progressions == ((7, 5), (9, 5))

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
        assert progressions.ap_decomposition(below, cand).progressions == (
            (4, 3),)
        assert regularity.candidate_matches_prefix(below, cand)
        at = engine.UlamPrefix(params(4, 7), terms, 16)
        with pytest.raises(StaleCandidate, match=(
                r"^periodic model predicts a member at 16 inside the "
                r"decided-empty region up to horizon 16$")):
            progressions.ap_decomposition(at, cand)
        assert not regularity.candidate_matches_prefix(at, cand)


class TestMembership:
    def test_initial_and_progression_points(self):
        decomp = synthetic_decomp(initial=(1, 2), progs=((5, 3),))
        assert progressions.ap_member(decomp, 1)
        assert progressions.ap_member(decomp, 2)
        assert progressions.ap_member(decomp, 5 + 7 * 3)
        assert not progressions.ap_member(decomp, 4)
        assert not progressions.ap_member(decomp, 6)

    def test_agrees_with_engine_on_full_horizon(self):
        prefix, _, decomp = regular_decomp(2, 5, 3000)
        claimed = ap_points_upto(decomp, prefix.horizon)
        assert claimed == prefix.term_list()

    def test_agrees_pointwise(self):
        prefix, _, decomp = regular_decomp(2, 7, 2000)
        members = set(prefix.term_list())
        for m in range(0, prefix.horizon + 1, 7):
            assert progressions.ap_member(decomp, m) == (m in members)


class TestPresburgerText:
    def test_single_progression(self):
        decomp = synthetic_decomp(progs=((5, 3),))
        assert progressions.to_presburger_text(decomp) == "∃t (x = 5 + 3·t)"

    def test_empty(self):
        assert progressions.to_presburger_text(synthetic_decomp()) == "⊥"

    def test_clause_order(self):
        decomp = synthetic_decomp(initial=(9, 2), progs=((20, 6), (15, 6)))
        text = progressions.to_presburger_text(decomp)
        assert text == "x = 2 ∨ x = 9 ∨ ∃t (x = 15 + 6·t) ∨ ∃t (x = 20 + 6·t)"

    def test_reparsed_formula_evaluates_identically(self):
        _, _, decomp = regular_decomp(2, 5, 2500)
        evaluate = parse_presburger(progressions.to_presburger_text(decomp))
        for m in range(0, 2501):
            assert evaluate(m) == progressions.ap_member(decomp, m)


class TestPatternBridge:
    def test_bounded_translation(self):
        decomp = synthetic_decomp(progs=((5, 3),))
        code = progressions.ap_to_pattern_code(decomp, horizon=100)
        comps = code.components
        assert len(comps) == 1
        assert (comps[0].p, comps[0].q, comps[0].L, set(comps[0].S)) == (5, 100, 3, {0})
        assert patterns.pattern_set(code, 1, 2) == list(range(5, 101, 3))

    def test_empty_translation(self):
        assert progressions.ap_to_pattern_code(synthetic_decomp(), 10).components == ()

    def test_unbounded_translation(self):
        decomp = synthetic_decomp(progs=((5, 3),))
        code = progressions.ap_to_pattern_code(decomp)
        assert code.has_unbounded
        assert patterns.in_pattern(code, 1, 2, 5 + 300 * 3)

    def test_roundtrip_membership(self):
        prefix, _, decomp = regular_decomp(2, 5, 2000)
        code = progressions.ap_to_pattern_code(decomp, horizon=prefix.horizon)
        a, b = decomp.params.a, decomp.params.b
        for m in range(0, prefix.horizon + 1):
            assert patterns.in_pattern(code, a, b, m) == progressions.ap_member(decomp, m)


class TestDensity:
    def test_simple_values(self):
        assert progressions.effective_density(
            synthetic_decomp(progs=((7, 5), (9, 5)))) == Fraction(2, 5)
        assert progressions.effective_density(
            synthetic_decomp(progs=((3, 1),))) == 1
        assert progressions.effective_density(synthetic_decomp()) == 0

    def test_matches_candidate_density(self):
        _, candidate, decomp = regular_decomp(2, 7, 2000)
        assert (progressions.effective_density(decomp) ==
                regularity.density_from_period(candidate) == Fraction(26, 126))


class TestJson:
    def test_shape_and_grade(self):
        import json
        decomp = synthetic_decomp(initial=(1,), progs=((5, 3),))
        obj = json.loads(decomposition_json(decomp))
        assert obj == {
            "grade": "candidate", "a": 1, "b": 2,
            "initial_set": [1],
            "progressions": [{"first": 5, "diff": 3}],
        }
