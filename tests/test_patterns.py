import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamkit import patterns
from ulamkit.errors import PatternParseError, PatternSemanticError, UnboundedPattern
from ulamkit.patterns import Applicability, PatternCode, PatternComponent

from oracles import random_code, random_component

BLOCK = PatternComponent(A1=0, A2=4, B1=0, B2=5, p=2, q=-1, L=1, S=frozenset({0}))
BLOCK_CODE = PatternCode((BLOCK,))


class TestEndpoints:
    def test_block_at_1_10(self):
        assert patterns.eval_endpoints(BLOCK, 1, 10) == (42, 49)

    def test_all_zero(self):
        comp = PatternComponent(S=frozenset({0}))
        assert patterns.eval_endpoints(comp, 7, 9) == (0, 0)

    def test_unbounded_upper_none(self):
        comp = PatternComponent(A2=1, p=3, unbounded=True)
        assert patterns.eval_endpoints(comp, 1, 5) == (8, None)


class TestInPattern:
    def test_block_membership(self):
        assert patterns.in_pattern(BLOCK_CODE, 1, 10, 45) is True
        assert patterns.in_pattern(BLOCK_CODE, 1, 10, 41) is False
        assert patterns.in_pattern(BLOCK_CODE, 1, 10, 50) is False

    def test_empty_code(self):
        assert patterns.in_pattern(PatternCode(), 1, 10, 5) is False

    def test_mask(self):
        comp = PatternComponent(p=42, q=60, L=3, S=frozenset({0, 2}))
        code = PatternCode((comp,))
        assert patterns.in_pattern(code, 1, 10, 45) is True   # (45-42) % 3 == 0
        assert patterns.in_pattern(code, 1, 10, 46) is False  # residue 1
        assert patterns.in_pattern(code, 1, 10, 44) is True   # residue 2

    def test_below_lower_endpoint_is_out(self):
        comp = PatternComponent(p=10, q=20, L=4, S=frozenset({0, 1, 2, 3}))
        assert patterns.in_pattern(PatternCode((comp,)), 0, 0, 9) is False

    def test_empty_interval_contributes_nothing(self):
        comp = PatternComponent(p=10, q=5)
        assert patterns.pattern_set(PatternCode((comp,)), 0, 0) == []


class TestPatternSet:
    def test_block_set(self):
        assert patterns.pattern_set(BLOCK_CODE, 1, 10) == list(range(42, 50))

    def test_empty(self):
        assert patterns.pattern_set(PatternCode(), 3, 5) == []

    def test_union_dedupes(self):
        c1 = PatternComponent(p=5, q=10)
        c2 = PatternComponent(p=8, q=12)
        got = patterns.pattern_set(PatternCode((c1, c2)), 0, 0)
        assert got == list(range(5, 13))

    def test_masked_set(self):
        comp = PatternComponent(p=0, q=10, L=3, S=frozenset({1}))
        assert patterns.pattern_set(PatternCode((comp,)), 0, 0) == [1, 4, 7, 10]

    def test_rejects_unbounded(self):
        comp = PatternComponent(unbounded=True)
        with pytest.raises(UnboundedPattern):
            patterns.pattern_set(PatternCode((comp,)), 1, 2)

    def test_everything_at_most_b_max(self):
        code = PatternCode((
            PatternComponent(p=5, q=49),
            PatternComponent(A2=1, p=0, B2=2, q=7, L=2, S=frozenset({0})),
        ))
        bm = patterns.b_max(code, 1, 50)
        assert bm == 107
        assert all(m <= bm for m in patterns.pattern_set(code, 1, 50))

    def test_agrees_with_in_pattern_pointwise(self):
        code = PatternCode((
            PatternComponent(p=3, q=20, L=3, S=frozenset({0, 2})),
            PatternComponent(p=10, q=30),
        ))
        pts = set(patterns.pattern_set(code, 2, 7))
        bm = patterns.b_max(code, 2, 7)
        for m in range(0, bm + 2):
            assert (m in pts) == patterns.in_pattern(code, 2, 7, m)


class TestBMax:
    def test_block(self):
        assert patterns.b_max(BLOCK_CODE, 1, 10) == 49

    def test_empty(self):
        assert patterns.b_max(PatternCode(), 1, 10) is None

    def test_max_of_two(self):
        code = PatternCode((PatternComponent(q=49), PatternComponent(q=107)))
        assert patterns.b_max(code, 1, 10) == 107

    def test_empty_components_ignored(self):
        empty = PatternComponent(p=100, q=50)
        assert patterns.b_max(PatternCode((empty,)), 1, 10) is None
        code = PatternCode((PatternComponent(q=49), empty))
        assert patterns.b_max(code, 1, 10) == 49

    def test_unbounded_flagged(self):
        code = PatternCode((BLOCK, PatternComponent(unbounded=True)))
        assert patterns.b_max(code, 1, 10) is None
        assert code.has_unbounded


class TestValidation:
    def test_mask_element_out_of_range(self):
        with pytest.raises(PatternSemanticError):
            PatternComponent(L=3, S=frozenset({3}))

    def test_bad_period(self):
        with pytest.raises(PatternSemanticError):
            PatternComponent(L=0, S=frozenset())

    def test_applicability_bounds(self):
        with pytest.raises(PatternSemanticError):
            Applicability(0, 0)
        with pytest.raises(PatternSemanticError):
            Applicability(4, 4)

    def test_unbounded_normalizes_upper_fields(self):
        comp = PatternComponent(B1=3, B2=4, q=5, unbounded=True)
        assert (comp.B1, comp.B2, comp.q) == (0, 0, 0)


class TestCodec:
    def test_block_roundtrip(self):
        text = patterns.encode(BLOCK_CODE)
        assert patterns.decode(text) == BLOCK_CODE
        # canonical form is stable
        assert patterns.encode(patterns.decode(text)) == text

    def test_encoding_shape(self):
        code = PatternCode((BLOCK,), Applicability(1, 0))
        obj = json.loads(patterns.encode(code))
        assert obj == {
            "components": [{"A1": 0, "A2": 4, "B1": 0, "B2": 5, "p": 2, "q": -1,
                            "L": 1, "S": [0], "unbounded": False}],
            "applicability": {"modulus": 1, "residue": 0},
        }
        assert " " not in patterns.encode(code)

    def test_semantic_error_on_bad_mask(self):
        text = ('{"components":[{"A1":0,"A2":0,"B1":0,"B2":0,"p":0,"q":0,'
                '"L":3,"S":[3],"unbounded":false}]}')
        with pytest.raises(PatternSemanticError):
            patterns.decode(text)

    def test_parse_error_carries_offset(self):
        with pytest.raises(PatternParseError) as ei:
            patterns.decode('{"components":[')
        assert ei.value.offset is not None

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(PatternParseError, match="nested too deeply"):
            patterns.decode("[" * 200_000)

    def test_rejects_unknown_keys(self):
        with pytest.raises(PatternSemanticError):
            patterns.decode('{"components":[],"extra":1}')

    def test_rejects_missing_keys(self):
        with pytest.raises(PatternSemanticError):
            patterns.decode('{"components":[{"A1":0}]}')

    def test_code_id_stable(self):
        assert patterns.code_id(BLOCK_CODE) == patterns.code_id(PatternCode((BLOCK,)))
        assert patterns.code_id(BLOCK_CODE) != patterns.code_id(PatternCode())


def test_roundtrip_random_codes():
    rng = random.Random(0xC0DE)
    for _ in range(300):
        code = random_code(rng)
        assert patterns.decode(patterns.encode(code)) == code


def test_roundtrip_hundred_component_code():
    rng = random.Random(7)
    code = PatternCode(tuple(random_component(rng) for _ in range(100)))
    assert patterns.decode(patterns.encode(code)) == code


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_roundtrip_hypothesis(data):
    L = data.draw(st.integers(1, 6))
    S = data.draw(st.frozensets(st.integers(0, L - 1)))
    comp = PatternComponent(
        A1=data.draw(st.integers(-9, 9)), A2=data.draw(st.integers(-9, 9)),
        B1=data.draw(st.integers(-9, 9)), B2=data.draw(st.integers(-9, 9)),
        p=data.draw(st.integers(-99, 99)), q=data.draw(st.integers(-99, 99)),
        L=L, S=S, unbounded=data.draw(st.booleans()),
    )
    code = PatternCode((comp,))
    assert patterns.decode(patterns.encode(code)) == code
