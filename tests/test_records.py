"""The record classes behave as the frozen dataclasses they replaced.

Each record is an immutable value: built from its fields by position or by
keyword, with defaults where it has them, compared, hashed and printed by
its fields, refusing assignment, surviving a pickle round trip and
unpacking in a `match` statement. The reprs below are the ones the
dataclasses printed.
"""

import pickle
from fractions import Fraction

import pytest

from ulamkit.engine import UlamParams
from ulamkit.errors import PatternSemanticError
from ulamkit.patterns import Applicability, PatternCode, PatternComponent
from ulamkit.regularity import (Census, DensityCheckResult, DensityEstimate,
                                HierarchyReport, PeriodicityCandidate)
from ulamkit.rigidity import SegmentReport, SweepEntry

COMPONENT = PatternComponent(0, 1, 0, 2, 3, -1, 2, frozenset({1}), False)
REPORT = SegmentReport(1, 5, "abc", 1, 9, False, (4, "in-ulam-not-pattern"), 3)

# class, field names, field values, one changed field, the dataclass repr
CASES = [
    (UlamParams, ("a", "b", "coprime"), (2, 5, True), {"b": 7},
     "UlamParams(a=2, b=5, coprime=True)"),
    (PatternComponent, ("A1", "A2", "B1", "B2", "p", "q", "L", "S",
                        "unbounded"),
     (0, 1, 0, 2, 3, -1, 2, frozenset({1}), False), {"q": 4},
     "PatternComponent(A1=0, A2=1, B1=0, B2=2, p=3, q=-1, L=2, "
     "S=frozenset({1}), unbounded=False)"),
    (Applicability, ("modulus", "residue"), (4, 1), {"residue": 3},
     "Applicability(modulus=4, residue=1)"),
    (PatternCode, ("components", "applicability"),
     ((COMPONENT,), Applicability(2, 0)), {"applicability": None},
     f"PatternCode(components=({COMPONENT!r},), "
     "applicability=Applicability(modulus=2, residue=0))"),
    (PeriodicityCandidate, ("N", "p", "period_gaps", "G", "periods_observed",
                            "coverage_fraction"),
     (3, 2, (1, 2), 3, 4, Fraction(1, 2)), {"N": 4},
     "PeriodicityCandidate(N=3, p=2, period_gaps=(1, 2), G=3, "
     "periods_observed=4, coverage_fraction=Fraction(1, 2))"),
    (DensityEstimate, ("n", "count", "ratio"), (10, 4, Fraction(4, 11)),
     {"count": 5}, "DensityEstimate(n=10, count=4, ratio=Fraction(4, 11))"),
    (DensityCheckResult, ("holds", "first_violation"), (False, 7),
     {"first_violation": 8},
     "DensityCheckResult(holds=False, first_violation=7)"),
    (Census, ("count", "largest", "tail_from"), (3, 9, None),
     {"tail_from": 10}, "Census(count=3, largest=9, tail_from=None)"),
    (HierarchyReport, ("statuses", "witnesses"),
     ({"R1": "unknown"}, {"r3_gap_bound": 2}), {"witnesses": {}},
     "HierarchyReport(statuses={'R1': 'unknown'}, "
     "witnesses={'r3_gap_bound': 2})"),
    (SegmentReport, ("a", "b", "code", "N", "M", "agrees", "first_mismatch",
                     "matched_count"),
     (1, 5, "abc", 1, 9, False, (4, "in-ulam-not-pattern"), 3),
     {"matched_count": 2},
     "SegmentReport(a=1, b=5, code='abc', N=1, M=9, agrees=False, "
     "first_mismatch=(4, 'in-ulam-not-pattern'), matched_count=3)"),
    (SweepEntry, ("n", "report", "error"), (7, REPORT, None), {"n": 8},
     f"SweepEntry(n=7, report={REPORT!r}, error=None)"),
]


@pytest.mark.parametrize("cls, names, values, changed, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_is_a_value(cls, names, values, changed, text):
    fields = dict(zip(names, values))
    record = cls(*values)
    # construction by position and by keyword, read back by name
    assert cls(**fields) == record
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == record
    assert {name: getattr(record, name) for name in names} == fields
    assert record._asdict() == fields
    assert tuple(record._asdict()) == cls.__match_args__
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[1:], **{names[0]: values[0], names[1]: values[1]})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=0)
    # equality and hash by the fields, and by nothing else
    assert cls(**{**fields, **changed}) != record
    assert record != values and record != object()
    if cls is HierarchyReport:  # its fields are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)
    assert repr(record) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    assert cls.__match_args__ == names
    match record:
        case cls(first, second):
            assert (first, second) == values[:2]
        case _:
            pytest.fail("no match by position")


def test_record_defaults():
    assert PatternComponent() == PatternComponent(0, 0, 0, 0, 0, 0, 1,
                                                  frozenset({0}), False)
    assert PatternComponent(L=3, p=1) == PatternComponent(
        0, 0, 0, 0, 1, 0, 3, frozenset({0}), False)
    assert PatternCode() == PatternCode((), None)
    with pytest.raises(TypeError):
        Applicability(4)
    with pytest.raises(TypeError):
        UlamParams(a=1, b=2)


def test_record_validations():
    # PatternComponent: a positive mask period holding every mask element;
    # S becomes a frozenset, and an unbounded component drops its upper end
    with pytest.raises(PatternSemanticError, match="mask period"):
        PatternComponent(L=0)
    with pytest.raises(PatternSemanticError, match="outside"):
        PatternComponent(L=2, S={0, 2})
    comp = PatternComponent(B1=1, B2=2, q=3, L=2, S=[1, 0], unbounded=True)
    assert (comp.B1, comp.B2, comp.q, comp.S) == (0, 0, 0, frozenset({0, 1}))
    assert pickle.loads(pickle.dumps(comp)) == comp
    # Applicability: a residue class
    with pytest.raises(PatternSemanticError, match="modulus"):
        Applicability(0, 0)
    with pytest.raises(PatternSemanticError, match="outside"):
        Applicability(3, 3)
    # PatternCode: a tuple of components
    with pytest.raises(PatternSemanticError, match="PatternComponent"):
        PatternCode((1,))
    assert PatternCode([COMPONENT]).components == (COMPONENT,)
