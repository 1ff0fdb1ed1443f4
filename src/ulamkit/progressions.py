"""Arithmetic-progression form of a gap-regular tail, with formula export.

A validated periodicity candidate splits the sequence into the finite set
of terms below its threshold plus p progressions of common difference G
(one per gap in the period, anchored at consecutive tail terms). The
membership predicate of that shape is also printed as a first-order
formula over 0, 1, + and ordering, in a fixed grammar:

    formula = "⊥" | clause { " ∨ " clause }
    clause  = "x = " integer
            | "∃t (x = " integer " + " integer "·t)"

Singleton clauses come first in ascending order, then progression clauses
ascending by first term. Exported artifacts are marked candidate-grade:
they certify agreement with a computed prefix, nothing beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import UlamParams, UlamPrefix, require_analysis_grade
from .errors import StaleCandidate
from .patterns import PatternCode, PatternComponent
from .regularity import PeriodicityCandidate, _candidate_fault


@dataclass(frozen=True)
class APDecomposition:
    params: UlamParams
    candidate: PeriodicityCandidate
    initial_set: tuple
    progressions: tuple  # ((first, diff), ...) with one shared diff


def ap_decomposition(prefix: UlamPrefix, candidate: PeriodicityCandidate,
                     allow_non_coprime: bool = False) -> APDecomposition:
    """Split the prefix into initial terms plus p progressions of difference G.

    The candidate must pass candidate_matches_prefix, the check that
    hierarchy_report applies to R2: it reproduces the prefix tail exactly,
    and its next predicted term lands beyond the horizon. Otherwise the
    periodic model contradicts what the prefix decided, and StaleCandidate
    says how.
    """
    require_analysis_grade(prefix.params, allow_non_coprime)
    fault = _candidate_fault(prefix, candidate)
    if fault is not None:
        raise StaleCandidate(fault)
    terms, N = prefix.ints, candidate.N
    return APDecomposition(
        params=prefix.params,
        candidate=candidate,
        initial_set=tuple(terms[:N].tolist()),
        progressions=tuple((first, candidate.G)
                           for first in terms[N:N + candidate.p].tolist()),
    )


def ap_member(decomp: APDecomposition, m: int) -> bool:
    """Membership under the decomposition: initial set or some progression."""
    if m in decomp.initial_set:
        return True
    return any(m >= first and (m - first) % diff == 0
               for first, diff in decomp.progressions)


def to_presburger_text(decomp: APDecomposition) -> str:
    """Render the membership predicate in the module's fixed grammar."""
    clauses = [f"x = {v}" for v in sorted(decomp.initial_set)]
    clauses += [f"∃t (x = {first} + {diff}·t)"
                for first, diff in sorted(decomp.progressions)]
    if not clauses:
        return "⊥"
    return " ∨ ".join(clauses)


def ap_to_pattern_code(decomp: APDecomposition,
                       horizon: int | None = None) -> PatternCode:
    """Equivalent pattern code: singletons plus one masked component per
    progression (period G, single residue), bounded at horizon when given."""
    comps = [PatternComponent(p=v, q=v) for v in sorted(decomp.initial_set)]
    for first, diff in decomp.progressions:
        if horizon is None:
            comps.append(PatternComponent(
                p=first, L=diff, S=frozenset({0}), unbounded=True))
        else:
            comps.append(PatternComponent(
                p=first, q=horizon, L=diff, S=frozenset({0})))
    return PatternCode(tuple(comps))


def effective_density(decomp: APDecomposition) -> Fraction:
    """Exact density of the progression union: p/G in lowest terms."""
    if not decomp.progressions:
        return Fraction(0)
    return Fraction(len(decomp.progressions), decomp.progressions[0][1])


def decomposition_obj(decomp: APDecomposition) -> dict:
    return {
        "grade": "candidate",
        "a": decomp.params.a,
        "b": decomp.params.b,
        "initial_set": list(decomp.initial_set),
        "progressions": [{"first": first, "diff": diff}
                         for first, diff in decomp.progressions],
    }
