"""A gap-regular tail as a pattern code, with formula export.

A validated periodicity candidate splits the sequence into the finite set
of terms below its threshold plus p progressions of common difference G,
one per gap in the period, anchored at consecutive tail terms. As a
pattern code that is one singleton component per initial term and one
unbounded component A = t_N, L = G, S = {t_{N+i} - t_N : i < p}. The
membership predicate of a code of singletons and unbounded components is
also printed as a first-order formula over 0, 1, + and ordering, in a
fixed grammar:

    formula = "⊥" | clause { " ∨ " clause }
    clause  = "x = " integer
            | "∃t (x = " integer " + " integer "·t)"

Singleton clauses come first in ascending order, then progression clauses
ascending by first term. Exported artifacts are marked candidate-grade:
they certify agreement with a computed prefix, nothing beyond it.
"""

from __future__ import annotations

from .engine import UlamPrefix, require_analysis_grade
from .errors import PatternSemanticError, StaleCandidate
from .patterns import PatternCode, PatternComponent, _blocks, eval_endpoints
from .regularity import PeriodicityCandidate, _candidate_fault


def ap_decomposition(prefix: UlamPrefix, candidate: PeriodicityCandidate,
                     allow_non_coprime: bool = False) -> PatternCode:
    """The prefix's initial terms as singletons, then its p progressions of
    difference G as one unbounded component.

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
    N = candidate.N
    terms = prefix.ints[:N + candidate.p].tolist()
    first = terms[N]
    return PatternCode(
        tuple(PatternComponent(p=v, q=v) for v in terms[:N])
        + (PatternComponent(p=first, L=candidate.G, unbounded=True,
                            S=frozenset(t - first for t in terms[N:])),))


def _split(code: PatternCode, a: int, b: int):
    """The code's points in components of at most one point, ascending, and
    a (first, step) pair per (unbounded component, s), ascending."""
    singletons, progressions = [], []
    for comp in code.components:
        A, B = eval_endpoints(comp, a, b)
        if B is None:
            progressions += [(A + s, comp.L) for s in comp.S]
            continue
        blocks = list(_blocks((comp,), a, b, A, B))
        if len(blocks) > 1 or blocks and blocks[0][0] != blocks[0][1]:
            raise PatternSemanticError(
                f"no clause for a bounded component of more than one point: "
                f"{comp!r}")
        singletons += [first for first, _, _ in blocks]
    return sorted(singletons), sorted(progressions)


def to_presburger_text(code: PatternCode, a: int, b: int) -> str:
    """Render the code's membership predicate at (a, b) in the module's
    fixed grammar."""
    singletons, progressions = _split(code, a, b)
    clauses = [f"x = {v}" for v in singletons]
    clauses += [f"∃t (x = {first} + {diff}·t)" for first, diff in progressions]
    if not clauses:
        return "⊥"
    return " ∨ ".join(clauses)


def decomposition_obj(code: PatternCode, a: int, b: int) -> dict:
    singletons, progressions = _split(code, a, b)
    return {
        "grade": "candidate",
        "a": a,
        "b": b,
        "initial_set": singletons,
        "progressions": [{"first": first, "diff": diff}
                         for first, diff in progressions],
    }
