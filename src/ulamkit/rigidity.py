"""Finite-segment agreement between generated sequences and pattern codes.

Agreement is only ever certified on the checked range; reports say
"agrees" about [N, M], never anything about the infinite sequence. A
mismatch records the least offending integer and which side claimed it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .cache import PrefixStore, _source
from .engine import (UlamParams, UlamPrefix, _check_residue_class, _Record,
                     validate_params)
from .errors import ApplicabilityError, UlamkitError
from .patterns import PatternCode, _blocks, code_id, pattern_mask

IN_ULAM_NOT_PATTERN = "in-ulam-not-pattern"
IN_PATTERN_NOT_ULAM = "in-pattern-not-ulam"


class SegmentReport(_Record):
    """The pair, the code's id, the range [N, M], whether they agree on it,
    the first mismatch (m, direction) or None, and the positions matched."""

    __slots__ = ("a", "b", "code", "N", "M", "agrees", "first_mismatch",
                 "matched_count")


class SweepEntry(_Record):
    """n, and the SegmentReport of U(a, n) or the error that stopped it."""

    __slots__ = ("n", "report", "error")


def _check_applicability(code: PatternCode, params: UlamParams,
                         override: bool) -> None:
    app = code.applicability
    if app is not None and not override and not app.admits(params.b):
        raise ApplicabilityError(
            f"code claims b ≡ {app.residue} (mod {app.modulus}), got b={params.b}"
        )


def _mismatches(code: PatternCode, prefix: UlamPrefix, lo: int,
                hi: int) -> bytearray:
    """A byte per integer of [lo, hi]: byte m - lo is 1 when m is on exactly
    one side, a member or a point of the code. Empty when lo > hi."""
    mask = pattern_mask(code, prefix.params.a, prefix.params.b, lo, hi)
    terms = prefix.ints
    for m in terms[bisect_left(terms, lo):bisect_right(terms, hi)]:
        mask[m - lo] ^= 1
    return mask


def verify_segment(code: PatternCode, params: UlamParams, N: int, M: int,
                   override_applicability: bool = False,
                   store: PrefixStore | None = None) -> SegmentReport:
    """Compare membership against the pattern pointwise on [N, M].

    matched_count is the number of positions confirmed agreeing before the
    first mismatch (the whole range when there is none). An empty range
    agrees vacuously.
    """
    _check_applicability(code, params, override_applicability)
    ident = code_id(code)
    if N > M:
        return SegmentReport(params.a, params.b, ident, N, M, True, None, 0)
    a, b = params.a, params.b
    # No member lies below a, so the least point of the code in [N, a) is
    # the first mismatch, with no prefix read. Found per block by arithmetic,
    # a window far below 1 costs nothing per integer.
    first = min((m for m, _, _ in _blocks(code.components, a, b, N,
                                           min(M, a - 1))), default=None)
    if first is not None:
        return SegmentReport(a, b, ident, N, M, False,
                             (first, IN_PATTERN_NOT_ULAM), first - N)
    prefix = _source(store).get(params, max(M, b))
    base = max(N, a)
    low = _mismatches(code, prefix, base, M).find(1)
    if low < 0:
        return SegmentReport(a, b, ident, N, M, True, None, M - N + 1)
    first = base + low
    direction = (IN_ULAM_NOT_PATTERN if prefix.contains(first)
                 else IN_PATTERN_NOT_ULAM)
    return SegmentReport(a, b, ident, N, M, False, (first, direction),
                         first - N)


def search_threshold(code: PatternCode, params: UlamParams, M: int,
                     override_applicability: bool = False,
                     store: PrefixStore | None = None) -> int | None:
    """Least N <= M such that [N, M] agrees, or None when even [M, M] fails.

    Agreement is monotone in N (shrinking the range can only remove
    mismatches), so the answer is one past the last mismatch in [0, M].
    """
    _check_applicability(code, params, override_applicability)
    return _threshold(code, _source(store).get(params, max(M, params.b)), M)


def _threshold(code: PatternCode, prefix: UlamPrefix, M: int) -> int | None:
    """search_threshold over a prefix reaching M."""
    last = _mismatches(code, prefix, 0, M).rfind(1)
    if last < 0:
        return 0
    return last + 1 if last < M else None


def family_sweep(code: PatternCode, modulus: int, residue: int,
                 n_values, segment_rule: tuple[int, int], a: int = 1,
                 override_applicability: bool = False,
                 store: PrefixStore | None = None) -> list[SweepEntry]:
    """Verify the code against U(a, n) on [1, c*n + d] for each n.

    Entries keep the order of n_values. Per-n failures (wrong residue
    class, horizon limits, degenerate parameters) become error entries and
    the sweep continues.
    """
    _check_residue_class(modulus, residue)
    store = _source(store)
    c_seg, d_seg = segment_rule

    def one(n: int) -> SweepEntry:
        if n % modulus != residue:
            return SweepEntry(n, None, f"n={n} not ≡ {residue} (mod {modulus})")
        M = c_seg * n + d_seg
        try:
            params = validate_params(a, n)
            report = verify_segment(code, params, 1, M,
                                    override_applicability=override_applicability,
                                    store=store)
        except UlamkitError as e:
            return SweepEntry(n, None, str(e))
        return SweepEntry(n, report, None)

    return [one(n) for n in n_values]


def report_obj(report: SegmentReport) -> dict:
    obj = report._asdict()
    if report.first_mismatch is not None:
        m, direction = report.first_mismatch
        obj["first_mismatch"] = {"m": m, "direction": direction}
    return obj


def entry_obj(entry: SweepEntry) -> dict:
    report = entry.report
    return {**entry._asdict(),
            "report": None if report is None else report_obj(report)}
