"""Recover interval patterns with endpoints linear in n for U(1, n).

A computed window of U(1, n) is decomposed into maximal runs; runs are
aligned across several n values by index, endpoint coefficients are fitted
exactly from the two extreme samples, and the remaining samples plus
held-out n values act as verification. Only trivial masks are produced;
anything that cannot be expressed as aligned integer-sloped runs is a hard
failure, never a silent drop.
"""

from __future__ import annotations

from .cache import PrefixStore, _source
from .engine import _check_residue_class, validate_params
from .errors import AlignmentFailure, FitFailure, InvalidParameters
from .patterns import Applicability, PatternCode, PatternComponent
from .rigidity import SegmentReport, verify_segment


def runs(values) -> tuple:
    """Maximal-run decomposition of a sorted duplicate-free integer list."""
    seq = [int(v) for v in values]
    if any(y <= x for x, y in zip(seq, seq[1:])):
        raise InvalidParameters("values must be strictly increasing")
    out: list[list[int]] = []
    for v in seq:
        if out and v == out[-1][1] + 1:
            out[-1][1] = v
        else:
            out.append([v, v])
    return tuple((lo, hi) for lo, hi in out)


def _fit_line(n1: int, v1: int, n2: int, v2: int, run_index: int,
              side: str) -> tuple[int, int]:
    num = v2 - v1
    den = n2 - n1
    if num % den:
        raise FitFailure(
            f"run {run_index}: {side} endpoints {v1}@n={n1}, {v2}@n={n2} "
            f"give non-integer slope {num}/{den}", run_index=run_index)
    slope = num // den
    return slope, v1 - slope * n1


def fit_components(samples, modulus: int,
                   residue: int) -> tuple[PatternComponent, ...]:
    """Fit endpoint lines per run index across aligned (n, runs) samples.

    Needs at least 3 samples with distinct n, all in the residue class and
    all with the same run count. The two extreme n fix each line as a
    trivially masked component, lower end A2*n + p and upper end B2*n + q;
    the rest verify it, and a sample that a fitted component misses is a
    FitFailure naming every such run and n.
    """
    _check_residue_class(modulus, residue)
    samples = sorted(samples, key=lambda s: s[0])
    if len(samples) < 3:
        raise InvalidParameters("need at least 3 samples to fit and verify")
    ns = [n for n, _ in samples]
    if len(set(ns)) != len(ns):
        raise InvalidParameters("sample n values must be distinct")
    off_class = [n for n in ns if n % modulus != residue]
    if off_class:
        raise InvalidParameters(
            f"samples {off_class} not ≡ {residue} (mod {modulus})")
    counts = {n: len(r) for n, r in samples}
    if len(set(counts.values())) != 1:
        raise AlignmentFailure(
            f"run counts differ across samples: {counts}", counts=counts)
    (n1, runs1), (n2, runs2) = samples[0], samples[-1]
    components = []
    for i in range(len(runs1)):
        A2, p = _fit_line(n1, runs1[i][0], n2, runs2[i][0], i, "lower")
        B2, q = _fit_line(n1, runs1[i][1], n2, runs2[i][1], i, "upper")
        components.append(PatternComponent(A2=A2, p=p, B2=B2, q=q))
    # every run is fitted before any miss is reported, so a non-integer
    # slope anywhere is the error raised
    missed = [(i, [n for n, sample_runs in samples
                   if tuple(sample_runs[i])
                   != (c.A2 * n + c.p, c.B2 * n + c.q)])
              for i, c in enumerate(components)]
    missed = [(i, miss) for i, miss in missed if miss]
    if missed:
        raise FitFailure(
            "fitted lines miss some samples: "
            + "; ".join(f"run {i} at n={miss}" for i, miss in missed),
            run_index=missed[0][0])
    return tuple(components)


def mine(modulus: int, residue: int, n_samples, segment_rule: tuple[int, int],
         holdout=None, store: PrefixStore | None = None,
         log: list | None = None) -> tuple[PatternCode, list[SegmentReport]]:
    """Mine a trivially masked code for U(1, n) over one residue class.

    Each sample n contributes the window [1, c*n + d] (c, d = segment_rule).
    The mined code carries applicability {modulus, residue} and is verified
    with full-segment reports on the holdout n values (default: the next
    two class members beyond the samples). Optional `log` collects session
    events as dicts.
    """
    _check_residue_class(modulus, residue)
    store = _source(store)
    c_seg, d_seg = segment_rule
    ns = sorted(set(int(n) for n in n_samples))
    samples = []
    for n in ns:
        params = validate_params(1, n)
        horizon = c_seg * n + d_seg
        if horizon < n:
            raise InvalidParameters(
                f"segment rule {segment_rule} gives horizon {horizon} < n={n}")
        prefix = store.get(params, horizon)
        sample_runs = runs(prefix.term_list())
        samples.append((n, sample_runs))
        if log is not None:
            log.append({"event": "sample", "n": n, "horizon": horizon,
                        "runs": [list(r) for r in sample_runs]})
    code = PatternCode(fit_components(samples, modulus, residue),
                       Applicability(modulus, residue))
    if log is not None:
        log.append({"event": "fit",
                    "components": [[c.A2, c.p, c.B2, c.q]
                                   for c in code.components]})
    if holdout is None:
        step = modulus
        holdout = [ns[-1] + step, ns[-1] + 2 * step]
    reports = []
    for n in holdout:
        report = verify_segment(code, validate_params(1, n), 1,
                                c_seg * n + d_seg, store=store)
        reports.append(report)
        if log is not None:
            log.append({"event": "verify", "n": n, "agrees": report.agrees})
    return code, reports
