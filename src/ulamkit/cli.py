"""Command-line front end tying generation, analysis, and the cache together.

Exit codes separate outcomes: 0 for success, 1 when an analysis produced a
negative verdict the caller declared unacceptable (--expect-agree, or an
export with nothing to export), 2 for operational failures (bad arguments,
I/O, resource limits). All file output goes through atomic replacement so
an interrupted run never leaves a half-written report.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

# The analysis layers load on first use (see __init__.py), and csv,
# fractions and random are imported where used: a command loads only what
# it runs.
from . import (__version__, engine, mining, patterns, progressions,
               regularity, rigidity)
from .cache import PrefixStore, cache_path, cache_read
from .engine import MAX_HORIZON_DEFAULT, UlamParams, validate_params
from .errors import (AlignmentFailure, CorruptCache, FitFailure,
                     InvalidParameters, StaleCandidate, UlamkitError,
                     VersionMismatch)
from .fsutil import atomic_write_text

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2


# ---------------------------------------------------------------------------
# rendering

def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def _emit(args, obj: dict, text: str, fields=None, rows=()) -> None:
    """Write obj as JSON, the text, or the CSV table of fields and rows
    (obj's keys and values by default), rendering only the chosen format."""
    if args.format == "json":
        rendered = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    elif args.format == "csv":
        import csv

        if fields is None:
            fields, rows = obj.keys(), [obj.values()]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(_cell(v) for v in row)
        rendered = buf.getvalue()
    else:
        rendered = text if text.endswith("\n") else text + "\n"
    if args.out:
        atomic_write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)


# ---------------------------------------------------------------------------
# prefix source

def _store(args) -> PrefixStore:
    directory = args.cache_dir or os.environ.get("ULAM_CACHE_DIR") or None
    return PrefixStore(directory, MAX_HORIZON_DEFAULT)


# ---------------------------------------------------------------------------
# shared argument helpers

def _params(args) -> UlamParams:
    return validate_params(args.a, args.b)


def _analysis_params(args) -> UlamParams:
    """The pair of an analysis command; a non-coprime pair needs the flag."""
    params = _params(args)
    if not params.coprime and not args.allow_non_coprime:
        raise InvalidParameters(
            f"({params.a},{params.b}) is not coprime; "
            "pass --allow-non-coprime to analyse it anyway")
    return params


def _load_code(source: str):
    if source.startswith("@"):
        with open(source[1:], encoding="utf-8") as fh:
            source = fh.read()
    return patterns.decode(source)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidParameters(f"{flag} expects a comma-separated integer list")


def _fraction(text: str, flag: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters(f"{flag} expects a rational like 1/2 or 0.5")


def _candidate_obj(cand) -> dict:
    return {
        "N": cand.N,
        "p": cand.p,
        "period_gaps": list(cand.period_gaps),
        "G": cand.G,
        "periods_observed": cand.periods_observed,
        "coverage": str(cand.coverage_fraction),
    }


def _detect_for(args):
    """The prefix a period command analyses, and its period candidate."""
    params = _analysis_params(args)
    min_coverage = _fraction(args.min_coverage, "--min-coverage")
    regularity._check_period_options(args.min_periods, min_coverage)
    prefix = _store(args).get(params, args.horizon)
    return prefix, regularity.detect_period(
        regularity.gaps(prefix), min_periods=args.min_periods,
        min_coverage=min_coverage)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_generate(args) -> int:
    params = _params(args)
    if args.count is not None:
        prefix = _store(args).get_count(params, args.count)
        terms = prefix.term_list()[:args.count]
        horizon = int(terms[-1])
    else:
        prefix = _store(args).get(params, args.horizon)
        terms = prefix.term_list()
        horizon = prefix.horizon
    obj = {"a": params.a, "b": params.b, "horizon": horizon,
           "term_count": len(terms), "terms": terms}
    _emit(args, obj, "\n".join(str(t) for t in terms),
          ("index", "term"), enumerate(terms, start=1))
    return EXIT_OK


def cmd_member(args) -> int:
    params = _params(args)
    member = engine.is_member(params, args.m, store=_store(args))
    obj = {"a": params.a, "b": params.b, "m": args.m, "member": member}
    _emit(args, obj, "true" if member else "false")
    return EXIT_OK


def cmd_nth(args) -> int:
    params = _params(args)
    term = engine.nth_term(params, args.k, store=_store(args))
    obj = {"a": params.a, "b": params.b, "k": args.k, "term": term}
    _emit(args, obj, str(term))
    return EXIT_OK


def cmd_count(args) -> int:
    params = _params(args)
    count = engine.count_upto(params, args.n, store=_store(args))
    obj = {"a": params.a, "b": params.b, "n": args.n, "count": count}
    _emit(args, obj, str(count))
    return EXIT_OK


def cmd_gaps(args) -> int:
    params = _params(args)
    prefix = _store(args).get(params, args.horizon)
    gap_list = regularity.gaps(prefix)
    obj = {"a": params.a, "b": params.b, "horizon": prefix.horizon,
           "gap_count": len(gap_list), "gaps": gap_list}
    _emit(args, obj, "\n".join(str(g) for g in gap_list),
          ("k", "gap"), enumerate(gap_list))
    return EXIT_OK


def cmd_detect_period(args) -> int:
    prefix, cand = _detect_for(args)
    flat = {"a": args.a, "b": args.b, "horizon": prefix.horizon}
    obj = dict(flat, candidate=None if cand is None else _candidate_obj(cand))
    if cand is None:
        text = "no periodic gap tail detected"
    else:
        text = (f"N={cand.N} p={cand.p} G={cand.G} "
                f"periods={cand.periods_observed} "
                f"coverage={cand.coverage_fraction}\n"
                f"period gaps: {' '.join(str(g) for g in cand.period_gaps)}")
        flat.update(N=cand.N, p=cand.p, G=cand.G,
                    periods_observed=cand.periods_observed,
                    coverage=str(cand.coverage_fraction),
                    period_gaps=" ".join(str(g) for g in cand.period_gaps))
    _emit(args, obj, text, flat.keys(), [flat.values()])
    if cand is None and args.expect_agree:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_density(args) -> int:
    from fractions import Fraction

    params = _analysis_params(args)
    count = engine.count_upto(params, args.n, store=_store(args))
    ratio = Fraction(count, args.n + 1)
    obj = {"a": params.a, "b": params.b, "n": args.n, "count": count,
           "ratio": float(ratio), "ratio_fraction": str(ratio)}
    _emit(args, obj, f"C({args.n}) = {count}; "
                     f"C/(n+1) = {ratio} = {float(ratio):.6f}")
    return EXIT_OK


def cmd_density_check(args) -> int:
    params = _analysis_params(args)
    q = _fraction(args.q, "--q")
    result = regularity.density_inequality_check(
        params, q.numerator, q.denominator, args.k, args.n_from, args.n_max,
        store=_store(args), allow_non_coprime=args.allow_non_coprime)
    obj = {"a": params.a, "b": params.b, "q": str(q), "k": args.k,
           "n_from": args.n_from, "n_max": args.n_max,
           "holds": result.holds, "first_violation": result.first_violation}
    text = (f"holds for all n in [{args.n_from}, {args.n_max}]" if result.holds
            else f"violated at n={result.first_violation}")
    _emit(args, obj, text)
    if not result.holds and args.expect_agree:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_census(args) -> int:
    params = _analysis_params(args)
    patterns._check_residue_class(args.modulus,
                                  0 if args.residue is None else args.residue)
    prefix = _store(args).get(params, args.horizon)
    residues = ([args.residue] if args.residue is not None
                else list(range(args.modulus)))
    censuses = regularity.residue_censuses(
        prefix, args.modulus, residues, allow_non_coprime=args.allow_non_coprime)
    rows = [{"residue": r, "count": c.count, "largest": c.largest,
             "tail_from": c.tail_from} for r, c in zip(residues, censuses)]
    obj = {"a": params.a, "b": params.b, "horizon": prefix.horizon,
           "modulus": args.modulus, "rows": rows}
    lines = []
    for row in rows:
        tail = ("none beyond {}".format(row["tail_from"] - 1)
                if row["tail_from"] else "recurring")
        lines.append(f"residue {row['residue']}: count={row['count']} "
                     f"largest={row['largest']} ({tail})")
    _emit(args, obj, "\n".join(lines),
          ("residue", "count", "largest", "tail_from"),
          [tuple(r.values()) for r in rows])
    return EXIT_OK


def cmd_verify_pattern(args) -> int:
    params = _params(args)
    code = _load_code(args.code)
    report = rigidity.verify_segment(
        code, params, args.lo, args.hi,
        override_applicability=args.override_applicability,
        store=_store(args))
    obj = rigidity.report_obj(report)
    if report.agrees:
        text = (f"agrees on [{report.N}, {report.M}] "
                f"({report.matched_count} positions)")
    else:
        m, direction = report.first_mismatch
        text = (f"mismatch at {m} ({direction}); "
                f"{report.matched_count} positions agreed before it")
    flat = dict(obj)
    mismatch = flat.pop("first_mismatch") or {}
    flat["mismatch_m"] = mismatch.get("m")
    flat["mismatch_direction"] = mismatch.get("direction")
    _emit(args, obj, text, flat.keys(), [flat.values()])
    if not report.agrees and args.expect_agree:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_sweep(args) -> int:
    patterns._check_residue_class(args.modulus, args.residue)
    code = _load_code(args.code)
    ns = [n for n in range(args.n_from, args.n_to + 1)
          if n % args.modulus == args.residue]
    entries = rigidity.family_sweep(
        code, args.modulus, args.residue, ns, (args.seg_c, args.seg_d),
        a=args.base_a, override_applicability=args.override_applicability,
        store=_store(args))
    rigidity.write_sweep_reports(entries, jsonl_path=args.report_jsonl,
                                 csv_path=args.report_csv)
    obj = {"code": patterns.code_id(code), "modulus": args.modulus,
           "residue": args.residue,
           "entries": [rigidity.entry_obj(e) for e in entries]}
    lines = []
    bad = False
    for e in entries:
        if e.error is not None:
            bad = True
            lines.append(f"n={e.n}: error: {e.error}")
        elif e.report.agrees:
            lines.append(f"n={e.n}: agrees on [{e.report.N}, {e.report.M}]")
        else:
            bad = True
            m, direction = e.report.first_mismatch
            lines.append(f"n={e.n}: mismatch at {m} ({direction})")
    _emit(args, obj, "\n".join(lines) if lines else "no qualifying n",
          rigidity.SWEEP_FIELDS, rigidity.sweep_rows(entries))
    if bad and args.expect_agree:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_mine(args) -> int:
    import random

    if args.samples:
        ns = _int_list(args.samples, "--samples")
    else:
        if args.n_from is None or args.n_to is None or args.sample_count is None:
            raise InvalidParameters(
                "mine needs --samples or all of --n-from/--n-to/--sample-count")
        patterns._check_residue_class(args.modulus, args.residue)
        qualifying = [n for n in range(args.n_from, args.n_to + 1)
                      if n % args.modulus == args.residue and n >= 2]
        if args.sample_count > len(qualifying):
            raise InvalidParameters(
                f"--sample-count {args.sample_count} exceeds the "
                f"{len(qualifying)} qualifying n")
        rng = random.Random(args.seed)
        ns = sorted(rng.sample(qualifying, args.sample_count))
    holdout = _int_list(args.holdout, "--holdout") if args.holdout else None
    log: list = []
    try:
        code, reports = mining.mine(args.modulus, args.residue, ns,
                                    (args.seg_c, args.seg_d), holdout=holdout,
                                    store=_store(args), log=log)
    except (AlignmentFailure, FitFailure) as exc:
        _write_mine_log(args, log)
        print(f"mining failed: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    _write_mine_log(args, log)
    obj = {"code": json.loads(patterns.encode(code)),
           "code_id": patterns.code_id(code), "samples": ns,
           "holdout": [rigidity.report_obj(r) for r in reports]}
    lines = [patterns.encode(code)]
    for r in reports:
        verdict = "agrees" if r.agrees else f"MISMATCH at {r.first_mismatch[0]}"
        lines.append(f"holdout n={r.b}: {verdict} on [{r.N}, {r.M}]")
    comp_rows = [(i, c.A1, c.A2, c.p, c.B1, c.B2, c.q, c.L,
                  " ".join(str(s) for s in sorted(c.S)))
                 for i, c in enumerate(code.components)]
    _emit(args, obj, "\n".join(lines),
          ("component", "A1", "A2", "p", "B1", "B2", "q", "L", "S"), comp_rows)
    if args.expect_agree and any(not r.agrees for r in reports):
        return EXIT_REFUTED
    return EXIT_OK


def _write_mine_log(args, events) -> None:
    if args.log:
        atomic_write_text(args.log, "".join(
            json.dumps(e, separators=(",", ":")) + "\n" for e in events))


def _decomposition_for(args):
    """The AP decomposition to export, or None once the refusal is printed."""
    prefix, cand = _detect_for(args)
    if cand is None:
        print("no periodic gap tail detected; nothing to export",
              file=sys.stderr)
        return None
    try:
        return progressions.ap_decomposition(
            prefix, cand, allow_non_coprime=args.allow_non_coprime)
    except StaleCandidate as exc:
        print(f"candidate refuted by the prefix itself: {exc}",
              file=sys.stderr)
        return None


def cmd_export_ap(args) -> int:
    decomp = _decomposition_for(args)
    if decomp is None:
        return EXIT_REFUTED
    density = progressions.effective_density(decomp)
    obj = dict(progressions.decomposition_obj(decomp), density=str(density))
    lines = [f"initial set: {list(decomp.initial_set)}"]
    lines += [f"progression: {first} + {diff}·t"
              for first, diff in decomp.progressions]
    lines.append(f"tail density: {density}")
    rows = [("singleton", v, None) for v in decomp.initial_set]
    rows += [("progression", first, diff)
             for first, diff in decomp.progressions]
    _emit(args, obj, "\n".join(lines), ("kind", "first", "diff"), rows)
    return EXIT_OK


def cmd_export_presburger(args) -> int:
    decomp = _decomposition_for(args)
    if decomp is None:
        return EXIT_REFUTED
    formula = progressions.to_presburger_text(decomp)
    obj = {"a": decomp.params.a, "b": decomp.params.b,
           "horizon": args.horizon, "formula": formula}
    _emit(args, obj, formula)
    return EXIT_OK


def cmd_cache_info(args) -> int:
    directory = _store(args).directory
    if directory is None:
        raise InvalidParameters(
            "no cache directory (use --cache-dir or ULAM_CACHE_DIR)")
    if (args.a is None) != (args.b is None):
        raise InvalidParameters("cache info needs both --a and --b, or neither")
    if args.a is not None:
        paths = [cache_path(directory, validate_params(args.a, args.b))]
    else:
        paths = sorted(directory.glob("u*_*.ulam"))
    rows = []
    for path in paths:
        row = {"path": str(path)}
        if not path.exists():
            row["status"] = "absent"
        else:
            row["size_bytes"] = path.stat().st_size
            try:
                prefix = cache_read(path)
            except (CorruptCache, VersionMismatch) as exc:
                row["status"] = type(exc).__name__
                row["error"] = str(exc)
            else:
                row.update(status="ok", a=prefix.params.a, b=prefix.params.b,
                           term_count=len(prefix), horizon=prefix.horizon,
                           last_term=prefix.ints[-1])
        rows.append(row)
    obj = {"cache_dir": str(directory), "files": rows}
    lines = [f"cache dir: {directory}"]
    for row in rows:
        if row["status"] == "ok":
            lines.append(f"{row['path']}: U({row['a']},{row['b']}) "
                         f"{row['term_count']} terms, horizon {row['horizon']}, "
                         f"{row['size_bytes']} bytes")
        else:
            lines.append(f"{row['path']}: {row['status']}"
                         + (f" ({row['error']})" if "error" in row else ""))
    fields = ("path", "status", "a", "b", "term_count", "horizon",
              "size_bytes")
    _emit(args, obj, "\n".join(lines), fields,
          [tuple(r.get(f) for f in fields) for r in rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _pair_args(p):
    p.add_argument("--a", type=int, required=True,
                   help="smaller starting term")
    p.add_argument("--b", type=int, required=True,
                   help="larger starting term")


def _period_args(p):
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--min-periods", type=int, default=3,
                   help="full periods the tail must span (default 3)")
    p.add_argument("--min-coverage", default="1/2",
                   help="least fraction of gaps in the tail (default 1/2)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored; sweeps run in one thread")
    g.add_argument("--cache-dir", default=None,
                   help="prefix cache directory (default: $ULAM_CACHE_DIR)")
    g.add_argument("--format", choices=("text", "json", "csv"),
                   default="text", help="output format (default text)")
    g.add_argument("--seed", type=int, default=0,
                   help="RNG seed for sampled mining (default 0)")
    g.add_argument("--override-applicability", action="store_true",
                   help="evaluate a code outside its claimed residue class")
    g.add_argument("--expect-agree", action="store_true",
                   help="exit 1 when the analysis result is negative")
    g.add_argument("--allow-non-coprime", action="store_true",
                   help="run analyses on degenerate non-coprime pairs")
    g.add_argument("--out", default=None, metavar="PATH",
                   help="write output atomically to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ulam",
        description="Ulam sequence computation and pattern analysis.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("generate", parents=[common],
                       help="list terms up to a horizon or count")
    _pair_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--horizon", type=int, help="largest value to decide")
    group.add_argument("--count", type=int, help="number of terms to produce")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("member", parents=[common],
                       help="decide membership of one value")
    _pair_args(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("nth", parents=[common], help="the k-th term (1-based)")
    _pair_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_nth)

    p = sub.add_parser("count", parents=[common],
                       help="counting function C(n) = |U ∩ [0, n]|")
    _pair_args(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gaps", parents=[common],
                       help="successive differences up to a horizon")
    _pair_args(p)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("detect-period", parents=[common],
                       help="search for an eventually periodic gap tail")
    _pair_args(p)
    _period_args(p)
    p.set_defaults(func=cmd_detect_period)

    p = sub.add_parser("density", parents=[common],
                       help="empirical density C(n)/(n+1)")
    _pair_args(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("density-check", parents=[common],
                       help="scan the density inequality over a range of n")
    _pair_args(p)
    p.add_argument("--q", required=True,
                   help="target ratio as a rational, e.g. 1/2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-from", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_density_check)

    p = sub.add_parser("census", parents=[common],
                       help="terms per residue class, with tail evidence")
    _pair_args(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residue", type=int, default=None,
                   help="one class only (default: all classes)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify-pattern", parents=[common],
                       help="compare membership with a pattern code on a range")
    _pair_args(p)
    p.add_argument("--code", required=True,
                   help="pattern code JSON, or @FILE to read it")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(func=cmd_verify_pattern)

    p = sub.add_parser("sweep", parents=[common],
                       help="verify one code across a family U(a, n)")
    p.add_argument("--code", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--seg-c", type=int, required=True,
                   help="verify on [1, c*n + d]: the c coefficient")
    p.add_argument("--seg-d", type=int, required=True,
                   help="verify on [1, c*n + d]: the d offset")
    p.add_argument("--base-a", type=int, default=1,
                   help="first parameter of each pair (default 1)")
    p.add_argument("--report-jsonl", default=None, metavar="PATH",
                   help="also write one JSON object per n to PATH")
    p.add_argument("--report-csv", default=None, metavar="PATH",
                   help="also write a CSV summary to PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mine", parents=[common],
                       help="fit a linear interval pattern to U(1, n) samples")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--samples", default=None,
                   help="explicit comma-separated n values")
    p.add_argument("--n-from", type=int, default=None)
    p.add_argument("--n-to", type=int, default=None)
    p.add_argument("--sample-count", type=int, default=None,
                   help="sample this many n from [--n-from, --n-to] (--seed)")
    p.add_argument("--seg-c", type=int, required=True)
    p.add_argument("--seg-d", type=int, required=True)
    p.add_argument("--holdout", default=None,
                   help="comma-separated verification n (default: next 2)")
    p.add_argument("--log", default=None, metavar="PATH",
                   help="write the mining session log as JSON lines")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("export-ap", parents=[common],
                       help="initial set + arithmetic progressions of the tail")
    _pair_args(p)
    _period_args(p)
    p.set_defaults(func=cmd_export_ap)

    p = sub.add_parser("export-presburger", parents=[common],
                       help="membership formula of the decided set")
    _pair_args(p)
    _period_args(p)
    p.set_defaults(func=cmd_export_presburger)

    p = sub.add_parser("cache", help="cache maintenance")
    cache_sub = p.add_subparsers(dest="cache_command", required=True,
                                 metavar="action")
    ci = cache_sub.add_parser("info", parents=[common],
                              help="describe cache files")
    ci.add_argument("--a", type=int, default=None)
    ci.add_argument("--b", type=int, default=None)
    ci.set_defaults(func=cmd_cache_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UlamkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
