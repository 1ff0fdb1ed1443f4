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
from . import (__version__, cache, engine, mining, patterns, progressions,
               regularity, rigidity)
from .cache import PrefixStore, cache_path, cache_read
from .engine import MAX_HORIZON_DEFAULT, UlamParams, validate_params
from .errors import (AlignmentFailure, CorruptCache, FitFailure,
                     InvalidParameters, PatternParseError, StaleCandidate,
                     UlamkitError, VersionMismatch)
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


def _render(fmt: str, obj: dict, text: str, fields=None, rows=()) -> str:
    """obj as JSON, the text, or the CSV table of fields and rows (obj's
    keys and values by default)."""
    if fmt == "json":
        return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        import csv

        if fields is None:
            fields, rows = obj.keys(), [obj.values()]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(_cell(v) for v in row)
        return buf.getvalue()
    return text if text.endswith("\n") else text + "\n"


def _emit(args, obj: dict, text: str, fields=None, rows=()) -> None:
    """Write the chosen format of _render to --out or stdout."""
    rendered = _render(args.format, obj, text, fields, rows)
    if args.out:
        atomic_write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)


def _write_jsonl(path: str | None, objs) -> None:
    """Write one compact JSON object per line to path, when one is given."""
    if path:
        atomic_write_text(path, "".join(
            json.dumps(o, separators=(",", ":")) + "\n" for o in objs))


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
    """The pair of an analysis command, checked before any prefix is built."""
    params = _params(args)
    engine.require_analysis_grade(params, args.allow_non_coprime)
    return params


def _load_code(source: str):
    if source.startswith("@"):
        with open(source[1:], encoding="utf-8") as fh:
            try:
                source = fh.read()
            except UnicodeDecodeError as e:
                raise PatternParseError(f"pattern code is not UTF-8: byte "
                                        f"{e.start}", offset=e.start) from e
    return patterns.decode(source)


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated list, which must hold at least one."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise InvalidParameters(f"{flag} expects a comma-separated integer list")
    return values


def _fraction(text: str, flag: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters(f"{flag} expects a rational like 1/2 or 0.5")


def _candidate_obj(cand) -> dict:
    obj = cand._asdict()
    obj["period_gaps"] = list(cand.period_gaps)
    # coverage_fraction is the last slot, so "coverage" takes its place
    obj["coverage"] = str(obj.pop("coverage_fraction"))
    return obj


def _verdict(args, agrees: bool) -> int:
    """Exit 1 for a negative result under --expect-agree, else exit 0."""
    return EXIT_REFUTED if args.expect_agree and not agrees else EXIT_OK


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


def _query(name: str, arg: str, key: str):
    """The handler that reports cache.<name>(params, args.<arg>) as `key`.
    The function is looked up when the command runs, so one that replaces
    it in `cache`, such as a tracing wrapper, is the one called."""
    def handler(args) -> int:
        params = _params(args)
        value = getattr(cache, name)(params, getattr(args, arg),
                                     store=_store(args))
        obj = {"a": params.a, "b": params.b, arg: getattr(args, arg),
               key: value}
        _emit(args, obj, str(_cell(value)))
        return EXIT_OK
    return handler


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
    return _verdict(args, cand is not None)


def cmd_density(args) -> int:
    params = _params(args)
    est = regularity.empirical_density(
        params, args.n, store=_store(args),
        allow_non_coprime=args.allow_non_coprime)
    obj = {"a": params.a, "b": params.b, "n": est.n, "count": est.count,
           "ratio": float(est.ratio), "ratio_fraction": str(est.ratio)}
    _emit(args, obj, f"C({est.n}) = {est.count}; "
                     f"C/(n+1) = {est.ratio} = {float(est.ratio):.6f}")
    return EXIT_OK


def cmd_density_check(args) -> int:
    params = _analysis_params(args)
    q = _fraction(args.q, "--q")
    result = regularity.density_inequality_check(
        params, q.numerator, q.denominator, args.k, args.n_from, args.n_max,
        store=_store(args), allow_non_coprime=args.allow_non_coprime)
    obj = {"a": params.a, "b": params.b, "q": str(q), "k": args.k,
           "n_from": args.n_from, "n_max": args.n_max, **result._asdict()}
    text = (f"holds for all n in [{args.n_from}, {args.n_max}]" if result.holds
            else f"violated at n={result.first_violation}")
    _emit(args, obj, text)
    return _verdict(args, result.holds)


def cmd_census(args) -> int:
    params = _analysis_params(args)
    engine._check_residue_class(args.modulus,
                                  0 if args.residue is None else args.residue)
    prefix = _store(args).get(params, args.horizon)
    residues = ([args.residue] if args.residue is not None
                else list(range(args.modulus)))
    censuses = regularity.residue_censuses(
        prefix, args.modulus, residues, allow_non_coprime=args.allow_non_coprime)
    rows = [{"residue": r, **c._asdict()} for r, c in zip(residues, censuses)]
    obj = {"a": params.a, "b": params.b, "horizon": prefix.horizon,
           "modulus": args.modulus, "rows": rows}
    lines = []
    for row in rows:
        tail_from = row["tail_from"]
        tail = ("recurring" if tail_from is None
                else f"none beyond {tail_from - 1}" if tail_from else "none")
        lines.append(f"residue {row['residue']}: count={row['count']} "
                     f"largest={row['largest']} ({tail})")
    _emit(args, obj, "\n".join(lines), rows[0].keys(),
          [r.values() for r in rows])
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
    return _verdict(args, report.agrees)


def cmd_sweep(args) -> int:
    engine._check_residue_class(args.modulus, args.residue)
    code = _load_code(args.code)
    ns = [n for n in range(args.n_from, args.n_to + 1)
          if n % args.modulus == args.residue]
    entries = rigidity.family_sweep(
        code, args.modulus, args.residue, ns, (args.seg_c, args.seg_d),
        a=args.base_a, override_applicability=args.override_applicability,
        store=_store(args))
    obj = {"code": patterns.code_id(code), "modulus": args.modulus,
           "residue": args.residue,
           "entries": [rigidity.entry_obj(e) for e in entries]}
    lines, rows = [], []
    for e in entries:
        r = e.report
        if r is None:
            lines.append(f"n={e.n}: error: {e.error}")
            rows.append((e.n, None, None, None, None, e.error))
            continue
        m, direction = r.first_mismatch or (None, None)
        lines.append(f"n={e.n}: agrees on [{r.N}, {r.M}]" if r.agrees
                     else f"n={e.n}: mismatch at {m} ({direction})")
        rows.append((e.n, r.N, r.M, r.agrees, m, None))
    text = "\n".join(lines) if lines else "no qualifying n"
    fields = ("n", "range_lo", "range_hi", "agrees", "first_mismatch", "error")
    _write_jsonl(args.report_jsonl, obj["entries"])
    if args.report_csv:
        atomic_write_text(args.report_csv,
                          _render("csv", obj, text, fields, rows))
    _emit(args, obj, text, fields, rows)
    return _verdict(args, all(e.report and e.report.agrees for e in entries))


def cmd_mine(args) -> int:
    import random

    if args.samples:
        ns = _int_list(args.samples, "--samples")
    else:
        if args.n_from is None or args.n_to is None or args.sample_count is None:
            raise InvalidParameters(
                "mine needs --samples or all of --n-from/--n-to/--sample-count")
        engine._check_residue_class(args.modulus, args.residue)
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
        _write_jsonl(args.log, log)
        print(f"mining failed: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    _write_jsonl(args.log, log)
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
    return _verdict(args, all(r.agrees for r in reports))


def _decomposition_for(args):
    """The prefix's params, the candidate and its pattern code, or None once
    the refusal is printed."""
    prefix, cand = _detect_for(args)
    if cand is None:
        print("no periodic gap tail detected; nothing to export",
              file=sys.stderr)
        return None
    try:
        return prefix.params, cand, progressions.ap_decomposition(
            prefix, cand, allow_non_coprime=args.allow_non_coprime)
    except StaleCandidate as exc:
        print(f"candidate refuted by the prefix itself: {exc}",
              file=sys.stderr)
        return None


def cmd_export_ap(args) -> int:
    found = _decomposition_for(args)
    if found is None:
        return EXIT_REFUTED
    params, cand, code = found
    density = regularity.density_from_period(cand)
    obj = dict(progressions.decomposition_obj(code, params.a, params.b),
               density=str(density))
    progs = [(p["first"], p["diff"]) for p in obj["progressions"]]
    lines = [f"initial set: {obj['initial_set']}"]
    lines += [f"progression: {first} + {diff}·t" for first, diff in progs]
    lines.append(f"tail density: {density}")
    rows = [("singleton", v, None) for v in obj["initial_set"]]
    rows += [("progression", first, diff) for first, diff in progs]
    _emit(args, obj, "\n".join(lines), ("kind", "first", "diff"), rows)
    return EXIT_OK


def cmd_export_presburger(args) -> int:
    found = _decomposition_for(args)
    if found is None:
        return EXIT_REFUTED
    params, _, code = found
    formula = progressions.to_presburger_text(code, params.a, params.b)
    obj = {"a": params.a, "b": params.b,
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
            try:
                row["size_bytes"] = path.stat().st_size
                prefix = cache_read(path)
            except (CorruptCache, VersionMismatch, OSError) as exc:
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

# Arguments are (flag, add_argument keywords); a None flag marks a required
# choice of one of the arguments listed in place of the keywords. _INT is a
# required integer.
_INT = {"type": int, "required": True}
_PATH = {"metavar": "PATH"}
_PAIR = (("--a", {**_INT, "help": "smaller starting term"}),
         ("--b", {**_INT, "help": "larger starting term"}))
_COPRIME = (("--allow-non-coprime", {
    "action": "store_true",
    "help": "run analyses on degenerate non-coprime pairs"}),)
_EXPECT = (("--expect-agree", {
    "action": "store_true",
    "help": "exit 1 when the analysis result is negative"}),)
_OVERRIDE = (("--override-applicability", {
    "action": "store_true",
    "help": "evaluate a code outside its claimed residue class"}),)
_PERIOD = (
    ("--horizon", _INT),
    ("--min-periods", {"type": int, "default": 3,
                       "help": "full periods the tail must span (default 3)"}),
    ("--min-coverage", {"default": "1/2", "help":
                        "least fraction of gaps in the tail (default 1/2)"}),
    *_COPRIME)
# the flags every handler reads, through _store and _emit
_COMMON = (
    ("--cache-dir", {"help":
                     "prefix cache directory (default: $ULAM_CACHE_DIR)"}),
    ("--format", {"choices": ("text", "json", "csv"), "default": "text",
                  "help": "output format (default text)"}),
    ("--out", {**_PATH, "help":
               "write output atomically to PATH instead of stdout"}))

# name -> (help, arguments, handler); a table in place of the handler makes
# a group whose actions are named next ("cache info").
COMMANDS = {
    "generate": ("list terms up to a horizon or count", (*_PAIR, (None, (
        ("--horizon", {"type": int, "help": "largest value to decide"}),
        ("--count", {"type": int, "help": "number of terms to produce"})))),
        cmd_generate),
    "member": ("decide membership of one value", (*_PAIR, ("--m", _INT)),
               _query("is_member", "m", "member")),
    "nth": ("the k-th term (1-based)", (*_PAIR, ("--k", _INT)),
            _query("nth_term", "k", "term")),
    "count": ("counting function C(n) = |U ∩ [0, n]|",
              (*_PAIR, ("--n", _INT)), _query("count_upto", "n", "count")),
    "gaps": ("successive differences up to a horizon",
             (*_PAIR, ("--horizon", _INT)), cmd_gaps),
    "detect-period": ("search for an eventually periodic gap tail",
                      (*_PAIR, *_PERIOD, *_EXPECT), cmd_detect_period),
    "density": ("empirical density C(n)/(n+1)",
                (*_PAIR, ("--n", _INT), *_COPRIME), cmd_density),
    "density-check": ("scan the density inequality over a range of n", (
        *_PAIR,
        ("--q", {"required": True,
                 "help": "target ratio as a rational, e.g. 1/2"}),
        ("--k", _INT), ("--n-from", {"type": int, "default": 1}),
        ("--n-max", _INT), *_COPRIME, *_EXPECT), cmd_density_check),
    "census": ("terms per residue class, with tail evidence", (
        *_PAIR, ("--horizon", _INT), ("--modulus", _INT),
        ("--residue", {"type": int,
                       "help": "one class only (default: all classes)"}),
        *_COPRIME), cmd_census),
    "verify-pattern": ("compare membership with a pattern code on a range", (
        *_PAIR,
        ("--code", {"required": True,
                    "help": "pattern code JSON, or @FILE to read it"}),
        ("--lo", _INT), ("--hi", _INT), *_OVERRIDE, *_EXPECT),
        cmd_verify_pattern),
    "sweep": ("verify one code across a family U(a, n)", (
        ("--code", {"required": True}), ("--modulus", _INT),
        ("--residue", _INT), ("--n-from", _INT), ("--n-to", _INT),
        ("--seg-c", {**_INT,
                     "help": "verify on [1, c*n + d]: the c coefficient"}),
        ("--seg-d", {**_INT, "help": "verify on [1, c*n + d]: the d offset"}),
        ("--base-a", {"type": int, "default": 1,
                      "help": "first parameter of each pair (default 1)"}),
        ("--report-jsonl", {**_PATH, "help":
                            "also write one JSON object per n to PATH"}),
        ("--report-csv", {**_PATH,
                          "help": "also write a CSV summary to PATH"}),
        # command lines that predate the one-thread sweep, the family-sweep
        # benchmark's among them, still pass --threads
        ("--threads", {"type": int, "default": 1, "help":
                       "accepted and ignored; sweeps run in one thread"}),
        *_OVERRIDE, *_EXPECT), cmd_sweep),
    "mine": ("fit a linear interval pattern to U(1, n) samples", (
        ("--modulus", _INT), ("--residue", _INT),
        ("--samples", {"help": "explicit comma-separated n values"}),
        ("--n-from", {"type": int}), ("--n-to", {"type": int}),
        ("--sample-count", {"type": int, "help":
                            "sample this many n from [--n-from, --n-to] "
                            "(--seed)"}),
        ("--seg-c", _INT), ("--seg-d", _INT),
        ("--holdout", {"help":
                       "comma-separated verification n (default: next 2)"}),
        ("--log", {**_PATH,
                   "help": "write the mining session log as JSON lines"}),
        ("--seed", {"type": int, "default": 0,
                    "help": "RNG seed for sampled mining (default 0)"}),
        *_EXPECT), cmd_mine),
    "export-ap": ("initial set + arithmetic progressions of the tail",
                  (*_PAIR, *_PERIOD), cmd_export_ap),
    "export-presburger": ("membership formula of the decided set",
                          (*_PAIR, *_PERIOD), cmd_export_presburger),
    "cache": ("cache maintenance", (), {
        "info": ("describe cache files",
                 (("--a", {"type": int}), ("--b", {"type": int})),
                 cmd_cache_info)}),
}


def _add_arguments(parser, arguments) -> None:
    for flag, options in arguments:
        if flag is None:
            _add_arguments(parser.add_mutually_exclusive_group(required=True),
                           options)
        else:
            parser.add_argument(flag, **options)


def _add_commands(parser, table: dict, common, metavar: str) -> None:
    sub = parser.add_subparsers(dest=metavar, required=True, metavar=metavar)
    for name, (help_text, arguments, handler) in table.items():
        if isinstance(handler, dict):
            _add_commands(sub.add_parser(name, help=help_text), handler,
                          common, "action")
            continue
        p = sub.add_parser(name, parents=[common], help=help_text)
        _add_arguments(p, arguments)
        p.set_defaults(func=handler)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `ulam` parser: with every command, or with `command` alone."""
    common = argparse.ArgumentParser(add_help=False)
    _add_arguments(common.add_argument_group("common options"), _COMMON)
    parser = argparse.ArgumentParser(
        prog="ulam",
        description="Ulam sequence computation and pattern analysis.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    _add_commands(parser, COMMANDS if command is None
                  else {command: COMMANDS[command]}, common, "command")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command line that starts with a command parses the same with that
    # command's subparser alone. The rest (help, --version, no or an unknown
    # command) may print the list of commands, so it gets them all.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (UlamkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
