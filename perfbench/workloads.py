"""Seeded `ulam` command sequences and the output each command must give.

A workload is a list of setup steps and a list of timed steps. Each step
is one `ulam` invocation (its argv only: the program sees nothing else)
plus a check built from the reference data, never from the program's own
output. A seed moves every queried value within 1/JITTER of its base
value, so answers change from seed to seed while the work per seed, and
with it every timing, stays nearly the same.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from reference import Reference

WORK_DIR = ".perfbench-work"
CACHE_DIR = f"{WORK_DIR}/cache"
CACHE = ["--cache-dir", CACHE_DIR]
SWEEP_REPORT = f"{WORK_DIR}/sweep.jsonl"
JITTER = 200

MINE_SAMPLES = (6, 7, 8)
SEG_RULE = (30, -1)
SWEEP_FIRST = (9, 12)
SWEEP_COUNT = 150
SWEEP_RANGE = (SWEEP_FIRST[0], SWEEP_FIRST[1] + SWEEP_COUNT - 1)
VERIFY_N = 1_000  # larger members of the family, each verified on its own
VERIFY_COUNT = 4

WARM_U12 = 700_000
WARM_U25 = 100_000

# Largest horizon any seed can ask of each pair, rounded up.
REFERENCE_HORIZONS = {(1, 2): 700_000, (1, 3): 160_000, (2, 5): 110_000}

Check = Callable[[str], "str | None"]


@dataclass
class Step:
    """One `ulam` command line and what must hold after it ran."""

    argv: list[str]
    check: Check
    pair: tuple[int, int] | None = None
    horizon: int | None = None      # horizon the command needs; None: a term count
    cached: bool = False            # reads or writes the cache file of `pair`
    corrupt_first: bool = False     # flip a byte of that file before running
    warns: bool = False             # stderr must carry a warning
    side_file: tuple[str, Check] | None = None  # (path, check) of a file it writes


@dataclass
class Workload:
    name: str
    setup: list[Step]
    steps: list[Step]
    fresh_cache: bool = False       # empty the cache before every pass
    outcomes: set[str] = field(default_factory=set)  # cache outcomes every pass must show
    only_outcomes: set[str] = field(default_factory=set)  # outcomes allowed, when limited
    sizes: dict = field(default_factory=dict)

    def cache_file(self, step: Step) -> str | None:
        return f"{CACHE_DIR}/u{step.pair[0]}_{step.pair[1]}.ulam" if step.cached else None

    def argv_digest(self) -> str:
        lists = [s.argv for s in self.setup + self.steps]
        return hashlib.sha256(json.dumps(lists).encode()).hexdigest()


def _pair(a: int, b: int) -> list[str]:
    return ["--a", str(a), "--b", str(b)]


def _text(expected) -> Check:
    want = str(expected).lower() if isinstance(expected, bool) else str(expected)

    def check(out: str):
        got = out.strip()
        return None if got == want else f"want {want!r}, got {got[:80]!r}"
    return check


def _json(expected: dict, ignore=()) -> Check:
    """The JSON output equals `expected` on every key but those ignored."""
    def check(out: str):
        try:
            obj = json.loads(out)
        except ValueError as exc:
            return f"not JSON: {exc}"
        if not isinstance(obj, dict):
            return "JSON output is not an object"
        got = {k: v for k, v in obj.items() if k not in ignore}
        if got == expected:
            return None
        bad = sorted(k for k in set(got) | set(expected)
                     if got.get(k) != expected.get(k))
        return f"JSON keys differ from the reference: {bad}"
    return check


def _lines(expected: list[int]) -> Check:
    want = [str(t) for t in expected]

    def check(out: str):
        return None if out.split() == want else "term list differs"
    return check


def _version(out: str):
    return None if out.startswith("ulam ") else f"bad version line {out[:40]!r}"


class _Seeded:
    def __init__(self, seed: int):
        self.rng = random.Random(f"perfbench:{seed}")

    def near(self, base: int) -> int:
        return base + self.rng.randint(-(base // JITTER), base // JITTER)


# ---------------------------------------------------------------------------
# expected outputs, derived from the reference term lists

def _gaps(terms: list[int]) -> list[int]:
    return [y - x for x, y in zip(terms, terms[1:])]


def _u25_decomposition(ref: Reference, horizon: int):
    """U(2,5) gaps repeat with N=6, p=32, G=126 from the seventh term on."""
    terms = ref.upto(2, 5, horizon)
    g = _gaps(terms)
    N, p = 6, 32
    period = g[N:N + p]
    if sum(period) != 126 or any(g[k] != g[k + p] for k in range(N, len(g) - p)):
        raise ValueError("U(2,5) reference does not have period 32, G=126")
    return terms, g, N, p, period


def _detect_u25(ref: Reference, horizon: int) -> dict:
    terms, g, N, p, period = _u25_decomposition(ref, horizon)
    K, tail = len(g), len(g) - N
    return {"a": 2, "b": 5, "horizon": horizon,
            "candidate": {"N": N, "p": p, "period_gaps": period, "G": 126,
                          "periods_observed": tail // p,
                          "coverage": str(Fraction(tail, K))}}


def _export_ap(ref: Reference, horizon: int) -> dict:
    terms, _, N, p, _ = _u25_decomposition(ref, horizon)
    return {"grade": "candidate", "a": 2, "b": 5, "initial_set": terms[:N],
            "progressions": [{"first": f, "diff": 126} for f in terms[N:N + p]],
            "density": str(Fraction(p, 126))}


def _presburger(ref: Reference, horizon: int) -> dict:
    terms, _, N, p, _ = _u25_decomposition(ref, horizon)
    clauses = [f"x = {v}" for v in terms[:N]]
    clauses += [f"∃t (x = {f} + 126·t)" for f in terms[N:N + p]]
    return {"a": 2, "b": 5, "horizon": horizon, "formula": " ∨ ".join(clauses)}


def _u25_code(ref: Reference) -> str:
    """Pattern code of U(2,5): its six initial terms, then the period mask."""
    terms, _, N, p, _ = _u25_decomposition(ref, WARM_U25)
    comp = dict(A1=0, A2=0, B1=0, B2=0, L=1, S=[0], unbounded=False)
    comps = [dict(comp, p=v, q=v) for v in terms[:N]]
    comps.append(dict(comp, p=terms[N], q=0, L=126, unbounded=True,
                      S=[f - terms[N] for f in terms[N:N + p]]))
    return json.dumps({"components": comps}, separators=(",", ":"))


def _density_check(ref: Reference, q: Fraction, k: int, n_from: int,
                   n_max: int) -> dict:
    terms = ref.upto(1, 2, n_max)
    first, i = None, 0
    for n in range(n_from, n_max + 1):
        while i < len(terms) and terms[i] <= n:
            i += 1
        lhs = q.denominator * k * i
        if lhs > (q.numerator * k + q.denominator * (n + 1)) * (n + 1):
            first = n
            break
    return {"a": 1, "b": 2, "q": str(q), "k": k, "n_from": n_from,
            "n_max": n_max, "holds": first is None, "first_violation": first}


def _census(ref: Reference, horizon: int, modulus: int) -> dict:
    terms = ref.upto(1, 2, horizon)
    top = terms[len(terms) // 2:]
    rows = []
    for r in range(modulus):
        matching = [t for t in terms if t % modulus == r]
        if not matching:
            rows.append({"residue": r, "count": 0, "largest": None,
                         "tail_from": 0})
            continue
        recurring = any(t % modulus == r for t in top)
        rows.append({"residue": r, "count": len(matching),
                     "largest": matching[-1],
                     "tail_from": None if recurring else matching[-1] + 1})
    return {"a": 1, "b": 2, "horizon": horizon, "modulus": modulus,
            "rows": rows}


def _report(a: int, b: int, lo: int, hi: int) -> dict:
    """A segment report that agrees everywhere; `code` is left unchecked."""
    return {"a": a, "b": b, "N": lo, "M": hi, "agrees": True,
            "first_mismatch": None, "matched_count": hi - lo + 1}


def _ref_report(ref: Reference, n: int) -> dict:
    _, agrees, N, M, matched, mismatch = ref.sweep[n]
    if mismatch is not None:
        mismatch = {"m": mismatch[0], "direction": mismatch[1]}
    return {"a": 1, "b": n, "N": N, "M": M, "agrees": agrees,
            "first_mismatch": mismatch, "matched_count": matched}


def _entries_check(ref: Reference, ns: list[int]) -> Callable[[list], "str | None"]:
    """Sweep entries, in n order, match the recorded reports (`code` aside)."""
    def check(entries):
        if [e.get("n") for e in entries] != ns:
            return "sweep entries do not cover the requested n"
        for e in entries:
            report = dict(e.get("report") or {})
            report.pop("code", None)
            if e.get("error") is not None or report != _ref_report(ref, e["n"]):
                return f"sweep entry n={e['n']} differs from the reference"
        return None
    return check


def _sweep_stdout(entries_ok) -> Check:
    def check(out: str):
        try:
            return entries_ok(json.loads(out)["entries"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad sweep JSON: {exc!r}"
    return check


def _sweep_jsonl(entries_ok) -> Check:
    def check(text: str):
        try:
            return entries_ok([json.loads(line) for line in text.splitlines()])
        except ValueError as exc:
            return f"bad sweep report line: {exc}"
    return check


def _mine_check(ref: Reference) -> Check:
    code = json.loads(ref.mined_code)
    holdout = [_ref_report(ref, n) for n in (MINE_SAMPLES[-1] + 1,
                                              MINE_SAMPLES[-1] + 2)]

    def check(out: str):
        try:
            obj = json.loads(out)
            reports = [{k: v for k, v in r.items() if k != "code"}
                       for r in obj["holdout"]]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"bad mine JSON: {exc!r}"
        if obj.get("code") != code:
            return "mined code differs from the reference"
        if obj.get("samples") != list(MINE_SAMPLES) or reports != holdout:
            return "mine samples or holdout reports differ from the reference"
        return None
    return check


def _cache_info_check(ref: Reference, pairs: list[tuple[int, int]]) -> Check:
    """Every cache file is intact and holds the true prefix at its horizon."""
    def check(out: str):
        try:
            files = json.loads(out)["files"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad cache info JSON: {exc!r}"
        if sorted((f.get("a"), f.get("b")) for f in files) != sorted(pairs):
            return "cache info lists the wrong files"
        for f in files:
            a, b, h = f["a"], f["b"], f.get("horizon", 0)
            if f.get("status") != "ok" or not f.get("size_bytes"):
                return f"cache file U({a},{b}) is not ok"
            prefix = ref.upto(a, b, h)
            if f.get("term_count") != len(prefix) or f.get("last_term") != prefix[-1]:
                return f"cache file U({a},{b}) disagrees with the reference"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

def _warmup() -> Step:
    return Step(["--version"], _version)


def _density_text(ref: Reference, a: int, b: int, n: int) -> Check:
    c = ref.count(a, b, n)
    ratio = Fraction(c, n + 1)
    return _text(f"C({n}) = {c}; C/(n+1) = {ratio} = {float(ratio):.6f}")


def warm_analysis(ref: Reference, seed: int) -> Workload:
    """Analysis served from a cache built in setup: no timed sieve work.

    Time splits between the import floor, cache decoding, period detection
    (quadratic in the gap count on aperiodic U(1,2)) and rendering. U(1,2)
    is cached far enough that detect-period is over a third of the pass.
    """
    s = _Seeded(seed)
    js = ["--format", "json"]

    def step(cmd, pair, horizon, args, check):
        return Step([cmd, *_pair(*pair), *args, *CACHE, *js], check, pair, horizon,
                    cached=True)

    setup = [Step(["generate", *_pair(a, b), "--horizon", str(h), *CACHE],
                  _lines(ref.upto(a, b, h)), (a, b), h, cached=True)
             for a, b, h in ((1, 2, WARM_U12), (2, 5, WARM_U25))]
    steps = []
    for h in (s.near(650_000), s.near(695_000)):
        steps.append(step("detect-period", (1, 2), h, ["--horizon", str(h)],
                          _json({"a": 1, "b": 2, "horizon": h, "candidate": None})))
    h = s.near(90_000)
    steps.append(step("detect-period", (2, 5), h, ["--horizon", str(h)],
                      _json(_detect_u25(ref, h))))
    h = s.near(95_000)
    steps.append(step("export-ap", (2, 5), h, ["--horizon", str(h)],
                      _json(_export_ap(ref, h))))
    steps.append(step("export-presburger", (2, 5), WARM_U25,
                      ["--horizon", str(WARM_U25)], _json(_presburger(ref, WARM_U25))))
    q, k, n_max = Fraction(1, 13), s.rng.randint(1, 50), s.near(680_000)
    steps.append(step("density-check", (1, 2), n_max,
                      ["--q", str(q), "--k", str(k), "--n-max", str(n_max)],
                      _json(_density_check(ref, q, k, 1, n_max))))
    modulus = s.rng.randint(3, 12)
    steps.append(step("census", (1, 2), WARM_U12,
                      ["--horizon", str(WARM_U12), "--modulus", str(modulus)],
                      _json(_census(ref, WARM_U12, modulus))))
    h = s.near(80_000)
    g = _gaps(ref.upto(2, 5, h))
    steps.append(step("gaps", (2, 5), h, ["--horizon", str(h)],
                      _json({"a": 2, "b": 5, "horizon": h, "gap_count": len(g),
                             "gaps": g})))
    n = s.near(300_000)
    steps.append(Step(["density", *_pair(1, 2), "--n", str(n), *CACHE],
                      _density_text(ref, 1, 2, n), (1, 2), n, cached=True))
    lo, hi = s.near(1_000), s.near(99_000)
    steps.append(step("verify-pattern", (2, 5), hi,
                      ["--code", _u25_code(ref), "--lo", str(lo), "--hi", str(hi)],
                      _json(_report(2, 5, lo, hi), ignore=("code",))))
    return Workload("warm-analysis", setup, steps,
                    only_outcomes={"hit", "restrict"})


def cache_growth(ref: Reference, seed: int) -> Workload:
    """Queries that grow a cache from empty, mixed with reads below it.

    The only workload where `extend` and the cache writer carry the time.
    Every pass starts from an empty cache and goes through all five cache
    paths: miss, extend, restrict, hit, and a file the benchmark corrupts,
    which the program must warn about, ignore and rebuild. The nth query
    doubles the U(1,2) horizon once.
    """
    s = _Seeded(seed)
    m1, h2, m3, k5, m6, n7, n8 = (s.near(v) for v in (
        100_000, 180_000, 90_000, 22_000, 80_000, 140_000, 100_000))

    def step(cmd, pair, flag, value, check, horizon, **kw):
        return Step([cmd, *_pair(*pair), flag, str(value), *CACHE], check, pair,
                    horizon, cached=True, **kw)

    steps = [
        step("member", (1, 2), "--m", m1, _text(ref.member(1, 2, m1)), m1),
        step("count", (1, 2), "--n", h2, _text(ref.count(1, 2, h2)), h2),
        step("member", (1, 2), "--m", m3, _text(ref.member(1, 2, m3)), m3),
        step("density", (1, 2), "--n", h2, _density_text(ref, 1, 2, h2), h2),
        step("nth", (1, 2), "--k", k5, _text(ref.nth(1, 2, k5)), None),
        step("member", (1, 3), "--m", m6, _text(ref.member(1, 3, m6)), m6),
        step("count", (1, 3), "--n", n7, _text(ref.count(1, 3, n7)), n7),
        step("count", (1, 3), "--n", n8, _text(ref.count(1, 3, n8)), n8,
             corrupt_first=True, warns=True),
        Step(["cache", "info", *CACHE, "--format", "json"],
             _cache_info_check(ref, [(1, 2), (1, 3)])),
    ]
    return Workload("cache-growth", [_warmup()], steps, fresh_cache=True,
                    outcomes={"miss", "hit", "restrict", "extend", "corrupt"})


def family_sweep(ref: Reference, seed: int) -> Workload:
    """Mine a code for U(1, n), then verify it across 150 consecutive n.

    Every swept prefix has a horizon below 5k, so the sieve's per-term
    Python overhead outweighs its quadratic part: a kernel that wins on
    large horizons can lose here. Four verifications at distinct n near
    1000 sit between the two, so the median command is always one of
    them. The only workload for mining, the sweep and report writing. The
    sweep runs on one thread: on two, the interpreter lock keeps it from
    running faster, and with both vCPUs of a 2-vCPU host busy its run
    times spread two to three times as wide.
    """
    s = _Seeded(seed)
    c, d = SEG_RULE
    first = s.rng.randint(*SWEEP_FIRST)
    ns = list(range(first, first + SWEEP_COUNT))
    spread = VERIFY_N // JITTER
    verified = s.rng.sample(range(VERIFY_N - spread, VERIFY_N + spread + 1), VERIFY_COUNT)
    entries_ok = _entries_check(ref, ns)
    steps = [
        Step(["mine", "--modulus", "1", "--residue", "0", "--samples",
              ",".join(map(str, MINE_SAMPLES)), "--seg-c", str(c), "--seg-d", str(d),
              "--format", "json"], _mine_check(ref)),
        *(Step(["verify-pattern", *_pair(1, n), "--code", ref.mined_code, "--lo", "1",
                "--hi", str(c * n + d), "--format", "json"],
               _json(_ref_report(ref, n), ignore=("code",))) for n in verified),
        Step(["sweep", "--code", ref.mined_code, "--modulus", "1", "--residue", "0",
              "--n-from", str(ns[0]), "--n-to", str(ns[-1]), "--seg-c", str(c),
              "--seg-d", str(d), "--threads", "1", "--expect-agree",
              "--report-jsonl", SWEEP_REPORT, "--format", "json"],
             _sweep_stdout(entries_ok), side_file=(SWEEP_REPORT, _sweep_jsonl(entries_ok))),
    ]
    return Workload("family-sweep", [_warmup()], steps,
                    sizes={"swept_n": [ns[0], ns[-1]], "verified_n": verified,
                           "max_horizon": c * max(verified) + d, "samples": list(MINE_SAMPLES)})


WORKLOADS = {
    "warm-analysis": warm_analysis,
    "cache-growth": cache_growth,
    "family-sweep": family_sweep,
}


def build(name: str, ref: Reference, seed: int) -> Workload:
    """The workload's steps for this seed, with its input sizes filled in."""
    wl = WORKLOADS[name](ref, seed)
    horizons: dict[str, int] = {}
    terms = 0
    for step in wl.steps:
        if step.pair is None:
            continue
        key = "U({},{})".format(*step.pair)
        if step.horizon is None:
            terms += int(step.argv[step.argv.index("--k") + 1])
        else:
            horizons[key] = max(horizons.get(key, 0), step.horizon)
            terms += ref.count(*step.pair, step.horizon)
    wl.sizes = {"commands": len(wl.steps), **wl.sizes}
    if horizons:
        wl.sizes.update(pairs=sorted(horizons), max_horizon=horizons,
                        terms_in_prefixes=terms)
    return wl
