"""Time ulamkit in fresh interpreters and write the record as JSON.

Each round runs every item on both sides back to back, and the side that
goes first alternates by round, so run i of the two sides form a pair. A
child has one `src` tree on PYTHONPATH and writes no bytecode.

startup: short `ulam` commands served from a cache that a setup builds, so
they time start-up, imports, argument parsing, cache decoding and a little
work; `python -c pass` is the floor. With --base DIR, the `src` of another
checkout (say a `git archive` of the parent), each command runs on both
trees, each copied to a temporary directory and timed without bytecode for
its own modules ("source") and with it ("compiled"). The table gives median
ms and, with --base, the pairs the change won. 15 rounds: about 2 minutes.

kernels: `engine._sieve` runs the bit planes up to `_BITS_MAX_HORIZON` and
the byte tables above. For the PAIRS at the HORIZONS, `_byte_sieve` with
numpy's import is timed against `_bit_sieve` in fresh interpreters, and the
best of 5 of each in this process with numpy loaded. RULE derives the
threshold. The table gives ms, byte / bit, the faster fresh side in bold.
15 rounds: about 20 minutes on 2 vCPUs, most of it in the 2^20 sieves.

    python3 scripts/timing.py startup [--base DIR [--base-label COMMIT]]
                                      [--runs 15] [--out BENCH_startup.json]
    python3 scripts/timing.py startup --table [--out BENCH_startup.json]
    python3 scripts/timing.py kernels [--runs 15] [--out BENCH_kernels.json]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spawn(args, src: Path, cwd=None) -> tuple[float, str]:
    """Seconds from spawn to exit of `python *args` with `src` on
    PYTHONPATH, and its standard output; a failed child ends the script."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("ULAM_CACHE_DIR", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{args} exited {proc.returncode}: {proc.stderr}")
    return elapsed, proc.stdout


def rounds(runs: int, items, sides, step) -> dict:
    """(item, side) -> the ms of `runs` calls of step(side, item). Each
    round runs every item on every side back to back, and the first side
    alternates by round."""
    times = {(item, side): [] for item in items for side in sides}
    for rnd in range(runs):
        order = sides if rnd % 2 == 0 else sides[::-1]
        for item in items:
            for side in order:
                times[item, side].append(step(side, item))
        print(f"round {rnd + 1} of {runs} done", file=sys.stderr)
    return times


def quartiles(ms: list, digits: int = 1) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median": round(median, digits), "q1": round(q1, digits),
            "q3": round(q3, digits), "runs": [round(t, digits) for t in ms]}


def wins(ms: list, other: list) -> int:
    """In how many pairs of runs the first side was faster."""
    return sum(x < y for x, y in zip(ms, other))


def host(**extra) -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), **extra}


# startup

MODES = ("source", "compiled")
# U(1, n) checked on [1, 30n - 1], as in the benchmark's family sweep
SEGMENT = ["--seg-c", "30", "--seg-d", "-1"]
MINE = ["mine", "--modulus", "1", "--residue", "0", "--samples", "6,7,8",
        *SEGMENT, "--format", "json"]
SETUP = [["generate", "--a", "1", "--b", "2", "--horizon", "3000"],
         ["generate", "--a", "2", "--b", "5", "--horizon", "3000"],
         ["generate", "--a", "1", "--b", "1005", "--horizon", "30149"]]


def commands(code: str) -> dict:
    """Name -> ulam argv (None: `python -c pass`); `code` is a mined code."""
    return {
        "python -c pass": None,
        "--version": ["--version"],
        "member U(1,2)": ["member", "--a", "1", "--b", "2", "--m", "3000"],
        "detect-period U(2,5)": ["detect-period", "--a", "2", "--b", "5",
                                 "--horizon", "3000", "--format", "json"],
        "density U(1,2)": ["density", "--a", "1", "--b", "2", "--n", "3000",
                           "--format", "json"],
        "census U(1,2)": ["census", "--a", "1", "--b", "2", "--horizon",
                          "3000", "--modulus", "4", "--format", "json"],
        "export-ap U(2,5)": ["export-ap", "--a", "2", "--b", "5",
                             "--horizon", "3000", "--format", "json"],
        "verify-pattern U(1,1005)": ["verify-pattern", "--a", "1", "--b",
                                     "1005", "--code", code, "--lo", "1",
                                     "--hi", "30149", "--format", "json"],
        "mine": MINE,
    }


class Side:
    """One source tree, copied into `work`, with its own cache directory."""

    def __init__(self, src: Path, work: Path, mode: str):
        shutil.copytree(src, work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.work = work
        if mode == "compiled":
            spawn(["-m", "compileall", "-q", str(work / "src")], work / "src")

    def run(self, argv) -> tuple[float, str]:
        return spawn(["-c", "pass"] if argv is None else
                     ["-m", "ulamkit.cli", *argv,
                      "--cache-dir", str(self.work / "cache")],
                     self.work / "src", cwd=self.work)


def startup(args) -> tuple[dict, str]:
    """Time short cached `ulam` commands, against another tree with --base."""
    sources = {"change": ROOT / "src"}
    if args.base is not None:
        sources["base"] = args.base
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            sides = {name: Side(src, Path(tmp) / mode / name, mode)
                     for name, src in sources.items()}
            for side in sides.values():
                for argv in SETUP:
                    side.run(argv)
            code = json.dumps(json.loads(sides["change"].run(MINE)[1])["code"])
            table = commands(code)
            for side in sides.values():  # every later run is served cached
                for argv in table.values():
                    side.run(argv)
            times = rounds(args.runs, table, list(sides), lambda side, name:
                           sides[side].run(table[name])[0] * 1e3)
            rows = []
            for name in table:
                row = {"command": name}
                for side in sides:
                    row[side] = quartiles(times[name, side])
                if "base" in sides:
                    row["change_faster"] = wins(times[name, "change"],
                                                times[name, "base"])
                rows.append(row)
            results[mode] = rows
    record = {
        "host": host(),
        "runs": args.runs,
        "base": None if args.base is None else (args.base_label
                                                or args.base.parent.name),
        "unit": "ms from spawn to exit, median and quartiles",
        "modes": results,
    }
    return record, render(record)


def render(record: dict) -> str:
    """The README table: median ms per mode and side."""
    sides = ["base", "change"] if record.get("base") else ["change"]
    head = [f"{mode}: {side}" for mode in MODES for side in sides]
    lines = ["| command | " + " | ".join(head) + " |",
             "| --- |" + " ---: |" * len(head)]
    by_mode = {mode: {r["command"]: r for r in record["modes"][mode]}
               for mode in MODES}
    for name in by_mode[MODES[0]]:
        cells = []
        for mode in MODES:
            row = by_mode[mode][name]
            for side in sides:
                cell = f"{row[side]['median']:.0f}"
                if side == "change" and "change_faster" in row:
                    cell += f" ({row['change_faster']}/{record['runs']})"
                cells.append(cell)
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


# kernels

PAIRS = [(1, 2), (1, 3), (2, 5), (1, 1000), (1, 5000)]
HORIZONS = sorted([1 << e for e in range(14, 21)]
                  + [5 << 16, 3 << 17, 7 << 16])
KERNELS = ("byte", "bit")
RULE = ("largest horizon at which, for every pair, the fresh bit-plane sieve "
        "beats import numpy plus the byte sieve in more than half of their "
        "interleaved pairs of runs")

# One sieve from the seeds in a fresh interpreter that imports nothing else
# before it (numpy's import is timed); prints its seconds.
CHILD = """
import sys, time
from array import array
from ulamkit import engine
kernel, a, b, horizon = sys.argv[1], *map(int, sys.argv[2:])
known = array("q", (a, b)).tobytes()
start = time.perf_counter()
if kernel == "byte":
    engine._byte_sieve(a, known, b, horizon)
else:
    engine._bit_sieve(known, b, horizon)
elapsed = time.perf_counter() - start
if ("numpy" in sys.modules) != (kernel == "byte"):
    sys.exit("only the byte kernel may load numpy")
print(elapsed)
"""


def sieve_s(engine, kernel, a, b, horizon) -> float:
    """Seconds of one sieve in this process, as CHILD times it."""
    known = array("q", (a, b)).tobytes()
    start = time.perf_counter()
    if kernel == "byte":
        engine._byte_sieve(a, known, b, horizon)
    else:
        engine._bit_sieve(known, b, horizon)
    return time.perf_counter() - start


def threshold(rows) -> int:
    """The horizon that RULE picks from the rows, or 0 if none qualifies."""
    held = {}
    for row in rows:
        won = 2 * wins(row["fresh_bit_ms"], row["fresh_byte_ms"]) \
            > len(row["fresh_bit_ms"])
        held[row["horizon"]] = held.get(row["horizon"], True) and won
    return max((h for h, ok in held.items() if ok), default=0)


def kernels(args) -> tuple[dict, str]:
    """Time both sieve kernels and derive the bit-plane threshold."""
    cells = [(a, b, h) for a, b in PAIRS for h in HORIZONS]
    fresh = rounds(args.runs, cells, KERNELS, lambda kernel, cell: float(
        spawn(["-c", CHILD, kernel, *map(str, cell)], ROOT / "src")[1]) * 1e3)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # loaded before timing, as in a long process
    from ulamkit import engine

    rows = []
    for a, b, horizon in cells:
        row = {"pair": [a, b], "horizon": horizon}
        for kernel in KERNELS:
            q = quartiles(fresh[(a, b, horizon), kernel], 2)
            row[f"fresh_{kernel}_ms"] = q["runs"]
            row[f"fresh_{kernel}_median_ms"] = q["median"]
            row[f"one_process_{kernel}_ms"] = round(min(
                sieve_s(engine, kernel, a, b, horizon) for _ in range(5))
                * 1e3, 2)
        rows.append(row)
    derived = threshold(rows)
    record = {
        "host": host(numpy=numpy.__version__),
        "runs": args.runs,
        "rule": RULE,
        "threshold": derived,
        "rows": rows,
    }
    return record, (f"{table(rows)}\n\nthreshold by the rule: {derived}; "
                    f"engine._BITS_MAX_HORIZON: {engine._BITS_MAX_HORIZON}")


def label(horizon):
    """The horizon as odd·2^e, such as 2^18 or 5·2^16."""
    e = (horizon & -horizon).bit_length() - 1
    odd = horizon >> e
    return f"2^{e}" if odd == 1 else f"{odd}·2^{e}"


def table(rows):
    """The README table: byte / bit in ms, one column per horizon."""
    by_key = {(tuple(r["pair"]), r["horizon"]): r for r in rows}
    lines = ["| build | " + " | ".join(map(label, HORIZONS)) + " |",
             "| --- |" + " --- |" * len(HORIZONS)]
    for kind in ("fresh", "one process"):
        for a, b in PAIRS:
            cells = []
            for h in HORIZONS:
                row = by_key[(a, b), h]
                if kind == "fresh":
                    byte = row["fresh_byte_median_ms"]
                    bit = row["fresh_bit_median_ms"]
                    cells.append(f"{byte:.0f} / **{bit:.0f}**" if bit < byte
                                 else f"**{byte:.0f}** / {bit:.0f}")
                else:
                    cells.append(f"{row['one_process_byte_ms']:.1f} / "
                                 f"{row['one_process_bit_ms']:.1f}")
            lines.append(f"| U({a},{b}), {kind} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    subs = {}
    for run in (startup, kernels):
        sub = subs[run.__name__] = modes.add_parser(
            run.__name__, help=run.__doc__, description=run.__doc__)
        sub.add_argument("--runs", type=int, default=15,
                         help="rounds of every item on every side")
        sub.add_argument("--out",
                         default=str(ROOT / f"BENCH_{run.__name__}.json"))
        sub.set_defaults(run=run)
    sub = subs["startup"]
    sub.add_argument("--base", type=Path, default=None,
                     help="the src directory of the tree to compare with")
    sub.add_argument("--base-label", default=None,
                     help="what --base is, for the record (a commit)")
    sub.add_argument("--table", action="store_true",
                     help="print the table of --out and time nothing")
    args = parser.parse_args(argv)
    if getattr(args, "table", False):
        print(render(json.loads(Path(args.out).read_text())))
        return
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    base = getattr(args, "base", None)
    if base is not None and not (base / "ulamkit" / "cli.py").is_file():
        parser.error(f"no ulamkit sources under {base}")
    record, text = args.run(args)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(text)


if __name__ == "__main__":
    main()
