"""Time `ulam` start-up: short cached commands in fresh interpreters.

Every command below is served from a cache that a setup builds, so its time
is the interpreter's start, the imports, argument parsing, cache decoding
and a little work of its own. `python -c pass` is the floor that no change
to ulamkit can lower.

With --base DIR, the `src` directory of another checkout (for example a
`git archive` of the parent commit), each command runs alternately on this
tree and on that one, and the side that runs first alternates by round.
Each tree is copied to a temporary directory and timed twice:

  source    PYTHONDONTWRITEBYTECODE=1 and no cached bytecode, so each run
            compiles every ulamkit module it imports;
  compiled  bytecode written beforehand by compileall.

The standard library keeps its own bytecode in both. The script writes the
timings and the host to a JSON file and prints the README table (median
ms; with --base, the change's runs faster than the base's in its pair):

    python3 scripts/startup.py [--base DIR [--base-label COMMIT]] [--runs 15]
                               [--out BENCH_startup.json]
    python3 scripts/startup.py --table [--out BENCH_startup.json]

15 rounds take about two minutes on a 2-vCPU host.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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
        if mode == "compiled":
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(work / "src")], check=True)
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(work / "src"),
                    "PYTHONDONTWRITEBYTECODE": "1"}
        self.env.pop("ULAM_CACHE_DIR", None)

    def run(self, argv) -> tuple[float, str]:
        """Seconds from spawn to exit, and standard output."""
        full = ([sys.executable, "-c", "pass"] if argv is None else
                [sys.executable, "-m", "ulamkit.cli", *argv,
                 "--cache-dir", str(self.work / "cache")])
        start = time.perf_counter()
        proc = subprocess.run(full, capture_output=True, text=True,
                              env=self.env, cwd=self.work)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"{full[3:]} exited {proc.returncode}: {proc.stderr}")
        return elapsed, proc.stdout


def quartiles(ms: list) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median": round(median, 1), "q1": round(q1, 1),
            "q3": round(q3, 1), "runs": [round(t, 1) for t in ms]}


def measure(base: Path | None, runs: int) -> dict:
    sources = {"change": ROOT / "src"}
    if base is not None:
        sources["base"] = base
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
            times = {(name, side): [] for name in table for side in sides}
            for rnd in range(runs):
                order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
                for name, argv in table.items():
                    for side in order:
                        times[name, side].append(
                            sides[side].run(argv)[0] * 1e3)
                print(f"{mode}: round {rnd + 1} of {runs} done",
                      file=sys.stderr)
            rows = []
            for name in table:
                row = {"command": name}
                for side in sides:
                    row[side] = quartiles(times[name, side])
                if "base" in sides:
                    row["change_faster"] = sum(
                        c < b for c, b in zip(times[name, "change"],
                                              times[name, "base"]))
                rows.append(row)
            results[mode] = rows
    return results


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, default=None,
                        help="the src directory of the tree to compare with")
    parser.add_argument("--base-label", default=None,
                        help="what --base is, for the record (a commit)")
    parser.add_argument("--runs", type=int, default=15,
                        help="rounds of every command on every side")
    parser.add_argument("--out", default=str(ROOT / "BENCH_startup.json"))
    parser.add_argument("--table", action="store_true",
                        help="print the table of --out and time nothing")
    args = parser.parse_args(argv)
    if args.table:
        print(render(json.loads(Path(args.out).read_text())))
        return
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    if args.base is not None and not (args.base / "ulamkit" / "cli.py").is_file():
        parser.error(f"no ulamkit sources under {args.base}")
    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "runs": args.runs,
        "base": None if args.base is None else (args.base_label
                                                or args.base.parent.name),
        "unit": "ms from spawn to exit, median and quartiles",
        "modes": measure(args.base, args.runs),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(render(record))


if __name__ == "__main__":
    main()
