"""Time the two sieve kernels and derive the bit-plane threshold.

`engine._sieve` runs the bit planes up to `engine._BITS_MAX_HORIZON` and the
byte tables above it. The threshold is the largest measured horizon at
which the bit planes beat `import numpy` plus the byte tables in fresh
processes for every pair: a `ulam` command that sieves pays numpy's import
only on the byte side.

For U(1,2), U(1,3), U(2,5), U(1,1000) and U(1,5000) at the powers of two
2^14 to 2^20, and at 5·2^16, 3·2^17 and 7·2^16 inside the octave where the
kernels cross, this script times, in fresh interpreters run alternately,
`engine._byte_sieve` (which imports numpy) against `engine._bit_sieve` (the
interpreter and `ulamkit` start-up, equal on both sides, are left out),
and, in this process with numpy loaded, the best of 5 runs of each kernel.
It writes the timings, the host and the derived threshold to a JSON file
and prints the README table (ms, byte / bit, the faster fresh side in bold):

    python3 scripts/kernel_threshold.py [--runs 15] [--out BENCH_kernels.json]

It takes about twenty minutes on a 2-vCPU host, most of it in the 2^20
sieves.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PAIRS = [(1, 2), (1, 3), (2, 5), (1, 1000), (1, 5000)]
HORIZONS = sorted([1 << e for e in range(14, 21)]
                  + [5 << 16, 3 << 17, 7 << 16])
KERNELS = ("byte", "bit")

# One sieve from the seeds in a fresh interpreter; prints its seconds.
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


def fresh_ms(kernel, a, b, horizon):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, kernel, str(a), str(b), str(horizon)],
        capture_output=True, text=True, env=env, check=True)
    return float(proc.stdout) * 1e3


def one_process_ms(engine, kernel, a, b, horizon, repeats=5):
    known = array("q", (a, b)).tobytes()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        if kernel == "byte":
            engine._byte_sieve(a, known, b, horizon)
        else:
            engine._bit_sieve(known, b, horizon)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def threshold(rows):
    """The largest horizon at which the bit planes' median fresh time beats
    the byte tables' for every pair, or 0 if there is none."""
    wins = {}
    for row in rows:
        won = row["fresh_bit_median_ms"] < row["fresh_byte_median_ms"]
        wins[row["horizon"]] = wins.get(row["horizon"], True) and won
    return max((h for h, won in wins.items() if won), default=0)


def measure(runs):
    fresh = {}
    for rep in range(runs):
        # alternate which kernel of a pair runs first
        order = KERNELS if rep % 2 == 0 else KERNELS[::-1]
        for a, b in PAIRS:
            for horizon in HORIZONS:
                for kernel in order:
                    fresh.setdefault((a, b, horizon, kernel), []).append(
                        fresh_ms(kernel, a, b, horizon))
        print(f"fresh round {rep + 1} of {runs} done", file=sys.stderr)

    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded before timing, as in a long process)
    from ulamkit import engine

    rows = []
    for a, b in PAIRS:
        for horizon in HORIZONS:
            row = {"pair": [a, b], "horizon": horizon}
            for kernel in KERNELS:
                times = fresh[a, b, horizon, kernel]
                row[f"fresh_{kernel}_ms"] = [round(t, 2) for t in times]
                row[f"fresh_{kernel}_median_ms"] = round(
                    statistics.median(times), 2)
                row[f"one_process_{kernel}_ms"] = round(
                    one_process_ms(engine, kernel, a, b, horizon), 2)
            rows.append(row)
    return rows


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
    parser.add_argument("--runs", type=int, default=15,
                        help="fresh processes per kernel, pair and horizon")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    rows = measure(args.runs)
    derived = threshold(rows)
    from ulamkit import engine

    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": sys.modules["numpy"].__version__},
        "runs": args.runs,
        "rule": "largest horizon at which the median fresh bit-plane sieve "
                "beats import numpy plus the byte sieve for every pair",
        "threshold": derived,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(table(rows))
    print(f"\nthreshold by the rule: {derived}; "
          f"engine._BITS_MAX_HORIZON: {engine._BITS_MAX_HORIZON}")


if __name__ == "__main__":
    main()
