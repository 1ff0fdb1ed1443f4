"""ulamkit benchmark: seeded `ulam` command sequences, timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in its own process, `python -m ulamkit.cli` with
PYTHONPATH=src, one at a time (a closed loop with one client). A pass is
the workload's whole command sequence; passes repeat until S seconds have
gone by. Every output is checked against the reference data in
`perfbench/reference`, and a command with a wrong output or an
unexpected exit code counts as failed.

--trace 0 reports the end-to-end metrics:
  setup_s      median over repeated set-ups of the work before the timed
               passes (a fresh work directory, one warm-up command, and the
               cache prebuild where the workload has one): at least 3, and
               as many as fill 3 s, so a set-up of one short command still
               gives a steady median
  wall_s       mean pass time, from first spawn to last exit
  cmd_p50_s    median command time of a pass, spawn to reap, averaged
               over the passes
  peak_rss_mb  largest peak RSS of any one timed command (from os.wait4)
and prints cache_bytes and fail_frac beside them. Pass statistics are
averaged over the run, not taken as its median: on a shared host whose
speed moves between fast and slow phases lasting seconds to minutes, the
median of a run jumps between the phases while the mean moves with the
share of the run each phase took.

--trace 1 alternates untraced passes with passes run through
`perfbench/traced.py`, and reports the per-layer metrics of `layers.py`
(medians over traced passes) with trace.overhead_frac, the traced pass
time over the untraced one, minus one.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it give every metric by name and
unit, the run context and the seeded argv digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import layers
import workloads
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / workloads.WORK_DIR
TRACED = Path(__file__).resolve().parent / "traced.py"
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
COMMAND_TIMEOUT_S = 150


@dataclass
class Result:
    """One finished command."""

    step: workloads.Step
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float
    outcome: str | None = None
    trace_file: Path | None = None


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ULAM_CACHE_DIR", None)
    return env


def spawn(step: workloads.Step, trace_file: Path | None = None) -> Result:
    """Run one command to completion; time it from spawn to reap."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        if trace_file is None:
            argv = [sys.executable, "-m", "ulamkit.cli", *step.argv]
        else:
            argv = [sys.executable, str(TRACED), str(trace_file), repr(start),
                    "--", *step.argv]
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(step, proc.returncode, out_path.read_bytes(),
                  err_path.read_bytes(), wall, usage.ru_maxrss / 1024,
                  trace_file=trace_file)


def cache_state(path: Path) -> tuple[bytes, int | None] | None:
    """Digest and header horizon of a cache file, or None when absent."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    horizon = None
    if data[:5] == b"ULAM1" and len(data) >= 37:
        (horizon,) = struct.unpack_from("<Q", data, 29)
    return hashlib.sha256(data).digest(), horizon


def classify(step: workloads.Step, before, after, corrupted: bool) -> str:
    """Cache path a command took, judged from its cache file alone."""
    if corrupted:
        return "corrupt" if after is not None and after != before else "corrupt-trusted"
    if before is None:
        return "miss" if after is not None else "unwritten"
    if after != before:
        return "extend"
    return "hit" if step.horizon in (None, before[1]) else "restrict"


def corrupt(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def problems(r: Result) -> list[str]:
    """What is wrong with one command's outcome; empty when it is right."""
    out = []
    if r.code != 0:
        out.append(f"exit code {r.code}: {r.stderr.decode(errors='replace')[-200:]!r}")
    try:
        fault = r.step.check(r.stdout.decode("utf-8"))
    except Exception as exc:  # a checker that cannot judge the output fails it
        fault = f"output could not be checked: {exc!r}"
    if fault:
        out.append(fault)
    if r.step.warns and b"warning" not in r.stderr.lower():
        out.append("no warning on stderr")
    if r.step.side_file is not None:
        path, check = r.step.side_file
        try:
            fault = check((ROOT / path).read_text(encoding="utf-8"))
        except OSError as exc:
            fault = f"cannot read {path}: {exc}"
        if fault:
            out.append(fault)
    return out


class Bench:
    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def judge(self, results: list[Result], label: str) -> None:
        self.attempted += len(results)
        for i, r in enumerate(results):
            faults = problems(r)
            if faults:
                self.fail(f"{label} command {i} ({r.step.argv[0]}): {'; '.join(faults)}")

    def setup(self) -> float:
        start = time.perf_counter()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        results = [spawn(step) for step in self.wl.setup]
        elapsed = time.perf_counter() - start
        self.judge(results, "setup")
        return elapsed

    def run_pass(self, traced: bool) -> tuple[list[Result], float]:
        if self.wl.fresh_cache:
            shutil.rmtree(ROOT / workloads.CACHE_DIR, ignore_errors=True)
        results = []
        start = time.perf_counter()
        for i, step in enumerate(self.wl.steps):
            cache_file = self.wl.cache_file(step)
            path = ROOT / cache_file if cache_file else None
            if step.corrupt_first:
                corrupt(path)
            before = cache_state(path) if path else None
            r = spawn(step, WORK / f"spans-{i}.json" if traced else None)
            if path:
                r.outcome = classify(step, before, cache_state(path), step.corrupt_first)
            results.append(r)
        wall = time.perf_counter() - start
        self.judge(results, "traced" if traced else "timed")
        self.check_outcomes(results)
        return results, wall

    def check_outcomes(self, results: list[Result]) -> None:
        seen = {r.outcome for r in results if r.outcome}
        missing = self.wl.outcomes - seen
        if missing:
            self.fail(f"cache outcomes never seen: {sorted(missing)}")
        if self.wl.only_outcomes and not seen <= self.wl.only_outcomes:
            self.fail(f"unexpected cache outcomes: {sorted(seen - self.wl.only_outcomes)}")


def _median(values) -> float:
    return float(statistics.median(values))


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics, plus the ones only printed."""
    setups: list[float] = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S:
        setups.append(bench.setup())
    passes, walls = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        results, wall = bench.run_pass(traced=False)
        passes.append(results)
        walls.append(wall)
    cmds = [r for results in passes for r in results]
    metrics = {
        "setup_s": (_median(setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "cmd_p50_s": (statistics.fmean(_median(r.wall_s for r in results)
                                       for results in passes), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in cmds), "MB"),
    }
    printed = {
        "cache_bytes": (dir_bytes(ROOT / workloads.CACHE_DIR), "bytes"),
        "fail_frac": (bench.failed / bench.attempted, "ratio"),
        "setups": (len(setups), "count"),
        "passes": (len(passes), "count"),
        "commands": (len(cmds), "count"),
    }
    return metrics, printed


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from traced passes, untraced between."""
    bench.setup()
    plain, traced, per_pass, reference_digests = [], [], [], None
    last_commands: list = []
    last_wall = 0.0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        results, wall = bench.run_pass(traced=False)
        plain.append(wall)
        digests = [hashlib.sha256(r.stdout).hexdigest() for r in results]
        reference_digests = reference_digests or digests
        results, wall = bench.run_pass(traced=True)
        traced.append(wall)
        for i, (r, want) in enumerate(zip(results, reference_digests)):
            if hashlib.sha256(r.stdout).hexdigest() != want:
                bench.fail(f"traced command {i} printed other output")
        commands = [layers.Command(json.loads(r.trace_file.read_text()))
                    for r in results]
        for i, (r, cmd) in enumerate(zip(results, commands)):
            if r.outcome is not None and r.outcome != cmd.outcome():
                bench.fail(f"traced command {i}: cache outcome {cmd.outcome()} "
                           f"from spans, {r.outcome} from the cache file")
        per_pass.append(layers.pass_metrics(
            commands, sum(len(r.stdout) for r in results),
            [r.step.cached for r in results],
            dir_bytes(ROOT / workloads.CACHE_DIR)))
        last_commands, last_wall = commands, wall
    metrics = {name: (_median(p[name] for p in per_pass), unit)
               for name, unit in layers.PER_LAYER.items()
               if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (_median(traced) / _median(plain) - 1, "ratio")
    printed = {f"claim: {text}": ("met" if ok else "NOT MET", "")
               for text, ok in layers.claims(bench.wl.name, last_commands, last_wall)}
    printed["traced_passes"] = (len(traced), "count")
    printed["fail_frac"] = (bench.failed / bench.attempted, "ratio")
    return metrics, printed


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context(args, wl: workloads.Workload) -> dict:
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv_sha256": wl.argv_digest(),
        "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "commit": _commit(), "sizes": wl.sizes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ulamkit" / "cli.py").is_file():
        print(f"error: no ulamkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, Reference(), args.seed)
    bench = Bench(wl)
    try:
        if args.trace:
            metrics, printed = measure_traced(bench, args.seconds)
        else:
            metrics, printed = measure(bench, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("context " + json.dumps(context(args, wl), sort_keys=True))
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name:<28} {value} {unit}".rstrip())
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": min(bench.failed, bench.attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
