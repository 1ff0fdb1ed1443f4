"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root:  python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ref():
    return Reference()


def _result(step, stdout: str, code: int = 0, stderr: str = "") -> run.Result:
    return run.Result(step, code, stdout.encode(), stderr.encode(), 0.1, 30.0)


def test_reference_matches_naive_oracle(ref):
    sys.path.insert(0, str(ROOT))
    from tests.oracles import naive_ulam
    for (a, b), horizon in workloads.REFERENCE_HORIZONS.items():
        assert ref.horizon(a, b) == horizon
        assert ref.upto(a, b, 1500) == naive_ulam(a, b, 1500)


def test_checker_flags_mutated_output(ref):
    count = workloads.build("cache-growth", ref, 3).steps[1]
    n = int(count.argv[count.argv.index("--n") + 1])
    right = str(ref.count(1, 2, n))
    assert run.problems(_result(count, right + "\n")) == []
    assert run.problems(_result(count, str(int(right) + 1) + "\n"))
    assert run.problems(_result(count, right + "\n", code=2))

    gaps = next(s for s in workloads.build("warm-analysis", ref, 3).steps
                if s.argv[0] == "gaps")
    h = int(gaps.argv[gaps.argv.index("--horizon") + 1])
    terms = ref.upto(2, 5, h)
    g = [y - x for x, y in zip(terms, terms[1:])]
    obj = {"a": 2, "b": 5, "horizon": h, "gap_count": len(g), "gaps": g}
    assert run.problems(_result(gaps, json.dumps(obj))) == []
    obj["gaps"] = g[:-1] + [g[-1] + 1]
    assert run.problems(_result(gaps, json.dumps(obj)))
    assert run.problems(_result(gaps, "not json"))


def test_corrupt_step_needs_a_warning(ref):
    wl = workloads.build("cache-growth", ref, 3)
    step = next(s for s in wl.steps if s.corrupt_first)
    n = int(step.argv[step.argv.index("--n") + 1])
    out = f"{ref.count(1, 3, n)}\n"
    assert run.problems(_result(step, out, stderr="warning: ignoring cache")) == []
    assert run.problems(_result(step, out)) == ["no warning on stderr"]


def test_cache_outcomes_from_file_state():
    step = workloads.Step(["count"], lambda out: None, (1, 2), 500, cached=True)
    small, grown = (b"a", 500), (b"b", 900)
    assert run.classify(step, None, small, False) == "miss"
    assert run.classify(step, small, grown, False) == "extend"
    assert run.classify(step, small, small, False) == "hit"
    assert run.classify(step, grown, grown, False) == "restrict"
    assert run.classify(step, grown, small, True) == "corrupt"
    assert run.classify(step, grown, grown, True) == "corrupt-trusted"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_argv_is_deterministic(ref, name):
    first, again = (workloads.build(name, ref, 11) for _ in range(2))
    assert [s.argv for s in first.setup + first.steps] == \
        [s.argv for s in again.setup + again.steps]
    assert first.argv_digest() == again.argv_digest()
    assert workloads.build(name, ref, 12).argv_digest() != first.argv_digest()


def test_benchmark_json_names_what_the_driver_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "cmd_p50_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_traced_and_untraced_runs_print_the_same(ref):
    """A traced pass must print byte for byte what an untraced pass prints."""
    bench = run.Bench(workloads.build("cache-growth", ref, 5))
    try:
        metrics, _ = run.measure_traced(bench, seconds=0)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    assert bench.failures == []
    for outcome in layers.OUTCOMES:
        assert metrics[f"cache.{outcome}"][0] >= 1
