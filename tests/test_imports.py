"""The package loads each layer on first use.

`ulamkit` registers its layers as lazy modules, so a command runs only the
layers it touches. These tests pin that in fresh interpreters, where no
earlier test has loaded anything, and check that the public names resolve
to the same objects as before.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulamkit

SRC = str(Path(ulamkit.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

# The package-level names, as the package exported them when every layer
# was imported eagerly, less APDecomposition, ap_member and
# ap_to_pattern_code, which a pattern code and in_pattern replace, and the
# modules that define them.
HOMES = {
    "cache": ["PrefixStore", "cache_read", "cache_write", "count_upto",
              "decode_prefix", "encode_prefix", "generate_count", "is_member",
              "nth_term"],
    "engine": ["MAX_HORIZON_DEFAULT", "UlamParams", "UlamPrefix", "extend",
               "generate_to_horizon", "rep_count_exact", "validate_params"],
    "mining": ["mine"],
    "patterns": ["Applicability", "PatternCode", "PatternComponent", "code_id",
                 "decode", "encode", "in_pattern", "pattern_set"],
    "progressions": ["ap_decomposition", "to_presburger_text"],
    "regularity": ["PeriodicityCandidate", "density_inequality_check",
                   "detect_period", "empirical_density", "evens_census", "gaps",
                   "hierarchy_report", "residue_census"],
    "rigidity": ["SegmentReport", "family_sweep", "search_threshold",
                 "verify_segment"],
}
ANALYSIS_LAYERS = ["mining", "patterns", "progressions", "regularity",
                   "rigidity"]
HEAVY_STDLIB = ["concurrent.futures", "csv", "dataclasses", "fractions",
                "hashlib"]

# Runs `ulamkit.cli` as `python -m` does, then records, for the modules the
# command added to sys.modules, whether each one's body has run. A lazy
# module keeps the type `importlib.util._LazyModule` until its first
# attribute access; `type()` reads it without triggering that access.
PROBE = """
import importlib.util, json, runpy, sys
out = sys.argv.pop(1)
before = set(sys.modules)
try:
    runpy.run_module("ulamkit.cli", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w") as fh:
        json.dump({name: type(mod) is not importlib.util._LazyModule
                   for name, mod in list(sys.modules.items())
                   if name not in before}, fh)
"""


def probe(tmp_path, *argv):
    """Run one command in a fresh interpreter: (process, {module: loaded})."""
    out = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *argv],
                          capture_output=True, text=True, timeout=60, env=ENV)
    return proc, json.loads(out.read_text())


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "ulamkit.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=ENV)


class TestStartup:
    def test_member_loads_only_its_layers(self, tmp_path):
        proc, loaded = probe(tmp_path, "member", "--a", "1", "--b", "2",
                             "--m", "26")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")
        for layer in ("engine", "cache", "errors", "fsutil"):
            assert loaded[f"ulamkit.{layer}"] is True
        for layer in ANALYSIS_LAYERS:
            assert loaded[f"ulamkit.{layer}"] is False
        assert [m for m in HEAVY_STDLIB if m in loaded] == []

    def test_version_loads_no_analysis_layer(self, tmp_path):
        proc, loaded = probe(tmp_path, "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, f"ulam {ulamkit.__version__}\n", "")
        for layer in ANALYSIS_LAYERS:
            assert loaded[f"ulamkit.{layer}"] is False
        assert [m for m in HEAVY_STDLIB if m in loaded] == []

    def test_analysis_command_loads_its_layer(self, tmp_path):
        # the positive control: a lazy layer does run once a command uses it
        proc, loaded = probe(tmp_path, "detect-period", "--a", "2", "--b", "5",
                             "--horizon", "500")
        assert proc.returncode == 0 and proc.stderr == ""
        assert loaded["ulamkit.regularity"] is True
        assert loaded["ulamkit.mining"] is False

    def test_module_entry_point_is_silent(self):
        # runpy warns on stderr when `ulamkit.cli` is in sys.modules before
        # it runs, which a lazily registered cli module would cause
        for argv, want in ((["--version"], f"ulam {ulamkit.__version__}\n"),
                           (["member", "--a", "1", "--b", "2", "--m", "5"],
                            "false\n")):
            proc = run_module(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


# Commands served from a cached prefix, by a hit or a restrict.
CODE_25 = json.dumps({"components": [{"A1": 0, "A2": 0, "B1": 0, "B2": 0,
                                      "p": 2, "q": 2, "L": 1, "S": [0],
                                      "unbounded": False}],
                      "applicability": None})
CACHED_COMMANDS = {
    "version": ["--version"],
    "cache-info": ["cache", "info"],
    "member": ["member", "--a", "1", "--b", "2", "--m", "1000"],
    "count": ["count", "--a", "1", "--b", "2", "--n", "3000"],
    "nth": ["nth", "--a", "1", "--b", "2", "--k", "100"],
    "density": ["density", "--a", "1", "--b", "2", "--n", "2500"],
    "gaps": ["gaps", "--a", "2", "--b", "5", "--horizon", "2000"],
    "census": ["census", "--a", "1", "--b", "2", "--horizon", "3000",
               "--modulus", "4"],
    "detect-period": ["detect-period", "--a", "2", "--b", "5",
                      "--horizon", "3000"],
    "export-ap": ["export-ap", "--a", "2", "--b", "5", "--horizon", "3000"],
    "export-presburger": ["export-presburger", "--a", "2", "--b", "5",
                          "--horizon", "3000"],
    "density-check": ["density-check", "--a", "1", "--b", "2", "--q", "1/13",
                      "--k", "30", "--n-max", "2900"],
    "verify-pattern": ["verify-pattern", "--a", "2", "--b", "5", "--code",
                       CODE_25, "--lo", "1", "--hi", "2000"],
}
# The commands above whose analysis uses no pattern code.
PATTERN_FREE_COMMANDS = {"detect-period", "gaps", "census", "density-check",
                         "density"}
# What `dataclasses` imports; the records are slotted classes instead.
DATACLASS_MODULES = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cache")
    for pair in (("1", "2"), ("2", "5")):
        proc = run_module("generate", "--a", pair[0], "--b", pair[1],
                          "--horizon", "3000", "--cache-dir", str(directory))
        assert proc.returncode == 0 and proc.stderr == ""
    return directory


class TestNumpyOnlyToSieve:
    """Only the byte kernel imports numpy: a command served from the cache
    never loads it, nor does a sieve or an extension up to the bit-plane
    threshold; one above it does. No command loads `dataclasses`, and the
    analysis commands that use no pattern code leave the pattern layers
    unloaded."""

    @pytest.mark.parametrize("name", sorted(CACHED_COMMANDS))
    def test_cached_command_skips_numpy(self, tmp_path, cache_dir, name):
        before = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        proc, loaded = probe(tmp_path, *CACHED_COMMANDS[name],
                             "--cache-dir", str(cache_dir))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout
        assert "numpy" not in loaded
        assert DATACLASS_MODULES.isdisjoint(loaded)
        if name in PATTERN_FREE_COMMANDS:
            assert loaded["ulamkit.regularity"] is True
            assert loaded["ulamkit.patterns"] is False
            assert loaded["ulamkit.rigidity"] is False
        # served without writing: the cache is as the fixture left it
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == before

    def test_one_numpy_import_in_the_source(self):
        # numpy's only import statement in the package is in the byte kernel
        found = []
        for path in sorted(Path(SRC, "ulamkit").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owners = {id(node): fn.name for fn in ast.walk(tree)
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for node in ast.walk(fn)}
            for node in ast.walk(tree):
                names = ([alias.name for alias in node.names]
                         if isinstance(node, ast.Import)
                         else [node.module or ""]
                         if isinstance(node, ast.ImportFrom) else [])
                if any(n.split(".")[0] == "numpy" for n in names):
                    found.append((path.name, owners.get(id(node))))
        assert found == [("engine.py", "_byte_sieve")]

    def miss(self, tmp_path, horizon):
        proc, loaded = probe(tmp_path, "generate", "--a", "1", "--b", "2",
                             "--horizon", str(horizon), "--cache-dir",
                             str(tmp_path / "empty"))
        assert proc.returncode == 0 and proc.stderr == ""
        assert (tmp_path / "empty" / "u1_2.ulam").exists()
        return loaded

    def test_miss_at_the_threshold_skips_numpy(self, tmp_path):
        # the bit planes sieve on the standard library
        loaded = self.miss(tmp_path, ulamkit.engine._BITS_MAX_HORIZON)
        assert "numpy" not in loaded
        assert "dataclasses" not in loaded

    def test_miss_above_the_threshold_loads_numpy(self, tmp_path):
        big = ulamkit.engine._BITS_MAX_HORIZON + 1
        loaded = self.miss(tmp_path, big)
        assert loaded["numpy"] is True
        # the file the byte kernel wrote is then served without numpy
        for argv in (("member", "--m", str(big)),
                     ("detect-period", "--horizon", str(big))):
            proc, loaded = probe(tmp_path, *argv, "--a", "1", "--b", "2",
                                 "--cache-dir", str(tmp_path / "empty"))
            assert proc.returncode == 0 and proc.stderr == ""
            assert "numpy" not in loaded
            assert DATACLASS_MODULES.isdisjoint(loaded)

    def extend(self, tmp_path, horizon):
        """Cache U(1,2) to half the threshold, then probe a member query
        that extends the cached prefix to horizon."""
        cache = tmp_path / "cache"
        start = run_module("generate", "--a", "1", "--b", "2", "--horizon",
                           str(ulamkit.engine._BITS_MAX_HORIZON // 2),
                           "--cache-dir", str(cache))
        assert start.returncode == 0 and start.stderr == ""
        proc, loaded = probe(tmp_path, "member", "--a", "1", "--b", "2",
                             "--m", str(horizon), "--cache-dir", str(cache))
        assert proc.returncode == 0 and proc.stderr == ""
        assert ulamkit.cache_read(cache / "u1_2.ulam").horizon == horizon
        return loaded

    def test_extend_to_the_threshold_skips_numpy(self, tmp_path):
        loaded = self.extend(tmp_path, ulamkit.engine._BITS_MAX_HORIZON)
        assert "numpy" not in loaded

    def test_extend_above_the_threshold_loads_numpy(self, tmp_path):
        loaded = self.extend(tmp_path, ulamkit.engine._BITS_MAX_HORIZON + 1)
        assert loaded["numpy"] is True

    def test_nth_on_a_cached_prefix_skips_numpy(self, tmp_path):
        # the benchmark's count query: from a U(1,2) prefix cached to
        # 180,000, the 22,000th term lies below the threshold, and the
        # extension stops there instead of doubling past it
        cache = tmp_path / "cache"
        start = run_module("generate", "--a", "1", "--b", "2", "--horizon",
                           "180000", "--cache-dir", str(cache))
        assert start.returncode == 0 and start.stderr == ""
        proc, loaded = probe(tmp_path, "nth", "--a", "1", "--b", "2",
                             "--k", "22000", "--cache-dir", str(cache))
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "295318\n"
        horizon = ulamkit.cache_read(cache / "u1_2.ulam").horizon
        assert 295_318 <= horizon <= ulamkit.engine._BITS_MAX_HORIZON
        assert "numpy" not in loaded


# The benchmark's family sweep: U(1, n) checked on [1, 30n - 1], mined from
# n = 6, 7, 8, verified near n = 1000 and swept up to n = 161.
FAMILY_SEGMENTS = ["--seg-c", "30", "--seg-d", "-1"]
MINE_ARGV = ["mine", "--modulus", "1", "--residue", "0", "--samples",
             "6,7,8", *FAMILY_SEGMENTS, "--format", "json"]


@pytest.fixture(scope="module")
def mined_code():
    proc = run_module(*MINE_ARGV)
    assert proc.returncode == 0 and proc.stderr == ""
    return json.dumps(json.loads(proc.stdout)["code"])


@pytest.mark.parametrize("command", ["mine", "verify-pattern", "sweep"])
def test_family_sweep_commands_skip_numpy(tmp_path, mined_code, command):
    argv = {
        "mine": MINE_ARGV,
        "verify-pattern": ["verify-pattern", "--a", "1", "--b", "1005",
                           "--code", mined_code, "--lo", "1",
                           "--hi", str(30 * 1005 - 1)],
        "sweep": ["sweep", "--code", mined_code, "--modulus", "1",
                  "--residue", "0", "--n-from", "155", "--n-to", "161",
                  *FAMILY_SEGMENTS],
    }[command]
    proc, loaded = probe(tmp_path, *argv)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert 30 * 1005 - 1 <= ulamkit.engine._BITS_MAX_HORIZON
    assert "numpy" not in loaded
    assert DATACLASS_MODULES.isdisjoint(loaded)


SWEEP_ARGV = ["sweep", "--code", json.dumps({
    "components": [{"A1": 0, "A2": 4, "B1": 0, "B2": 5, "p": 2, "q": -1,
                    "L": 1, "S": [0], "unbounded": False}],
    "applicability": None}),
    "--modulus", "1", "--residue", "0", "--n-from", "1", "--n-to", "40",
    "--seg-c", "5", "--seg-d", "-1", "--format", "json"]


def test_sweep_starts_no_thread_pool(tmp_path):
    proc, loaded = probe(tmp_path, *SWEEP_ARGV, "--threads", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    assert loaded["ulamkit.rigidity"] is True
    assert "concurrent.futures" not in loaded


def test_sweep_threads_match_in_fresh_process():
    # --threads is accepted for compatibility and changes nothing
    one = run_module(*SWEEP_ARGV, "--threads", "1")
    two = run_module(*SWEEP_ARGV, "--threads", "2")
    assert one.returncode == 0 and one.stderr == ""
    assert len(json.loads(one.stdout)["entries"]) == 40
    assert (two.returncode, two.stdout, two.stderr) == (
        one.returncode, one.stdout, one.stderr)


def test_writes_never_touch_the_umask(tmp_path):
    # os.umask sets the umask of the whole process while it runs, so a
    # file another thread makes meanwhile would get none; here a call
    # to it fails the command, which writes a report and a cache file
    script = ("import os, sys\n"
              "def umask(mask):\n"
              "    raise AssertionError('os.umask called')\n"
              "os.umask = umask\n"
              "from ulamkit.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    report, cache = tmp_path / "report.txt", tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--a", "1", "--b", "2",
         "--horizon", "10", "--out", str(report), "--cache-dir",
         str(cache)], capture_output=True, text=True, timeout=60, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert report.read_text().split() == ["1", "2", "3", "4", "6", "8"]
    assert ulamkit.cache.cache_read(cache / "u1_2.ulam").horizon == 10


def imports_of(path):
    """(line, module, names, under `if TYPE_CHECKING:`) of every import
    statement in a source file, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    guarded = {id(node) for branch in ast.walk(tree)
               if isinstance(branch, ast.If)
               and "TYPE_CHECKING" in ast.unparse(branch.test)
               for stmt in branch.body for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.append((node.lineno, node.module or "",
                          [alias.name for alias in node.names],
                          id(node) in guarded))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, [], id(node) in guarded)
                      for alias in node.names]
    return sorted(found)


class TestLayering:
    """The engine sits below the cache; the store's type is imported, not
    hidden behind TYPE_CHECKING."""

    def test_engine_imports_nothing_from_cache(self):
        found = imports_of(Path(SRC, "ulamkit", "engine.py"))
        assert found  # the positive control
        assert [entry for entry in found if entry[1].split(".")[-1] == "cache"
                or "cache" in entry[2]] == []

    def test_no_type_checking_import_of_the_store(self):
        assert [(path.name, line)
                for path in sorted(Path(SRC, "ulamkit").glob("*.py"))
                for line, _, names, guarded in imports_of(path)
                if guarded and "PrefixStore" in names] == []

    def test_scan_sees_each_spelling(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("from typing import TYPE_CHECKING\n"
                         "if TYPE_CHECKING:\n"
                         "    from .cache import PrefixStore\n"
                         "def f():\n"
                         "    from . import cache\n"
                         "    import ulamkit.cache\n")
        assert imports_of(probe) == [
            (1, "typing", ["TYPE_CHECKING"], False),
            (3, "cache", ["PrefixStore"], True),
            (5, "", ["cache"], False),
            (6, "ulamkit.cache", [], False)]


class TestPublicNames:
    def test_all_is_unchanged(self):
        names = [n for names in HOMES.values() for n in names]
        assert len(names) == 39
        assert set(ulamkit.__all__) == set(names)
        assert len(ulamkit.__all__) == len(names)

    def test_names_are_their_home_objects(self):
        for home, names in HOMES.items():
            module = getattr(ulamkit, home)
            for name in names:
                assert getattr(ulamkit, name) is getattr(module, name), name

    def test_star_import(self):
        namespace = {}
        exec("from ulamkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(ulamkit.__all__)
        assert namespace["detect_period"] is ulamkit.regularity.detect_period

    def test_dir_lists_names_and_layers(self):
        listed = dir(ulamkit)
        assert set(ulamkit.__all__) <= set(listed)
        assert {"engine", "regularity", "__version__"} <= set(listed)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ulamkit.no_such_name
