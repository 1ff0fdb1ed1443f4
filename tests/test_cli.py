import json
import os
import stat
import struct
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import ulamkit
from oracles import naive_ulam
from ulamkit import cli
from ulamkit.cache import cache_read
from ulamkit.cli import main
from ulamkit.engine import generate_to_horizon, validate_params
from ulamkit.errors import InvalidParameters
from ulamkit.patterns import decode
from ulamkit.progressions import ap_decomposition
from ulamkit.regularity import (PeriodicityCandidate, density_inequality_check,
                                detect_period, empirical_density, gaps,
                                hierarchy_report, residue_census)

U12 = [1, 2, 3, 4, 6, 8, 11, 13, 16, 18, 26, 28]

BLOCK_CODE = json.dumps({
    "components": [{"A1": 0, "A2": 4, "B1": 0, "B2": 5, "p": 2, "q": -1,
                    "L": 1, "S": [0], "unbounded": False}],
    "applicability": {"modulus": 1, "residue": 0},
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestBasicCommands:
    def test_generate_listed_prefix(self, capsys):
        code, out, _ = run(capsys, "generate", "--a", "1", "--b", "2",
                           "--horizon", "28")
        assert code == 0
        assert [int(line) for line in out.split()] == U12

    def test_generate_count(self, capsys):
        code, obj = run_json(capsys, "generate", "--a", "1", "--b", "2",
                             "--count", "5")
        assert code == 0
        assert obj["terms"] == [1, 2, 3, 4, 6]
        assert obj["horizon"] == 6

    def test_generate_csv(self, capsys):
        code, out, _ = run(capsys, "generate", "--a", "1", "--b", "2",
                           "--horizon", "8", "--format", "csv")
        assert out.splitlines() == ["index,term", "1,1", "2,2", "3,3",
                                    "4,4", "5,6", "6,8"]

    def test_member(self, capsys):
        assert run(capsys, "member", "--a", "1", "--b", "2", "--m", "5") \
            == (0, "false\n", "")
        assert run(capsys, "member", "--a", "1", "--b", "2", "--m", "26") \
            == (0, "true\n", "")

    def test_nth(self, capsys):
        code, out, _ = run(capsys, "nth", "--a", "1", "--b", "2", "--k", "12")
        assert (code, out) == (0, "28\n")

    def test_count(self, capsys):
        code, obj = run_json(capsys, "count", "--a", "1", "--b", "2",
                             "--n", "28")
        assert obj["count"] == 12
        code, obj = run_json(capsys, "count", "--a", "3", "--b", "4",
                             "--n", "2")
        assert obj["count"] == 0

    def test_gaps(self, capsys):
        code, obj = run_json(capsys, "gaps", "--a", "1", "--b", "2",
                             "--horizon", "28")
        assert obj["gaps"] == [1, 1, 1, 2, 2, 3, 2, 3, 2, 8, 2]


class TestAnalysisCommands:
    def test_detect_period_regular_pair(self, capsys):
        code, obj = run_json(capsys, "detect-period", "--a", "2", "--b", "5",
                             "--horizon", "2000")
        assert code == 0
        cand = obj["candidate"]
        assert (cand["N"], cand["p"], cand["G"]) == (6, 32, 126)

    def test_detect_period_none_found(self, capsys):
        code, obj = run_json(capsys, "detect-period", "--a", "1", "--b", "2",
                             "--horizon", "2000")
        assert code == 0 and obj["candidate"] is None

    def test_detect_period_expect_agree(self, capsys):
        code, _, _ = run(capsys, "detect-period", "--a", "1", "--b", "2",
                         "--horizon", "2000", "--expect-agree")
        assert code == 1

    def test_density(self, capsys):
        code, obj = run_json(capsys, "density", "--a", "1", "--b", "2",
                             "--n", "10000")
        assert code == 0
        assert obj["count"] == 827
        assert obj["ratio_fraction"] == "827/10001"

    def test_density_check_holds(self, capsys):
        code, obj = run_json(capsys, "density-check", "--a", "1", "--b", "2",
                             "--q", "1/2", "--k", "10", "--n-max", "1000",
                             "--expect-agree")
        assert code == 0 and obj["holds"] is True

    def test_density_check_violation(self, capsys):
        code, obj = run_json(capsys, "density-check", "--a", "1", "--b", "2",
                             "--q", "0", "--k", "5", "--n-max", "100")
        assert code == 0
        assert obj["holds"] is False and obj["first_violation"] == 1

    def test_density_check_violation_expect_agree(self, capsys):
        code, _, _ = run(capsys, "density-check", "--a", "1", "--b", "2",
                         "--q", "0", "--k", "5", "--n-max", "100",
                         "--expect-agree")
        assert code == 1

    def test_density_check_reads_only_its_scan(self, capsys, tmp_path):
        # k = 20 and q = 1/13 bound the scan by n <= 17, so an n_max far
        # past the resource limit is answered from a prefix to 17
        code, out, err = run(capsys, "density-check", "--a", "1", "--b", "2",
                             "--q", "1/13", "--k", "20",
                             "--n-max", str(10**12),
                             "--cache-dir", str(tmp_path))
        assert (code, out, err) == (0, "violated at n=1\n", "")
        assert cache_read(tmp_path / "u1_2.ulam").horizon <= 17

    def test_census_all_residues(self, capsys):
        code, obj = run_json(capsys, "census", "--a", "2", "--b", "5",
                             "--horizon", "3000", "--modulus", "2")
        assert [r["residue"] for r in obj["rows"]] == [0, 1]
        evens = obj["rows"][0]
        assert (evens["count"], evens["largest"], evens["tail_from"]) \
            == (2, 12, 13)

    def test_census_single_residue(self, capsys):
        code, obj = run_json(capsys, "census", "--a", "2", "--b", "5",
                             "--horizon", "3000", "--modulus", "2",
                             "--residue", "0")
        assert len(obj["rows"]) == 1 and obj["rows"][0]["residue"] == 0

    def test_census_rows_are_per_class_censuses(self, capsys):
        prefix = generate_to_horizon(validate_params(1, 2), 3000)
        censuses = [residue_census(prefix, 7, r) for r in range(7)]
        argv = ("census", "--a", "1", "--b", "2", "--horizon", "3000",
                "--modulus", "7")
        code, obj = run_json(capsys, *argv)
        assert code == 0
        assert obj["rows"] == [
            {"residue": r, "count": c.count, "largest": c.largest,
             "tail_from": c.tail_from} for r, c in enumerate(censuses)]
        text = "".join(
            f"residue {r}: count={c.count} largest={c.largest} "
            + (f"(none beyond {c.tail_from - 1})\n" if c.tail_from
               else "(recurring)\n")
            for r, c in enumerate(censuses))
        assert run(capsys, *argv) == (0, text, "")

    def test_census_empty_class_has_no_terms(self, capsys):
        # tail_from 0 marks a class with no term in the prefix
        argv = ("census", "--a", "1", "--b", "2", "--horizon", "30",
                "--modulus", "50", "--residue", "40")
        _, obj = run_json(capsys, *argv)
        assert obj["rows"] == [{"residue": 40, "count": 0, "largest": None,
                                "tail_from": 0}]
        assert run(capsys, *argv) == (
            0, "residue 40: count=0 largest=None (none)\n", "")


class TestPatternCommands:
    def test_verify_agrees(self, capsys):
        code, obj = run_json(capsys, "verify-pattern", "--a", "1", "--b", "10",
                             "--code", BLOCK_CODE, "--lo", "42", "--hi", "49")
        assert code == 0
        assert obj["agrees"] is True and obj["matched_count"] == 8

    def test_verify_mismatch_exit(self, capsys):
        code, obj = run_json(capsys, "verify-pattern", "--a", "1", "--b", "10",
                             "--code", BLOCK_CODE, "--lo", "40", "--hi", "49",
                             "--expect-agree")
        assert code == 1
        assert obj["first_mismatch"]["m"] == 40

    def test_verify_mismatch_below_a_reads_no_prefix(self, capsys, tmp_path):
        # the code's one point, 5, lies below a = 1000: it is the first
        # mismatch, found without the sieve to --hi past the resource limit
        point = json.dumps({"components": [
            {"A1": 0, "A2": 0, "B1": 0, "B2": 0, "p": 5, "q": 5, "L": 1,
             "S": [0], "unbounded": False}]})
        code, out, err = run(capsys, "verify-pattern", "--a", "1000",
                             "--b", "1001", "--code", point, "--lo", "1",
                             "--hi", str(10**8), "--cache-dir", str(tmp_path))
        assert (code, out, err) == (
            0, "mismatch at 5 (in-pattern-not-ulam); "
               "4 positions agreed before it\n", "")
        assert list(tmp_path.iterdir()) == []

    def test_code_from_file(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(BLOCK_CODE)
        code, obj = run_json(capsys, "verify-pattern", "--a", "1", "--b", "10",
                             "--code", f"@{path}", "--lo", "42", "--hi", "49")
        assert code == 0 and obj["agrees"] is True

    def test_applicability_is_operational(self, capsys):
        narrow = json.loads(BLOCK_CODE)
        narrow["applicability"] = {"modulus": 2, "residue": 0}
        code, _, err = run(capsys, "verify-pattern", "--a", "1", "--b", "9",
                           "--code", json.dumps(narrow),
                           "--lo", "38", "--hi", "44")
        assert code == 2 and "mod 2" in err

    def test_sweep_full_code(self, capsys, tmp_path):
        mined_code, obj = run_json(capsys, "mine", "--modulus", "1",
                                   "--residue", "0", "--samples", "4,5,6",
                                   "--seg-c", "5", "--seg-d", "-1")
        assert mined_code == 0
        code_text = json.dumps(obj["code"])
        jsonl = tmp_path / "sweep.jsonl"
        code, out, _ = run(capsys, "sweep", "--code", code_text,
                           "--modulus", "1", "--residue", "0",
                           "--n-from", "4", "--n-to", "12",
                           "--seg-c", "5", "--seg-d", "-1",
                           "--expect-agree",
                           "--report-jsonl", str(jsonl))
        assert code == 0
        assert out.count("agrees") == 9
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 9
        assert all(json.loads(line)["report"]["agrees"] for line in lines)

    def test_sweep_mismatch_expect_agree(self, capsys):
        code, _, _ = run(capsys, "sweep", "--code", BLOCK_CODE,
                         "--modulus", "1", "--residue", "0",
                         "--n-from", "4", "--n-to", "6",
                         "--seg-c", "5", "--seg-d", "-1", "--expect-agree")
        assert code == 1


def temporary_files(directory):
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


class TestReportFiles:
    """--out, --report-jsonl and mine --log render what stdout does."""

    SWEEP = ("sweep", "--code", BLOCK_CODE, "--modulus", "1", "--residue",
             "0", "--n-from", "1", "--n-to", "8", "--seg-c", "4",
             "--seg-d", "9")

    def test_out_csv_is_the_csv_table(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *self.SWEEP, "--format", "csv")
        assert code == 0
        assert run(capsys, *self.SWEEP, "--format", "csv",
                   "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode("utf-8")
        assert out.splitlines()[:2] == [
            "n,range_lo,range_hi,agrees,first_mismatch,error",
            '1,,,,,"need 1 <= a < b, got a=1, b=1"']
        assert temporary_files(tmp_path) == []

    def test_report_jsonl_lines_are_the_json_entries(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        code, obj = run_json(capsys, *self.SWEEP, "--report-jsonl", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == obj["entries"]
        assert all(line == json.dumps(json.loads(line), separators=(",", ":"))
                   for line in lines)
        assert len(lines) == 8
        assert temporary_files(tmp_path) == []

    @pytest.mark.parametrize("samples, code", [("4,5,6", 0), ("2,4,6", 1)])
    def test_mine_log_one_event_per_line(self, capsys, tmp_path, samples,
                                         code):
        # written on success and on a fit failure alike
        path = tmp_path / "mine.jsonl"
        assert run(capsys, "mine", "--modulus", "1", "--residue", "0",
                   "--samples", samples, "--seg-c", "5", "--seg-d", "-1",
                   "--log", str(path))[0] == code
        text = path.read_text()
        events = [json.loads(line) for line in text.splitlines()]
        assert text == "".join(json.dumps(e, separators=(",", ":")) + "\n"
                               for e in events)
        assert [e["event"] for e in events][:3] == ["sample"] * 3
        assert temporary_files(tmp_path) == []


class TestMineCommand:
    def test_explicit_samples(self, capsys):
        code, obj = run_json(capsys, "mine", "--modulus", "1", "--residue",
                             "0", "--samples", "4,5,6", "--seg-c", "5",
                             "--seg-d", "-1")
        assert code == 0
        mined = decode(json.dumps(obj["code"]))
        assert len(mined.components) == 5
        assert [r["agrees"] for r in obj["holdout"]] == [True, True]

    def test_sampled_deterministic(self, capsys):
        argv = ("mine", "--modulus", "1", "--residue", "0",
                "--n-from", "4", "--n-to", "30", "--sample-count", "4",
                "--seg-c", "5", "--seg-d", "-1", "--seed", "7")
        code1, obj1 = run_json(capsys, *argv)
        code2, obj2 = run_json(capsys, *argv)
        assert (code1, code2) == (0, 0)
        assert obj1 == obj2
        assert len(obj1["samples"]) == 4

    def test_alignment_failure_exit(self, capsys):
        code, _, err = run(capsys, "mine", "--modulus", "1", "--residue", "0",
                           "--samples", "2,4,6", "--seg-c", "5",
                           "--seg-d", "-1")
        assert code == 1 and "run counts differ" in err

    def test_log_file(self, capsys, tmp_path):
        log = tmp_path / "mine.jsonl"
        code, _, _ = run(capsys, "mine", "--modulus", "1", "--residue", "0",
                         "--samples", "4,5,6", "--seg-c", "5", "--seg-d",
                         "-1", "--log", str(log))
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["event"] for e in events] == [
            "sample", "sample", "sample", "fit", "verify", "verify"]

    def test_sampling_needs_all_range_flags(self, capsys):
        code, _, err = run(capsys, "mine", "--modulus", "1", "--residue", "0",
                           "--n-from", "4", "--seg-c", "5", "--seg-d", "-1")
        assert code == 2 and "sample" in err

    def test_sample_count_too_large(self, capsys):
        code, _, err = run(capsys, "mine", "--modulus", "1", "--residue", "0",
                           "--n-from", "4", "--n-to", "6",
                           "--sample-count", "9", "--seg-c", "5",
                           "--seg-d", "-1")
        assert code == 2 and "exceeds" in err


    @pytest.mark.parametrize("flags", [
        ("--samples", ","), ("--samples", " , ,"),
        ("--samples", "4,5,6", "--holdout", ","),
        ("--samples", "4,5,6", "--holdout", " , ,"),
    ])
    def test_list_without_integers_refused(self, capsys, flags):
        # an empty --holdout once verified nothing and exited 0
        assert run(capsys, "mine", "--modulus", "1", "--residue", "0", *flags,
                   "--seg-c", "5", "--seg-d", "-1", "--expect-agree") == (
            2, "", f"error: {flags[-2]} expects a comma-separated integer "
                   "list\n")

    @pytest.mark.parametrize("flags", [
        ("--samples", "4,5,6"),
        ("--n-from", "4", "--n-to", "9", "--sample-count", "3"),
    ])
    def test_bad_class_refused(self, capsys, flags):
        # the sampled form once reached `n % modulus` and died with a traceback
        assert run(capsys, "mine", "--modulus", "0", "--residue", "0", *flags,
                   "--seg-c", "5", "--seg-d", "-1") == (
            2, "", "error: modulus must be >= 1, got 0\n")


class TestExportCommands:
    def test_export_ap(self, capsys):
        code, obj = run_json(capsys, "export-ap", "--a", "2", "--b", "5",
                             "--horizon", "1500")
        assert code == 0
        assert obj["grade"] == "candidate"
        assert obj["initial_set"] == [2, 5, 7, 9, 11, 12]
        assert len(obj["progressions"]) == 32
        assert all(p["diff"] == 126 for p in obj["progressions"])
        assert obj["density"] == "16/63"

    def test_export_presburger(self, capsys):
        code, out, _ = run(capsys, "export-presburger", "--a", "2", "--b", "5",
                           "--horizon", "1500")
        assert code == 0
        assert out.startswith("x = 2 ∨ x = 5 ∨ ")
        assert "∃t (x = 13 + 126·t)" in out

    def test_export_without_periodicity(self, capsys):
        code, _, err = run(capsys, "export-ap", "--a", "1", "--b", "2",
                           "--horizon", "2000")
        assert code == 1 and "nothing to export" in err


class TestCacheIntegration:
    def test_roundtrip_and_extension(self, capsys, tmp_path):
        d = str(tmp_path / "cache")
        code, obj = run_json(capsys, "generate", "--a", "1", "--b", "2",
                             "--horizon", "1000", "--cache-dir", d)
        assert code == 0
        code, obj2 = run_json(capsys, "generate", "--a", "1", "--b", "2",
                              "--horizon", "5000", "--cache-dir", d)
        assert obj2["terms"][:len(obj["terms"])] == obj["terms"]
        code, info = run_json(capsys, "cache", "info", "--cache-dir", d)
        assert info["files"][0]["horizon"] == 5000
        # shrinking requests reuse the cache without rewriting it
        code, obj3 = run_json(capsys, "generate", "--a", "1", "--b", "2",
                              "--horizon", "1000", "--cache-dir", d)
        assert obj3["terms"] == obj["terms"]
        code, info = run_json(capsys, "cache", "info", "--cache-dir", d)
        assert info["files"][0]["horizon"] == 5000

    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ULAM_CACHE_DIR", str(tmp_path))
        run(capsys, "generate", "--a", "1", "--b", "2", "--horizon", "100")
        assert (tmp_path / "u1_2.ulam").exists()

    def test_corrupt_cache_regenerated(self, capsys, tmp_path):
        path = tmp_path / "u1_2.ulam"
        path.write_bytes(b"garbage")
        code, out, err = run(capsys, "generate", "--a", "1", "--b", "2",
                             "--horizon", "28", "--cache-dir", str(tmp_path))
        assert code == 0
        assert [int(line) for line in out.split()] == U12
        assert "ignoring cache" in err
        assert path.stat().st_size > 7  # rewritten with real content

    def test_cache_info_absent_pair(self, capsys, tmp_path):
        code, obj = run_json(capsys, "cache", "info", "--a", "3", "--b", "7",
                             "--cache-dir", str(tmp_path))
        assert code == 0 and obj["files"][0]["status"] == "absent"

    def test_cache_info_requires_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("ULAM_CACHE_DIR", raising=False)
        code, _, err = run(capsys, "cache", "info")
        assert code == 2 and "cache directory" in err

    def test_cache_info_needs_both_params(self, capsys, tmp_path):
        code, _, err = run(capsys, "cache", "info", "--a", "1",
                           "--cache-dir", str(tmp_path))
        assert code == 2

    def test_corrupt_file_reported(self, capsys, tmp_path):
        (tmp_path / "u3_5.ulam").write_bytes(b"\x00" * 64)
        code, obj = run_json(capsys, "cache", "info",
                             "--cache-dir", str(tmp_path))
        assert code == 0
        assert obj["files"][0]["status"] == "CorruptCache"

    def test_unreadable_entry_reported(self, capsys, tmp_path):
        # an entry that cannot be read gets its own row, as a corrupt file
        # does, and the listing goes on
        run(capsys, "generate", "--a", "2", "--b", "5", "--horizon", "100",
            "--cache-dir", str(tmp_path))
        (tmp_path / "u1_2.ulam").mkdir()
        code, obj = run_json(capsys, "cache", "info",
                             "--cache-dir", str(tmp_path))
        assert code == 0
        bad, good = obj["files"]
        assert bad["status"] == "IsADirectoryError"
        assert bad["error"].startswith("[Errno 21] Is a directory")
        assert good["status"] == "ok" and (good["a"], good["b"]) == (2, 5)


def out_of_range_cache(directory):
    """U(1,2) file with a valid checksum whose third term exceeds 2**62."""
    body = (b"ULAM1" + struct.pack("<4Q", 1, 2, 3, 99)
            + b"\x01\x01" + b"\xff" * 9 + b"\x01")
    path = directory / "u1_2.ulam"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


class TestCacheRobustness:
    def test_out_of_range_values_regenerated(self, capsys, tmp_path):
        path = out_of_range_cache(tmp_path)
        code, out, err = run(capsys, "member", "--a", "1", "--b", "2",
                             "--m", "50", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == f"{str(50 in naive_ulam(1, 2, 50)).lower()}\n"
        assert "ignoring cache" in err and "value limit" in err
        assert cache_read(path).horizon == 50

    def test_out_of_range_values_reported(self, capsys, tmp_path):
        out_of_range_cache(tmp_path)
        code, obj = run_json(capsys, "cache", "info",
                             "--cache-dir", str(tmp_path))
        assert code == 0
        assert obj["files"][0]["status"] == "CorruptCache"

    @pytest.mark.parametrize("command", [
        ("nth", "--a", "1", "--b", "2", "--k", "500"),
        ("generate", "--a", "1", "--b", "2", "--count", "500"),
    ])
    def test_horizon_cap_same_with_cache(self, capsys, tmp_path, monkeypatch,
                                         command):
        monkeypatch.setattr(cli, "MAX_HORIZON_DEFAULT", 1000)
        d = str(tmp_path)
        assert run(capsys, "generate", "--a", "1", "--b", "2",
                   "--horizon", "1000", "--cache-dir", d)[0] == 0
        without = run(capsys, *command)
        with_cache = run(capsys, *command, "--cache-dir", d)
        assert without == with_cache
        assert without == (2, "", "error: horizon 2000 exceeds resource "
                                  "limit 1000\n")


EVEN_B_CODE = BLOCK_CODE.replace('"modulus": 1', '"modulus": 2')


class TestCacheParity:
    """Errors and exit codes do not depend on --cache-dir."""

    def test_cap_keeps_partial_prefix(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_HORIZON_DEFAULT", 1000)
        d = tmp_path / "cache"
        command = ("nth", "--a", "1", "--b", "2", "--k", "500")
        without = run(capsys, *command)
        assert without == (2, "", "error: horizon 2000 exceeds resource "
                                  "limit 1000\n")
        assert run(capsys, *command, "--cache-dir", str(d)) == without
        kept = cache_read(d / "u1_2.ulam")
        assert kept.horizon == 1000
        assert kept.term_list() == naive_ulam(1, 2, 1000)

    @pytest.mark.parametrize("command", [
        ("member", "--a", "1", "--b", "2", "--m", "100"),
        ("nth", "--a", "1", "--b", "2", "--k", "40"),
        ("count", "--a", "1", "--b", "2", "--n", "300"),
    ])
    @pytest.mark.parametrize("layout", ["directory-at-file", "file-at-dir"])
    def test_unusable_cache_is_ignored(self, capsys, tmp_path, command,
                                       layout):
        # a cache file that cannot be read, or a cache directory that cannot
        # be made, is only warned about
        if layout == "directory-at-file":
            (tmp_path / "u1_2.ulam").mkdir()
            directory = tmp_path
        else:
            (tmp_path / "f").write_bytes(b"")
            directory = tmp_path / "f" / "sub"
        without = run(capsys, *command)
        code, out, err = run(capsys, *command, "--cache-dir", str(directory))
        assert without[0] == 0 and without[2] == ""
        assert (code, out) == without[:2]
        lines = err.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert temporary_files(tmp_path) == []

    def test_horizon_below_b(self, capsys, tmp_path):
        d = str(tmp_path)
        assert run(capsys, "gaps", "--a", "1", "--b", "5", "--horizon", "100",
                   "--cache-dir", d)[0] == 0
        command = ("gaps", "--a", "1", "--b", "5", "--horizon", "3")
        without = run(capsys, *command)
        assert without == (2, "", "error: horizon 3 below b=5\n")
        assert run(capsys, *command, "--cache-dir", d) == without

    def test_count_zero(self, capsys, tmp_path):
        d = str(tmp_path)
        assert run(capsys, "generate", "--a", "1", "--b", "2", "--horizon",
                   "100", "--cache-dir", d)[0] == 0
        command = ("generate", "--a", "1", "--b", "2", "--count", "0")
        without = run(capsys, *command)
        assert without == (2, "", "error: k must be positive, got 0\n")
        assert run(capsys, *command, "--cache-dir", d) == without

    @pytest.mark.parametrize("command, reason", [
        (("census", "--a", "2", "--b", "4", "--horizon", "100",
          "--modulus", "3"), "is not coprime"),
        (("verify-pattern", "--a", "1", "--b", "3", "--code", EVEN_B_CODE,
          "--lo", "1", "--hi", "40"), "code claims b ≡ 0 (mod 2), got b=3"),
    ])
    def test_refusal_writes_no_cache(self, capsys, tmp_path, command, reason):
        without = run(capsys, *command)
        assert without[:2] == (2, "") and reason in without[2]
        assert run(capsys, *command, "--cache-dir", str(tmp_path)) == without
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, want", [
        (("--k", "0"), (2, "", "error: k must be positive\n")),
        (("--k", "3", "--n-from", "-1"),
         (2, "", "error: N must be nonnegative\n")),
        (("--k", "3", "--n-from", "5000"),
         (0, "holds for all n in [5000, 1000]\n", "")),
    ])
    def test_density_check_refusal_writes_no_cache(self, capsys, tmp_path,
                                                   flags, want):
        # the scan is refused or empty before any prefix is built
        command = ("density-check", "--a", "1", "--b", "2", "--q", "1/2",
                   "--n-max", "1000", *flags)
        assert run(capsys, *command) == want
        assert run(capsys, *command, "--cache-dir", str(tmp_path)) == want
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, modulus, residue", [
        (("--modulus", "0"), 0, 0),
        (("--modulus", "-3"), -3, 0),
        (("--modulus", "3", "--residue", "3"), 3, 3),
    ])
    def test_census_class_checked_before_sieve(self, capsys, tmp_path, flags,
                                               modulus, residue):
        prefix = generate_to_horizon(validate_params(1, 2), 500)
        with pytest.raises(InvalidParameters) as exc:
            residue_census(prefix, modulus, residue)
        command = ("census", "--a", "1", "--b", "2", "--horizon", "500",
                   *flags)
        without = run(capsys, *command)
        assert without == (2, "", f"error: {exc.value}\n")
        assert run(capsys, *command, "--cache-dir", str(tmp_path)) == without
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("modulus, residue", [(0, 0), (-3, 0), (3, 3)])
    def test_sweep_class_checked_first(self, capsys, modulus, residue):
        # a modulus of 0 once reached `n % modulus` and died with a traceback
        prefix = generate_to_horizon(validate_params(1, 2), 50)
        with pytest.raises(InvalidParameters) as exc:
            residue_census(prefix, modulus, residue)
        assert run(capsys, "sweep", "--code", BLOCK_CODE,
                   "--modulus", str(modulus), "--residue", str(residue),
                   "--n-from", "3", "--n-to", "5",
                   "--seg-c", "1", "--seg-d", "0") == (
            2, "", f"error: {exc.value}\n")

    @pytest.mark.parametrize("command", ["detect-period", "export-ap",
                                         "export-presburger"])
    @pytest.mark.parametrize("flags, min_periods, min_coverage", [
        (("--min-periods", "1"), 1, Fraction(1, 2)),
        (("--min-coverage", "0"), 3, Fraction(0)),
    ])
    def test_period_options_checked_before_sieve(self, capsys, tmp_path,
                                                 command, flags, min_periods,
                                                 min_coverage):
        with pytest.raises(InvalidParameters) as exc:
            detect_period([1, 2, 3], min_periods, min_coverage)
        argv = (command, "--a", "2", "--b", "5", "--horizon", "500", *flags)
        without = run(capsys, *argv)
        assert without == (2, "", f"error: {exc.value}\n")
        assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == without
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def writes(monkeypatch):
    """Paths of the cache files written, in order."""
    log = []
    real = ulamkit.cache.cache_write

    def recording(prefix, path):
        log.append(Path(path).name)
        real(prefix, path)
    monkeypatch.setattr(ulamkit.cache, "cache_write", recording)
    return log


class TestFamilyCommandsUseCache:
    @pytest.mark.parametrize("command, files", [
        (("sweep", "--code", BLOCK_CODE, "--modulus", "1", "--residue", "0",
          "--n-from", "4", "--n-to", "9", "--seg-c", "5", "--seg-d", "-1"),
         range(4, 10)),
        (("mine", "--modulus", "1", "--residue", "0", "--samples", "4,5,6",
          "--seg-c", "5", "--seg-d", "-1"), range(4, 9)),
    ])
    def test_writes_then_reuses(self, capsys, tmp_path, writes, command,
                                files):
        want = [f"u1_{n}.ulam" for n in files]
        without = run(capsys, *command)
        assert without[0] == 0 and writes == []
        first = run(capsys, *command, "--cache-dir", str(tmp_path))
        assert sorted(writes) == sorted(want)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
        second = run(capsys, *command, "--cache-dir", str(tmp_path))
        assert len(writes) == len(want)
        assert first == second == without


class TestOutputFile:
    def test_out_is_atomic_and_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "density", "--a", "1", "--b", "2",
                           "--n", "1000", "--format", "json",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["count"] == 125
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_out_into_missing_directory_names_the_target(self, capsys,
                                                        tmp_path):
        # the message names the user's path, not the temporary file's
        target = tmp_path / "missing" / "x"
        assert run(capsys, "generate", "--a", "1", "--b", "2", "--horizon",
                   "10", "--out", str(target)) == (
            2, "", f"error: [Errno 2] No such file or directory: "
                   f"{str(target)!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_onto_a_directory_names_the_target(self, capsys, tmp_path):
        # the rename fails; its message names the user's path, the same in
        # every run, and the temporary file is gone
        target = tmp_path / "d"
        target.mkdir()
        assert run(capsys, "generate", "--a", "1", "--b", "2", "--horizon",
                   "10", "--out", str(target)) == (
            2, "", f"error: [Errno 21] Is a directory: {str(target)!r}\n")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        # a report, a JSON-lines report and a cache file get the mode that
        # open(path, "w") gives a new file; an existing file's mode is
        # replaced by it as well
        src = str(Path(ulamkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("ULAM_CACHE_DIR", None)
        (tmp_path / "rep.txt").write_text("old")
        os.chmod(tmp_path / "rep.txt", 0o600)
        for argv in (["generate", "--a", "1", "--b", "2", "--horizon", "10",
                      "--out", "rep.txt", "--cache-dir", "c"],
                     ["sweep", "--code", BLOCK_CODE, "--modulus", "1",
                      "--residue", "0", "--n-from", "4", "--n-to", "5",
                      "--seg-c", "5", "--seg-d", "-1",
                      "--report-jsonl", "rep.jsonl"]):
            proc = subprocess.run(
                [sys.executable, "-m", "ulamkit.cli", *argv],
                capture_output=True, text=True, timeout=60, env=env,
                cwd=tmp_path, preexec_fn=lambda: os.umask(umask))
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        written = [tmp_path / "rep.txt", tmp_path / "rep.jsonl",
                   tmp_path / "c" / "u1_2.ulam"]
        assert {p.name: oct(stat.S_IMODE(p.stat().st_mode))
                for p in written} == {p.name: oct(mode) for p in written}
        assert (tmp_path / "rep.txt").read_text().split() == ["1", "2", "3",
                                                              "4", "6", "8"]


class TestErrorMapping:
    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "generate", "--a", "5", "--b", "2",
                           "--horizon", "10")
        assert code == 2 and "error:" in err

    def test_bad_pattern_json(self, capsys):
        code, _, err = run(capsys, "verify-pattern", "--a", "1", "--b", "10",
                           "--code", "{not json", "--lo", "1", "--hi", "9")
        assert code == 2

    @pytest.mark.parametrize("command", [
        ("verify-pattern", "--a", "1", "--b", "2", "--lo", "1", "--hi", "10"),
        ("sweep", "--modulus", "1", "--residue", "0", "--n-from", "4",
         "--n-to", "5", "--seg-c", "5", "--seg-d", "-1")],
        ids=["verify-pattern", "sweep"])
    @pytest.mark.parametrize("data, message", [
        (b'{"components":\xff]}', "not UTF-8: byte 14"),
        (b"[" * 200_000, "nested too deeply"),
        (b'{"components":[{"A1":' + b"7" * 5000 + b',"A2":0,"B1":0,"B2":0,'
         b'"p":0,"q":0,"L":1,"S":[0],"unbounded":false}]}',
         "too many digits")], ids=["latin-1", "deep", "oversized-int"])
    def test_malformed_code_file(self, capsys, tmp_path, command, data,
                                 message):
        # exit 1 is a negative verdict; a code that does not parse is exit 2
        path = tmp_path / "code.json"
        path.write_bytes(data)
        code, out, err = run(capsys, *command, "--code", f"@{path}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_bad_fraction(self, capsys):
        code, _, err = run(capsys, "density-check", "--a", "1", "--b", "2",
                           "--q", "abc", "--k", "1", "--n-max", "10")
        assert code == 2 and "rational" in err

    def test_non_coprime_analysis_refused(self, capsys):
        code, _, err = run(capsys, "density", "--a", "2", "--b", "4",
                           "--n", "100")
        assert code == 2 and "coprime" in err
        # the CLI names its flag, not the library's keyword argument
        assert "--allow-non-coprime" in err and "allow_non_coprime" not in err
        for argv in (["density-check", "--q", "1/2", "--k", "3", "--n-max", "10"],
                     ["census", "--horizon", "10", "--modulus", "3"],
                     ["detect-period", "--horizon", "10"],
                     ["export-ap", "--horizon", "10"],
                     ["export-presburger", "--horizon", "10"]):
            code, _, err = run(capsys, argv[0], "--a", "2", "--b", "4",
                               *argv[1:])
            assert code == 2 and "pass --allow-non-coprime" in err, argv
        code, obj = run_json(capsys, "density", "--a", "2", "--b", "4",
                             "--n", "100", "--allow-non-coprime")
        assert code == 0

    @pytest.mark.parametrize("call", [
        lambda p, prefix, cand, allow: empirical_density(
            p, 100, allow_non_coprime=allow),
        lambda p, prefix, cand, allow: density_inequality_check(
            p, 1, 2, 3, 1, 10, allow_non_coprime=allow),
        lambda p, prefix, cand, allow: residue_census(
            prefix, 3, 0, allow_non_coprime=allow),
        lambda p, prefix, cand, allow: hierarchy_report(
            p, None, None, prefix, allow_non_coprime=allow),
        lambda p, prefix, cand, allow: ap_decomposition(
            prefix, cand, allow_non_coprime=allow),
    ], ids=["empirical_density", "density_inequality_check", "residue_census",
            "hierarchy_report", "ap_decomposition"])
    def test_library_refusal_is_the_cli_refusal(self, capsys, call):
        # one refusal: each library entry raises the text the CLI prints
        code, _, err = run(capsys, "density", "--a", "2", "--b", "4",
                           "--n", "100")
        params = validate_params(2, 4)
        prefix = generate_to_horizon(params, 200)
        last = gaps(prefix)[-1]
        # the last gap alone: a candidate this prefix does not refute
        cand = PeriodicityCandidate(len(prefix) - 2, 1, (last,), last, 1,
                                    Fraction(1, len(prefix) - 1))
        with pytest.raises(InvalidParameters) as exc:
            call(params, prefix, cand, False)
        assert (code, err) == (2, f"error: {exc.value}\n")
        call(params, prefix, cand, True)  # the override passes the check

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# each leaf command with its required flags, and the commands whose handler
# reads each flag that not every command takes
LEAF_ARGV = {
    "generate": ("--a", "1", "--b", "2", "--horizon", "10"),
    "member": ("--a", "1", "--b", "2", "--m", "5"),
    "nth": ("--a", "1", "--b", "2", "--k", "3"),
    "count": ("--a", "1", "--b", "2", "--n", "10"),
    "gaps": ("--a", "1", "--b", "2", "--horizon", "10"),
    "detect-period": ("--a", "1", "--b", "2", "--horizon", "10"),
    "density": ("--a", "1", "--b", "2", "--n", "10"),
    "density-check": ("--a", "1", "--b", "2", "--q", "1/2", "--k", "3",
                      "--n-max", "10"),
    "census": ("--a", "1", "--b", "2", "--horizon", "10", "--modulus", "3"),
    "verify-pattern": ("--a", "1", "--b", "2", "--code", BLOCK_CODE,
                       "--lo", "1", "--hi", "5"),
    "sweep": ("--code", BLOCK_CODE, "--modulus", "1", "--residue", "0",
              "--n-from", "4", "--n-to", "6", "--seg-c", "5", "--seg-d", "-1"),
    "mine": ("--modulus", "1", "--residue", "0", "--seg-c", "5",
             "--seg-d", "-1"),
    "export-ap": ("--a", "1", "--b", "2", "--horizon", "10"),
    "export-presburger": ("--a", "1", "--b", "2", "--horizon", "10"),
    "cache info": (),
}
SCOPED_FLAGS = {
    # flag with its value: the commands that take it, the value it parses to
    ("--expect-agree",): ({"detect-period", "density-check", "verify-pattern",
                           "sweep", "mine"}, True),
    ("--allow-non-coprime",): ({"density", "density-check", "census",
                                "detect-period", "export-ap",
                                "export-presburger"}, True),
    ("--override-applicability",): ({"verify-pattern", "sweep"}, True),
    ("--seed", "3"): ({"mine"}, 3),
    ("--threads", "2"): ({"sweep"}, 2),
}


def test_leaf_argv_covers_every_command():
    leaves = []
    for name, (_, _, handler) in cli.COMMANDS.items():
        leaves += ([f"{name} {action}" for action in handler]
                   if isinstance(handler, dict) else [name])
    assert leaves == list(LEAF_ARGV)


@pytest.mark.parametrize("command", LEAF_ARGV)
@pytest.mark.parametrize("flag", SCOPED_FLAGS, ids=lambda f: f[0])
def test_flag_taken_only_where_read(capsys, command, flag):
    takers, value = SCOPED_FLAGS[flag]
    argv = [*command.split(), *LEAF_ARGV[command], *flag]
    parser = cli.build_parser(argv[0])
    if command in takers:
        args = parser.parse_args(argv)
        assert getattr(args, flag[0][2:].replace("-", "_")) == value
        return
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {' '.join(flag)}"
            in capsys.readouterr().err)


def test_module_entry_point():
    # the child imports the same ulamkit as this process, installed or not
    src = str(Path(ulamkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "ulamkit.cli", "generate", "--a", "1",
         "--b", "2", "--horizon", "28"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert [int(x) for x in proc.stdout.split()] == U12
