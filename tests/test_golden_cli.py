"""A byte-for-byte record of the `ulam` CLI: stdout, stderr, exit code and
every file a command writes, for each subcommand in text, json and csv.

The steps run in order in one empty directory, against the relative cache
directory `cache`, so later steps see the cache that earlier ones left.
The record is tests/golden_cli.json. It changes only with a deliberate
change of behaviour; to rewrite it from the current code, run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from ulamkit.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")

BLOCK_CODE = json.dumps({
    "components": [{"A1": 0, "A2": 4, "B1": 0, "B2": 5, "p": 2, "q": -1,
                    "L": 1, "S": [0], "unbounded": False}],
    "applicability": {"modulus": 1, "residue": 0},
})
EVEN_B_CODE = BLOCK_CODE.replace('"modulus": 1', '"modulus": 2')
# the code `mine --samples 4,5,6 --seg-c 5 --seg-d -1` fits
MINED_CODE = (
    '{"components":[{"A1":0,"A2":0,"B1":0,"B2":0,"p":1,"q":1,"L":1,"S":[0],'
    '"unbounded":false},{"A1":0,"A2":1,"B1":0,"B2":2,"p":0,"q":0,"L":1,'
    '"S":[0],"unbounded":false},{"A1":0,"A2":2,"B1":0,"B2":2,"p":2,"q":2,'
    '"L":1,"S":[0],"unbounded":false},{"A1":0,"A2":4,"B1":0,"B2":4,"p":0,'
    '"q":0,"L":1,"S":[0],"unbounded":false},{"A1":0,"A2":4,"B1":0,"B2":5,'
    '"p":2,"q":-1,"L":1,"S":[0],"unbounded":false}],'
    '"applicability":{"modulus":1,"residue":0}}')

CACHE = ("--cache-dir", "cache")
MINE = ("mine", "--modulus", "1", "--residue", "0", "--seg-c", "5",
        "--seg-d", "-1")
SWEEP = ("sweep", "--modulus", "1", "--residue", "0", "--seg-c", "5",
         "--seg-d", "-1")
PERIOD_OPTIONS = ("--min-periods", "3", "--min-coverage", "1/2")

# (name, argv) runs argv in each format; (name, argv, None) runs it once as
# given; (name, path, text) writes a file.
STEPS = [
    ("version", ("--version",), None),
    ("generate-horizon", ("generate", "--a", "1", "--b", "2", "--horizon",
                          "100", *CACHE)),
    ("generate-count", ("generate", "--a", "1", "--b", "2", "--count", "30",
                        *CACHE)),
    ("generate-out", ("generate", "--a", "1", "--b", "3", "--horizon", "60",
                      "--out", "terms.out", *CACHE)),
    ("member-hit", ("member", "--a", "1", "--b", "2", "--m", "26", *CACHE)),
    ("member-extend", ("member", "--a", "1", "--b", "2", "--m", "300",
                       *CACHE)),
    ("member-no-cache", ("member", "--a", "3", "--b", "4", "--m", "11")),
    ("nth", ("nth", "--a", "2", "--b", "5", "--k", "40", *CACHE)),
    ("count", ("count", "--a", "1", "--b", "2", "--n", "250", *CACHE)),
    ("count-below-a", ("count", "--a", "3", "--b", "4", "--n", "2", *CACHE)),
    ("gaps", ("gaps", "--a", "1", "--b", "3", "--horizon", "91", *CACHE)),
    ("detect-period", ("detect-period", "--a", "2", "--b", "5", "--horizon",
                       "2000", *PERIOD_OPTIONS, *CACHE)),
    ("detect-period-stale", ("detect-period", "--a", "1", "--b", "3",
                             "--horizon", "91", *CACHE)),
    ("detect-period-none", ("detect-period", "--a", "1", "--b", "2",
                            "--horizon", "500", "--expect-agree", *CACHE)),
    ("density", ("density", "--a", "1", "--b", "2", "--n", "1000", *CACHE)),
    ("density-non-coprime", ("density", "--a", "2", "--b", "4", "--n", "100",
                             "--allow-non-coprime", *CACHE)),
    ("density-check-holds", ("density-check", "--a", "1", "--b", "2", "--q",
                             "1/2", "--k", "10", "--n-max", "1000",
                             "--expect-agree", *CACHE)),
    ("density-check-violated", ("density-check", "--a", "1", "--b", "2",
                                "--q", "0", "--k", "5", "--n-max", "100",
                                "--expect-agree", *CACHE)),
    ("census-all", ("census", "--a", "2", "--b", "5", "--horizon", "3000",
                    "--modulus", "3", *CACHE)),
    ("census-one", ("census", "--a", "1", "--b", "2", "--horizon", "500",
                    "--modulus", "4", "--residue", "2", *CACHE)),
    ("code-file", "block.json", BLOCK_CODE),
    ("verify-agrees", ("verify-pattern", "--a", "1", "--b", "10", "--code",
                       "@block.json", "--lo", "42", "--hi", "49", *CACHE)),
    ("verify-mismatch", ("verify-pattern", "--a", "1", "--b", "10", "--code",
                         BLOCK_CODE, "--lo", "40", "--hi", "49",
                         "--expect-agree", *CACHE)),
    ("verify-override", ("verify-pattern", "--a", "1", "--b", "9", "--code",
                         EVEN_B_CODE, "--lo", "38", "--hi", "44",
                         "--override-applicability", *CACHE)),
    ("mine-log", (*MINE, "--samples", "4,5,6", "--log", "mine.jsonl",
                  *CACHE)),
    ("mine-sampled", (*MINE, "--n-from", "4", "--n-to", "30",
                      "--sample-count", "4", "--seed", "7", "--holdout",
                      "31,33", "--expect-agree", *CACHE)),
    ("mine-failure-log", (*MINE, "--samples", "2,4,6", "--log", "fail.jsonl",
                          *CACHE)),
    ("mined-file", "mined.json", MINED_CODE),
    ("sweep-reports", (*SWEEP, "--code", "@mined.json", "--n-from", "1",
                       "--n-to", "9", "--report-jsonl", "sweep.jsonl",
                       "--report-csv", "sweep.csv", "--threads", "2", *CACHE)),
    ("sweep-mismatch", ("sweep", "--code", BLOCK_CODE, "--modulus", "2",
                        "--residue", "0", "--n-from", "4", "--n-to", "9",
                        "--seg-c", "5", "--seg-d", "-1", "--expect-agree",
                        "--report-csv", "mismatch.csv", *CACHE)),
    ("sweep-empty", (*SWEEP, "--code", BLOCK_CODE, "--n-from", "5",
                     "--n-to", "4", "--report-jsonl", "empty.jsonl",
                     "--report-csv", "empty.csv", *CACHE)),
    ("export-ap", ("export-ap", "--a", "2", "--b", "5", "--horizon", "1500",
                   *CACHE)),
    ("export-presburger", ("export-presburger", "--a", "2", "--b", "5",
                           "--horizon", "1500", *CACHE)),
    ("export-ap-stale", ("export-ap", "--a", "1", "--b", "3", "--horizon",
                         "91", *CACHE)),
    ("export-presburger-stale", ("export-presburger", "--a", "1", "--b", "3",
                                 "--horizon", "91", *CACHE)),
    ("export-ap-none", ("export-ap", "--a", "1", "--b", "2", "--horizon",
                        "500", *CACHE)),
    ("corrupt-file", "cache/u1_7.ulam", "not a cache file"),
    ("cache-info-all", ("cache", "info", *CACHE)),
    ("cache-info-corrupt", ("cache", "info", "--a", "1", "--b", "7",
                            *CACHE)),
    ("cache-info-absent", ("cache", "info", "--a", "3", "--b", "7",
                           *CACHE)),
    ("member-over-corrupt", ("member", "--a", "1", "--b", "7", "--m", "50",
                             *CACHE)),
    ("cache-info-rebuilt", ("cache", "info", "--a", "1", "--b", "7",
                            *CACHE)),
    # refusals, exit 2
    ("refuse-params", ("generate", "--a", "2", "--b", "2", "--horizon", "10",
                       *CACHE)),
    ("refuse-horizon", ("member", "--a", "1", "--b", "2", "--m",
                        "1000000000", *CACHE)),
    ("refuse-non-coprime", ("density", "--a", "2", "--b", "4", "--n", "100",
                            *CACHE)),
    ("refuse-fraction", ("density-check", "--a", "1", "--b", "2", "--q", "x",
                         "--k", "5", "--n-max", "100", *CACHE)),
    ("refuse-coverage", ("detect-period", "--a", "2", "--b", "5", "--horizon",
                         "100", "--min-coverage", "2", *CACHE)),
    ("refuse-census-class", ("census", "--a", "1", "--b", "2", "--horizon",
                             "100", "--modulus", "3", "--residue", "3",
                             *CACHE)),
    ("refuse-code-json", ("verify-pattern", "--a", "1", "--b", "10", "--code",
                          "{bad", "--lo", "1", "--hi", "9", *CACHE)),
    ("refuse-applicability", ("verify-pattern", "--a", "1", "--b", "9",
                              "--code", EVEN_B_CODE, "--lo", "38", "--hi",
                              "44", *CACHE)),
    ("refuse-sweep-class", ("sweep", "--code", BLOCK_CODE, "--modulus", "3",
                            "--residue", "3", "--n-from", "4", "--n-to", "6",
                            "--seg-c", "5", "--seg-d", "-1", *CACHE)),
    ("refuse-mine-class", ("mine", "--modulus", "0", "--residue", "0",
                           "--samples", "4,5,6", "--seg-c", "5", "--seg-d",
                           "-1", *CACHE)),
    ("refuse-mine-range", (*MINE, "--n-from", "4", *CACHE)),
    ("refuse-mine-count", (*MINE, "--n-from", "4", "--n-to", "6",
                           "--sample-count", "9", *CACHE)),
    ("refuse-samples", (*MINE, "--samples", "4,x", *CACHE)),
    ("refuse-cache-dir", ("cache", "info")),
    ("refuse-cache-pair", ("cache", "info", "--a", "1", *CACHE)),
]

FORMATS = ("text", "json", "csv")


def _snapshot(root: Path) -> dict:
    """Every file under root: text, or the SHA-256 of a cache file."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            files[path.relative_to(root).as_posix()] = (
                "sha256:" + hashlib.sha256(data).hexdigest()
                if path.suffix == ".ulam" else data.decode("utf-8"))
    return files


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(root: Path) -> list[dict]:
    """Run STEPS in root and return one entry per command run."""
    entries, inputs = [], set()
    saved = os.getcwd(), os.environ.pop("ULAM_CACHE_DIR", None)
    os.chdir(root)
    try:
        for step in STEPS:
            if len(step) == 3 and step[2] is not None:
                name, path, text = step
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                Path(path).write_text(text, encoding="utf-8")
                inputs.add(path)
                continue
            runs = ([(step[0], step[1])] if len(step) == 3 else
                    [(f"{step[0]}.{fmt}", (*step[1], "--format", fmt))
                     for fmt in FORMATS])
            for name, argv in runs:
                # each run writes its side files afresh
                for path in _snapshot(root):
                    if path not in inputs and not path.startswith("cache/"):
                        os.unlink(path)
                before = _snapshot(root)
                code, out, err = _run(argv)
                after = _snapshot(root)
                entries.append({
                    "name": name, "argv": list(argv), "exit": code,
                    "stdout": out, "stderr": err,
                    "files": {p: v for p, v in after.items()
                              if before.get(p) != v},
                })
    finally:
        os.chdir(saved[0])
        if saved[1] is not None:
            os.environ["ULAM_CACHE_DIR"] = saved[1]
    return entries


# a missing corpus fails test_corpus_covers_every_step
GOLDEN = (json.loads(CORPUS.read_text(encoding="utf-8"))
          if CORPUS.exists() else [])


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return {e["name"]: e for e in record(tmp_path_factory.mktemp("golden"))}


@pytest.mark.parametrize("expected", GOLDEN, ids=[e["name"] for e in GOLDEN])
def test_cli_matches_corpus(replayed, expected):
    assert replayed[expected["name"]] == expected


def test_corpus_covers_every_step(replayed):
    assert list(replayed) == [e["name"] for e in GOLDEN]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = record(Path(scratch))
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
