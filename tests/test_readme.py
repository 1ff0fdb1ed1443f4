"""The README's "Library use" examples run as printed, and its
performance tables are the ones the committed records render.

The section's Python blocks run in order in one namespace, in an empty
directory, as a reader would paste them. A `print` line there ends in a
comment that is the exact line it prints.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_blocks(tmp_path, monkeypatch, capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        expected = [line.rsplit("# ", 1)[1] for line in block.splitlines()
                    if line.startswith("print(")]
        exec(compile(block, str(README), "exec"), namespace)
        assert capsys.readouterr().out.splitlines() == expected


def script(name):
    """The module scripts/<name>.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(name):
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def test_performance_tables_match_the_records():
    text = README.read_text(encoding="utf-8")
    timing = script("timing")
    assert timing.render(record("BENCH_startup.json")) in text
    assert timing.table(record("BENCH_kernels.json")["rows"]) in text
