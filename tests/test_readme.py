"""The README's "Library use" examples run as printed.

The section's Python blocks run in order in one namespace, in an empty
directory, as a reader would paste them. A `print` line there ends in a
comment that is the exact line it prints.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
