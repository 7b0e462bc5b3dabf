"""The README's Python usage block runs and prints what its comments say.

Each ``# ...`` comment in the block is the documented output of the
print above it or on its line, in order; ``...`` stands for omitted
digits.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def usage_block():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_usage_block_prints_what_it_documents(capsys):
    block = usage_block()
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    documented = re.findall(r"#\s*(.+)$", block, re.M)
    assert len(printed) == len(documented) == 3
    for line, doc in zip(printed, documented):
        pattern = re.escape(doc).replace(re.escape("..."), r"\d*")
        assert re.fullmatch(pattern, line), (line, doc)
