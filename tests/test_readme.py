"""The README's Python examples run as written."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    # each block on its own, in a fresh namespace, as a reader would paste it
    parser = doctest.DocTestParser()
    test = parser.get_doctest(BLOCKS[index], {}, f"README.md block {index}", str(README), 0)
    assert test.examples
    report: list[str] = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
