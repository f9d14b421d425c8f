"""The README's Python quick-starts run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}  # the second block reuses names from the first, as a reader would
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(float(out.getvalue()))
    correlation, total = printed
    assert correlation > 0.99  # the README promises ~0.999
    assert total > 0
