"""The README's Python examples run as written, so an API change that
breaks one fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order_in_one_namespace():
    text = README.read_text(encoding="utf-8")
    blocks = list(_PYTHON_BLOCK.finditer(text))
    assert blocks, "README.md has no ```python blocks"
    namespace = {}
    for block in blocks:
        # padded so a traceback names the block's own README line
        padding = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(padding + block.group(1), str(README), "exec"), namespace)
    assert namespace["outputs"].shape == (10, 6, 248)
