"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)
