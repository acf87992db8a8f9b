"""The README's library example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block opens the Library example section"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["H"].shape == (256, 256)
    assert namespace["result"].capacity_bits.shape == (4,)
