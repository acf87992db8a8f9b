"""The README's library example runs, and its config block is the defaults."""

import re
from pathlib import Path

from holowdm.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block opens the Library example section"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["H"].shape == (256, 256)
    assert namespace["result"].capacity_bits.shape == (4,)


def test_config_block_is_the_defaults():
    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None, "no json block in the README"
    assert parse_config(block.group(1)) == parse_config("")
