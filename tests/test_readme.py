"""The README's documented library use runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs():
    """The one python block under `## Library` executes without error, so
    an API change that breaks the documented example fails here."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1, blocks
    exec(compile(blocks[0], f"{README}, ## Library", "exec"), {"__name__": "readme_example"})
