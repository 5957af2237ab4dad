"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_the_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README, re.DOTALL).group(1)
    assert "from iesdispatch import (" in block
    # The whole example, with a handful of training episodes in place of 5000.
    assert block.count("episodes=5000") == 1
    exec(compile(block.replace("episodes=5000", "episodes=8"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4  # every print of the example ran
