"""The README's library example names only what the package defines."""

import ast
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_the_library_example_imports():
    block = re.search(r"```python\n(.*?)```", README, re.DOTALL).group(1)
    imports = [node for node in ast.parse(block).body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(isinstance(node, ast.ImportFrom) and node.module == "iesdispatch" for node in imports)
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
