"""Structure of the package source itself."""

import ast
from pathlib import Path

import heatlab


def test_no_cross_module_private_imports():
    # a private helper used by another module belongs in a public home
    offenders = []
    for path in sorted(Path(heatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []
