"""Structure of the package source itself."""

import ast
import re
from collections import Counter
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


def test_every_public_definition_is_referenced():
    # a public def or class that nothing names outside its own definition
    # is dead surface
    package = Path(heatlab.__file__).parent
    root = package.parent.parent
    words = Counter(
        word
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text()))
    definitions = Counter(
        node.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_"))
    unreferenced = sorted(name for name, count in definitions.items()
                          if words[name] <= count)
    assert unreferenced == []
