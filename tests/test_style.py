"""Source layout rules that no installed formatter enforces."""

import ast
from pathlib import Path

import selfconj

SOURCES = sorted(Path(selfconj.__file__).parent.glob("*.py"))


def test_no_source_line_exceeds_100_columns():
    assert SOURCES
    long = [
        f"{path.name}:{n}"
        for path in SOURCES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert not long


def _unused_imports(source: str) -> list[str]:
    """Names the module imports and neither uses nor lists in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_the_unused_import_rule_sees_a_stale_import():
    source = "from types import SimpleNamespace\nimport numpy as np\n\nx = np.zeros(2)\n"
    assert _unused_imports(source) == ["SimpleNamespace (line 1)"]
    assert _unused_imports("import os\n__all__ = ['os']\n") == []


def test_every_import_is_used():
    unused = {path.name: _unused_imports(path.read_text()) for path in SOURCES}
    assert not {name: names for name, names in unused.items() if names}
