import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "ginlab").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that the imports of `tree` bind and no other node of it reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from math import comb, inf\nimport os.path\nprint(comb(inf, 1))\n")
    assert unused_imports(tree) == ["os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
