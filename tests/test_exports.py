"""The package's public surface: every exported name is used by the package."""

import ast
from collections import Counter
from pathlib import Path

import regretlab

SRC = Path(regretlab.__file__).parent


def _exported_names() -> list[str]:
    body = ast.parse((SRC / "__init__.py").read_text()).body
    return [alias.asname or alias.name for node in body if isinstance(node, ast.ImportFrom) for alias in node.names]


def _references(path: Path) -> Counter:
    """Names read in a module's code, counting neither imports, nor the
    ``__all__`` list, nor a top-level definition's references to itself."""
    refs: Counter = Counter()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            continue
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            if name is not None and name != own:
                refs[name] += 1
    return refs


def test_every_export_has_a_caller_in_the_package():
    refs = sum((_references(p) for p in SRC.glob("*.py") if p.name != "__init__.py"), Counter())
    assert [name for name in _exported_names() if not refs[name]] == []
