import ast
from pathlib import Path

import relinfo

SOURCE = Path(__file__).resolve().parents[1] / "src" / "relinfo"


def test_every_exported_name_resolves():
    assert [name for name in relinfo.__all__ if not hasattr(relinfo, name)] == []
    assert len(set(relinfo.__all__)) == len(relinfo.__all__)


def unused_imports(path):
    """``file:line: name`` of each module-level import in ``path`` that no name references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on the package, so this stands in for an unused-import check.
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in unused_imports(path)] == []
