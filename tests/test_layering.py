"""Package layering: no module reaches into another module's private names."""

import ast
from pathlib import Path

import urbasis

PACKAGE = Path(urbasis.__file__).parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "urbasis"
        if internal:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_module_imports_a_private_name_of_another():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert offenders == []
