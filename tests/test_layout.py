"""Module boundaries: a private name (``_x``, not a dunder) stays in its module."""

import ast
import pathlib

import qherm

PACKAGE = pathlib.Path(qherm.__file__).parent


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "qherm"
        if internal:
            found += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    return found


def test_no_private_name_crosses_a_module_boundary():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert found == []
