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


def _blas_uses(tree: ast.AST) -> list[str]:
    """``linalg``, ``dot``, ``vdot`` and ``@`` in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        # attributes, names, imported modules and imported names
        fields = ("attr", "id", "module", "name")
        name = next((getattr(node, f) for f in fields if getattr(node, f, None)), None)
        if isinstance(name, str) and name.split(".")[-1] in ("linalg", "dot", "vdot"):
            found.append(f"line {node.lineno}: {name}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        found += _blas_uses(node)
    return found


def test_halfline_report_reduces_without_blas():
    # the half-line report's numbers do not depend on the BLAS thread count
    # because nothing in the module calls a BLAS or LAPACK kernel
    path = PACKAGE / "halfline.py"
    assert _blas_uses(ast.parse(path.read_text(), str(path))) == []
