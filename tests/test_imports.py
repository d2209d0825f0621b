import ast
from pathlib import Path

import lcseg

PACKAGE = Path(lcseg.__file__).parent


def _lcseg_imports(tree):
    """(line, module, name) of every name imported from an lcseg module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "lcseg"
        ):
            for alias in node.names:
                yield node.lineno, "." * node.level + (node.module or ""), alias.name


def test_no_module_imports_a_private_name_from_another():
    """A ``_``-prefixed name stays inside its module: each module of the
    package reaches another only through its public names."""
    found = [
        f"{path.name}:{line}: {name} from {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module, name in _lcseg_imports(ast.parse(path.read_text(), str(path)))
        if name.startswith("_")
    ]
    assert found == []
