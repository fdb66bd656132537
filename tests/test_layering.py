"""Module layering of the package and its numpy-only dependency rule.

Each module of ``src/mgnet3d`` may import only the sibling modules listed
below, so the layers stay acyclic, and from outside the package only the
standard library and numpy.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mgnet3d"

ALLOWED_SIBLINGS = {
    "errors": set(),
    "metrics": {"errors"},
    "data": {"errors"},
    "tensor": {"errors"},
    "model": {"data", "errors", "tensor"},
    "training": {"data", "errors", "metrics", "model", "tensor"},
    "cli": {"data", "errors", "metrics", "model", "training"},
    "__init__": {"data", "errors", "metrics", "model", "tensor", "training"},
    "__main__": {"cli"},
}


def imports(path: Path) -> tuple[set[str], set[str]]:
    """(sibling modules, top-level outside packages) that a module imports."""
    siblings, outside = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            outside.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                outside.add(node.module.split(".")[0])
            elif node.module:
                siblings.add(node.module.split(".")[0])
            else:
                siblings.update(alias.name for alias in node.names)
    return siblings, outside


def test_imports_follow_the_layers():
    violations = {}
    for path in sorted(PACKAGE.glob("*.py")):
        siblings, outside = imports(path)
        extra = siblings - ALLOWED_SIBLINGS.get(path.stem, set())
        extra |= {name for name in outside if name not in sys.stdlib_module_names and name != "numpy"}
        if path.stem not in ALLOWED_SIBLINGS or extra:
            violations[path.stem] = sorted(extra)
    assert violations == {}
