"""Every raise in the package names one of the package's error classes.

``cli.main`` and the benchmark's closed loop catch ``RpSpectralError``, so a
bare ``ValueError`` from a bad setting would slip past both. This reads the
source only; it runs none of it. The one exception is ``PairSet.validate``:
the benchmark's output check catches its ``ValueError``.
"""

import ast
import inspect
from pathlib import Path

from rpspectral import errors

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "rpspectral").glob("*.py"))
PACKAGE_ERRORS = {
    name
    for name, obj in vars(errors).items()
    if inspect.isclass(obj) and issubclass(obj, errors.RpSpectralError)
}
# (module, enclosing scope, class raised) pairs outside the package's classes.
ALLOWED = {("pairing.py", "PairSet.validate", "ValueError")}


def raises(source):
    """(enclosing scope, raised class name, line) of each ``raise`` in ``source``.

    The name is None for a bare ``raise``, which names no class.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                found.append((".".join(scope), name, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_every_raise_names_a_package_error():
    found = [
        (path.name, scope, name, line)
        for path in SOURCES
        for scope, name, line in raises(path.read_text(encoding="utf-8"))
    ]
    stray = [
        f"{module}:{line} in {scope or '<module>'} raises {name}"
        for module, scope, name, line in found
        if name not in PACKAGE_ERRORS and (module, scope, name) not in ALLOWED
    ]
    assert not stray, "\n".join(stray)
    # The allowed exception still exists, so the list names live code.
    assert {(module, scope, name) for module, scope, name, _ in found} >= ALLOWED
