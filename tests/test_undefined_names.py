"""Every module of the package and of the test suite binds each global it reads.

The project configures no linter, so a missing import would otherwise show
up only as a NameError once the code path that uses it runs. This walks each
module's symbol tables (stdlib ``symtable``) and lists the global names that
some scope reads but that the module never binds, imports or finds among the
builtins. The README's ```python blocks get the same check, and each
``rp.<name>`` they use must be exported in ``rpspectral.__all__``; its
```json config examples must load through ``config_from_dict``, and each
``rpspectral`` command in its ```sh blocks must parse with the CLI's parser.
"""

import ast
import builtins
import json
import re
import shlex
import symtable
from pathlib import Path

import rpspectral
from rpspectral.cli import _build_parser
from rpspectral.harness import config_from_dict

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted([*ROOT.glob("src/rpspectral/*.py"), *ROOT.glob("tests/*.py")])
# Set by the import system on every module, with no binding in its source.
MODULE_ATTRIBUTES = {"__file__", "__cached__", "__builtins__"}
KNOWN = set(dir(builtins)) | MODULE_ATTRIBUTES


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_globals(source, filename="<source>"):
    """Sorted global names that some scope reads and nothing binds."""
    top = symtable.symtable(source, filename, "exec")
    bound, read = set(), set()
    for scope in _scopes(top):
        for sym in scope.get_symbols():
            name = sym.get_name()
            if scope is top or sym.is_declared_global():
                if sym.is_assigned() or sym.is_imported():
                    bound.add(name)
            if sym.is_referenced() and sym.is_global():
                read.add(name)
    return sorted(read - bound - KNOWN)


def test_checker_flags_only_unbound_names():
    source = """
import os.path
from dataclasses import field as fld

def f(c):
    global COUNT
    COUNT = len(c)
    with open(__file__) as fh:
        for line in fh:
            pass
    try:
        return replace(c, x=fld, y=os.path.sep, z=[q for q in c if q], w=line)
    except ValueError as err:
        raise BadArchitecture(str(err)) from None

class C:
    size = 1
    def g(self):
        return size + COUNT + f(self) + C.size
"""
    assert undefined_globals(source) == ["BadArchitecture", "replace", "size"]


def test_every_module_binds_the_globals_it_reads():
    assert CHECKED, "no sources found to check"
    found = {}
    for path in CHECKED:
        names = undefined_globals(path.read_text(encoding="utf-8"), str(path))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def test_readme_examples_use_only_exported_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks, "README has no python examples"
    for block in blocks:
        assert undefined_globals(block, "README.md") == []
        used = {
            node.attr
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "rp"
        }
        assert sorted(used - set(rpspectral.__all__)) == []


def test_readme_config_examples_load():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) >= 2, "README lost its config examples"
    for block in blocks:
        config_from_dict(json.loads(block))


def test_readme_cli_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("rpspectral ")
    ]
    assert len(commands) >= 6, "README lost its CLI examples"
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {shlex.join(argv)}")
