"""Source hygiene: no library module imports a name it never uses, every
`_expect` message is a plain string formatted only on refusal, and the CLI
leaves every integer check to the library's constructors."""

import ast
import pathlib

import pytest

import mvkit

MODULES = sorted(p for p in pathlib.Path(mvkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no other node reads, in
    import order; `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom .errors import A, B as C\nC()\n"
    assert unused_imports(source) == ["os", "A"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_modules_use_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def eager_messages(source: str) -> list:
    """Line numbers of the `_expect(cond, message, *args)` calls whose message
    is not a string literal: an f-string (or any other expression) is built
    on every call, valid input included, where `_expect` formats on refusal."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_expect"
            and not (len(node.args) > 1 and isinstance(node.args[1], ast.Constant))]


def test_eager_messages_are_found():
    source = '_expect(ok, f"bad {x}")\n_expect(ok, "bad {}", x)\n_expect(ok, "bad")\n_expect(ok, "{}".format(x))\n'
    assert eager_messages(source) == [1, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_expect_messages_are_formatted_on_refusal_only(path):
    assert eager_messages(path.read_text(encoding="utf-8")) == []


def int_checks(source: str) -> list:
    """Line numbers of the `isinstance(..., int)` calls, `int` alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance" \
                and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                lines.append(node.lineno)
    return lines


def test_int_checks_are_found():
    source = "isinstance(v, int)\nisinstance(v, (str, int))\nisinstance(v, bool)\nisinstance(v, dict)\n"
    assert int_checks(source) == [1, 2]


def test_cli_makes_no_integer_check():
    """`IndexSpec`, `SymbolicElement`, `from_tables` and `chain_product` own
    the value checks; the CLI reads JSON structure only."""
    source = (pathlib.Path(mvkit.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert int_checks(source) == []
