"""Every function, class and public method the package exports is reached from its own code."""

import ast
from pathlib import Path

import screenlimits

SRC = Path(screenlimits.__file__).parent

# Acceptance criterion 3 gates the list-overlap false match on this function
# against exact rational combinatorics; no scenario kind computes it.
REACHED_BY_CRITERION = {"overlap_probability"}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _names(node: ast.AST, skip: str | None = None):
    """Names used as code under `node`, not looking inside a def named `skip`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        yield from _names(child, skip)


def _modules() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def test_every_export_is_named_in_src_outside_its_def():
    modules = _modules()
    defined = {
        node.name
        for tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    exported = _exported() & defined
    assert len(exported) > 40
    unreached = sorted(
        name
        for name in exported - REACHED_BY_CRITERION
        if not any(name in _names(tree, skip=name) for tree in modules)
    )
    assert unreached == []


def _attributes(node: ast.AST, skip: str):
    """Attribute names read under `node`, not looking inside a def named `skip`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name == skip:
            continue
        if isinstance(child, ast.Attribute):
            yield child.attr
        yield from _attributes(child, skip)


def test_every_public_method_of_an_exported_class_is_named_in_src():
    modules = _modules()
    exported = _exported()
    methods = {
        f"{node.name}.{item.name}": item.name
        for tree in modules
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    assert {"ScreeningConfig.lam", "ScreeningConfig.threshold"} <= set(methods)
    unreached = sorted(
        qualified
        for qualified, name in methods.items()
        if not any(name in _attributes(tree, skip=name) for tree in modules)
    )
    assert unreached == []
