"""Every function, class and public method the package exports is reached
from its own code, and importing the CLI loads no heavy module."""

import ast
import os
import subprocess
import sys
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


# Each costs the CLI's cold start: scipy.integrate adds ~0.35 s, scipy.signal
# ~1 s, and scipy.stats pulls in scipy.integrate. mpmath and hypothesis are
# for tests only.
HEAVY_MODULES = ("scipy.stats", "scipy.integrate", "scipy.signal", "mpmath", "hypothesis")


def test_cli_import_loads_no_heavy_module():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, screenlimits.cli; print(*sys.modules, sep='\\n')"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert "screenlimits.cli" in loaded and "scipy.special" in loaded
    heavy = sorted(m for m in loaded for h in HEAVY_MODULES if m == h or m.startswith(h + "."))
    assert heavy == []
