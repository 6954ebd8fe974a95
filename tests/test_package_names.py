"""Every top-level name of the package has a caller in the package.

A function, class or constant that no package code loads, by name or as an
attribute, is code kept only for the tests or the benchmark's tracer; it
belongs in the tests.  The names are read from the source with ``ast``, so
a mention in a docstring or comment does not count as a caller.
"""

import ast
from pathlib import Path

import shormps

PACKAGE = Path(shormps.__file__).parent

# "<module>.<name>", or "<module>" for all of a module's names -> the reason
# it stays without a caller
ALLOWED = {
    "tensor": "perfbench/tracing.py imports the module by name to wrap its functions",
}


def top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def uncalled(package: Path) -> list[str]:
    """``<module>.<name>`` of every top-level name no module of ``package`` loads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    loaded = set().union(*map(loaded_names, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in top_level_names(tree) if name not in loaded]


def test_every_name_has_a_caller_in_the_package():
    found = uncalled(PACKAGE)
    allowed = [name for name in found
               if name in ALLOWED or name.partition(".")[0] in ALLOWED]
    assert sorted(set(found) - set(allowed)) == []
    # an entry whose name gained a caller, or left, goes too
    assert {name if name in ALLOWED else name.partition(".")[0] for name in allowed} \
        == set(ALLOWED)
