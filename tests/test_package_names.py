"""Every top-level name and public method of the package has a caller in
the package.

A function, class, constant, or public method or property of a package
class, that no package code loads, by name or as an attribute, is code kept
only for the tests or the benchmark's tracer; it belongs in the tests.  The
names are read from the source with ``ast``, so a mention in a docstring or
comment does not count as a caller.  Methods whose names start with ``_``
(dunders included, which the language calls by protocol) are not checked.
"""

import ast
from pathlib import Path

import shormps

PACKAGE = Path(shormps.__file__).parent

# "<module>.<name>", "<module>.<class>.<method>", or "<module>" for all of a
# module's names -> the reason it stays without a caller
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


def public_methods(tree: ast.Module) -> list[str]:
    """``<class>.<method>`` of every public method and property of the
    module's top-level classes."""
    return [f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def loaded_names(tree: ast.Module) -> set[str]:
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def uncalled(package: Path) -> list[str]:
    """``<module>.<name>`` of every top-level name, and
    ``<module>.<class>.<method>`` of every public method, that no module of
    ``package`` loads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    loaded = set().union(*map(loaded_names, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in top_level_names(tree) + public_methods(tree)
            if name.rpartition(".")[2] not in loaded]


def test_every_name_has_a_caller_in_the_package():
    found = uncalled(PACKAGE)
    allowed = [name for name in found
               if name in ALLOWED or name.partition(".")[0] in ALLOWED]
    assert sorted(set(found) - set(allowed)) == []
    # an entry whose name gained a caller, or left, goes too
    assert {name if name in ALLOWED else name.partition(".")[0] for name in allowed} \
        == set(ALLOWED)


def test_a_method_without_caller_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "class C:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    @property\n"
        "    def unread(self): return 1\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n")
    (tmp_path / "b.py").write_text("from a import C\nC().used()\n")
    assert uncalled(tmp_path) == ["a.C.unused", "a.C.unread"]
