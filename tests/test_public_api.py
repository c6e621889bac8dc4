"""Every public name of brownlab has a caller in the program or the benchmark.

A name that only the tests use is deleted, or moved into the tests, rather
than maintained. A use counts when a module of src/brownlab or perfbench/
reads the name outside its own definition; the __all__ lists and
brownlab/__init__.py, which only export names, do not count.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import brownlab

ROOT = Path(__file__).resolve().parents[1]

# Public names with no caller yet, each with its reason.
NO_CALLER_YET = {
    # ROADMAP item 4's `converge` will compare its spectra with the Brown
    # density through it; acceptance criterion 3 calls it until then.
    "compare_esd_brown",
}


class _Uses(ast.NodeVisitor):
    """The names a module reads, outside the definition of the same name."""

    def __init__(self):
        self.names = set()
        self.inside = []

    def _definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        # a submodule is used by importing from it
        if node.module:
            self._use(node.module.rsplit(".", 1)[-1])


def _program_uses():
    files = [f for f in sorted((ROOT / "src" / "brownlab").glob("*.py"))
             if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    uses = _Uses()
    for f in files:
        uses.visit(ast.parse(f.read_text(), filename=str(f)))
    return uses.names


def _public_names():
    """brownlab.__all__ and the __all__ of each of its modules."""
    names = set(brownlab.__all__)
    for info in pkgutil.iter_modules(brownlab.__path__):
        module = importlib.import_module(f"brownlab.{info.name}")
        names.update(getattr(module, "__all__", ()))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = sorted(_public_names() - _program_uses() - NO_CALLER_YET)
    assert unused == [], f"public names only the tests use: {unused}"


def test_every_named_exception_is_still_public_and_unused():
    # an exception that gained a caller, or left the package, leaves the list
    assert NO_CALLER_YET <= set(brownlab.__all__)
    assert not NO_CALLER_YET & _program_uses()
