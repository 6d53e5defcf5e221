"""Every public name has one home and a caller.

A name in a decochaos module's ``__all__`` is defined in that module, not
imported into it. It counts as used when code in
the package, the benchmark (``perfbench/``) or the acceptance suite
refers to it from outside its own definition, and that code is itself
used: a public function called only by another unused public function
is unused too.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "decochaos"

# public names that only unit tests call, with the reason they stay
TEST_REFERENCES = {
    "evolve_bath_amplitude": "single-mode reference whose mode sum the "
                             "oracle tests check the FFT oracle against",
}


def _exports_and_references():
    files = [*sorted(PACKAGE.glob("*.py")),
             *sorted((ROOT / "perfbench").rglob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    exported = set()
    references = []    # (name, top-level definition it sits in, or None)
    for path in files:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.parent == PACKAGE and isinstance(top, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in top.targets)):
                exported.update(ast.literal_eval(top.value))
                continue
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    references.append((node.attr, owner))
                elif isinstance(node, ast.alias):
                    references.append((node.asname or node.name, owner))
    return exported, references


def unused_public_names():
    exported, references = _exports_and_references()
    unused = set()
    while True:
        used = {name for name, owner in references
                if name != owner and owner not in unused}
        if exported - used == unused:
            return unused
        unused = exported - used


def test_every_public_name_is_used():
    assert unused_public_names() - set(TEST_REFERENCES) == set()


def test_test_references_are_still_public_and_unused():
    assert set(TEST_REFERENCES) <= unused_public_names()


def test_every_public_name_is_defined_in_its_module():
    # an import is not a definition: a name has one import path
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {node.name for node in body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))}
        values = {target.id: node.value for node in body
                  if isinstance(node, ast.Assign) for target in node.targets
                  if isinstance(target, ast.Name)}
        exported = ast.literal_eval(values.get("__all__", "[]"))
        assert set(exported) - defined - set(values) == set(), path.name
