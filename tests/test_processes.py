"""One way to use the second core.

Work runs beside the caller only through ``harness._beside``, which forks
one child and always reaps it: ``os.fork`` appears nowhere else in the
package, and no module starts threads or process pools.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "decochaos"
CONCURRENCY = {"threading", "multiprocessing", "concurrent", "_thread"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _os_fork(tree):
    """The os.fork references under tree, and every `from os import fork`."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and "fork" in {alias.name for alias in node.names}]


def test_os_fork_is_used_only_in_beside():
    modules = dict(_modules())
    [beside] = [node for node in modules["harness"].body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_beside"]
    uses = {module: len(_os_fork(tree)) for module, tree in modules.items()}
    assert len(_os_fork(beside)) == 1
    assert {module: n for module, n in uses.items() if n} == {"harness": 1}


def test_no_module_imports_threads_or_process_pools():
    imported = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.update((module, name.partition(".")[0])
                            for name in names)
    assert {(module, name) for module, name in imported
            if name in CONCURRENCY} == set()
