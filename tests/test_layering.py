"""The package's layers, read from its source with ``ast``: which module
defines the findings check and which modules import which; and the names
the package exports."""

import ast
from pathlib import Path

import fsdsq

SRC = Path(__file__).resolve().parent.parent / "src" / "fsdsq"
# each module of the structure stack imports none of those after it
STACK = ("words", "census", "double_squares", "pairs")
UPPER = ("construct", "sweep", "cli", "__init__", "__main__")


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The package modules that ``tree`` imports, by module name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("fsdsq."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fsdsq."))
    return names


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_module_is_placed():
    assert set(_modules()) == set(STACK) | set(UPPER) | {"errors"}


def test_findings_are_defined_only_in_pairs():
    modules = _modules()
    for name in ("check_word", "WordCheck", "ALL_PROPERTIES"):
        assert [mod for mod, tree in modules.items() if name in _defined(tree)] == ["pairs"]


def test_only_the_front_ends_import_the_sweep():
    importers = {mod for mod, tree in _modules().items() if "sweep" in _imported(tree)}
    assert importers == {"cli", "__init__"}


def test_the_structure_stack_imports_downwards():
    modules = _modules()
    for k, mod in enumerate(STACK):
        above = set(STACK[k + 1:]) | set(UPPER)
        assert not _imported(modules[mod]) & above, mod


def test_public_api_is_pinned():
    # a name joins or leaves the public API only with this list
    assert sorted(fsdsq.__all__) == [
        "ALL_PROPERTIES", "BuildStep", "CensusReport", "Check", "CostCeilingError",
        "CounterexampleError", "FactorizationError", "Finding", "FsDoubleSquare",
        "LengthStats", "MateClassification", "MateLabel", "NoExtensionError",
        "PairClassification", "PairKind", "RunReport", "SweepReport", "Word",
        "are_conjugate", "build_run", "classify_mate_detail", "exhaustive_verify",
        "extend_equal_run", "extend_unequal", "find_double_square_pairs",
        "find_fs_double_squares", "lcp", "ordering_case", "render_census_tsv",
        "s_sequence",
    ]
    for name in fsdsq.__all__:
        assert getattr(fsdsq, name) is not None, name
