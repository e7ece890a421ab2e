"""The public names, the module functions the benchmark traces by name,
no unused imports in the package modules, the tests, the demos and the
benchmark, no assert statement in the package, and the oracles'
independence from the map cores."""

import ast
import importlib
from pathlib import Path

import parkforest

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BudgetExceededError",
    "CycleError",
    "Forest",
    "ForestStats",
    "GenPoly",
    "InputError",
    "InvalidInversionValueError",
    "LabelMap",
    "MalformedInputError",
    "NotParkingFunctionError",
    "OrderedTree",
    "OutOfRangeError",
    "ParkOutcome",
    "ParkingStats",
    "SelfParentError",
    "VerificationReport",
    "all_forests",
    "all_parking_functions",
    "canonical_order",
    "collapse_type_poly",
    "critic_lucky_poly",
    "critic_lucky_product_formula",
    "forest_count",
    "forest_stats",
    "forest_to_parking",
    "inverse_relabel",
    "inversion_counts",
    "inversion_type_poly",
    "is_parking_function",
    "jump_type_poly",
    "lead_tree_poly",
    "lucky_poly",
    "lucky_product_formula",
    "nearest_larger_right_tree",
    "park",
    "parking_stats",
    "parking_to_forest",
    "postorder",
    "preorder",
    "relabel_decreasing",
    "sample_forest",
    "sample_parking_function",
    "sorted_parking_test",
    "statistic_product",
    "validate_forest",
    "verify_bijection",
    "verify_random",
]


def test_public_surface_and_traced_layers_exist(monkeypatch):
    assert sorted(parkforest.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(parkforest, name) is not None
    # bench/run.py --trace wraps each listed function by getattr on its
    # module, so renaming or deleting one of them breaks the traced run.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("tracer").LAYERS
    for module, names in layers.items():
        mod = importlib.import_module(f"parkforest.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"parkforest.{module}.{name}"
    assert issubclass(importlib.import_module("parkforest.cli").InputError, Exception)


def test_modules_use_every_name_they_import():
    # The package's __init__.py imports to re-export, so it is the one
    # module skipped.  A stale import of a renamed helper fails here.
    paths = [
        *sorted(Path(parkforest.__file__).resolve().parent.glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
    ]
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def test_package_checks_invariants_without_assert():
    # An invariant in the package is a real check that raises an error:
    # an assert statement vanishes under python -O.
    for path in sorted(Path(parkforest.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_oracles_share_no_code_with_the_map_cores():
    # The inversion oracle (forest_stats.py) and the enumerators and checks
    # (exhaustive.py) must not reuse the maps' drawing, layout, relabeling
    # or nearest-larger-right tree, or a bug there would pass unseen.  The
    # maps themselves are what exhaustive.py checks, so it calls them
    # whole.  The one shared piece is park's loop: parking_stats and the
    # backward map both run it.  The enumerators and sorted_parking_test are the
    # independent parking side.  The generating polynomials (genpoly.py)
    # count both sides from their definitions, so they name no statistic
    # or enumerator either: each side of an identity has its own code.
    # The inversion oracle's traversal lives in forest_stats.py itself, so
    # it takes only the record and the validator from forest.py.
    cores = {"_claim_walk", "_layout", "_relabel", "_nearest_larger_right"}
    objects = {"forest_stats", "all_forests", "parking_stats", "all_parking_functions"}
    package = Path(parkforest.__file__).resolve().parent
    for name in ("forest_stats.py", "exhaustive.py", "genpoly.py"):
        tree = ast.parse((package / name).read_text(), name)
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        assert not named & cores, f"{name} names {sorted(named & cores)}"
        if name == "forest_stats.py":
            from_forest = {
                a.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "forest"
                for a in node.names
            }
            assert from_forest == {"Forest", "validate_forest"}, sorted(from_forest)
        if name == "genpoly.py":
            assert not named & objects, f"{name} names {sorted(named & objects)}"


def test_every_private_module_name_has_a_reader():
    # Code with no caller goes: a module-level private name (a function,
    # class or constant) that no other statement of the package reads is
    # dead.  A reference from its own body, as in a recursion, does not
    # count.  The tests do not count either, so a helper kept only for
    # them fails here.
    package = Path(parkforest.__file__).resolve().parent
    defined = {}  # (module, name) -> the statement binding it
    reads = []  # (statement, the names it reads or imports)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            else:
                bound = []
            for name in bound:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(path.name, name)] = stmt
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read |= {a.name for a in node.names}
            reads.append((stmt, read))
    assert len({name for _, name in defined}) >= 50, sorted(defined)
    dead = [
        f"{module}: {name}"
        for (module, name), stmt in defined.items()
        if not any(name in read for other, read in reads if other is not stmt)
    ]
    assert not dead, dead
