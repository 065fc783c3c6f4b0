import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import phenokey
from phenokey.errors import positive_number


def test_package_imports_only_numpy_and_the_stdlib():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = []
    for path in sorted(Path(phenokey.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside += [f"{path.name}: {name}" for name in names if name.partition(".")[0] not in allowed]
    assert outside == []


def test_every_name_the_demos_import_from_phenokey_resolves():
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    imported = [
        (path.name, node.module, alias.name)
        for path in demos
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "phenokey"
        for alias in node.names
    ]
    assert demos and imported
    assert [f"{demo}: {module}.{name}" for demo, module, name in imported
            if not hasattr(importlib.import_module(module), name)] == []


@pytest.mark.parametrize(
    "value, positive, nonnegative",
    [(1, True, True), (0.5, True, True), (np.float64(2.0), True, True), (0, False, True), (np.int64(0), False, True),
     (-1e-300, False, False), (True, False, False), (False, False, False), (10**400, False, False),
     (-10**400, False, False), (float("inf"), False, False), (float("nan"), False, False), ("1", False, False),
     (None, False, False)],
)
def test_number_tests_take_finite_reals_and_no_bool(value, positive, nonnegative):
    assert (positive_number(value), positive_number(value, zero=True)) == (positive, nonnegative)
