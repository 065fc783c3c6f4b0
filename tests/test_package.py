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


# calls that open a file for writing without `open`: a Path method, a csv writer, numpy's file writers
_WRITING_CALLS = {"write_text", "write_bytes", "writer", "DictWriter", "tofile", "savetxt"}
_MODE_SECOND = ("builtins", "os", "io")    # whose `open` takes the mode or flags second; `Path.open` takes it first


def _is_write_mode(node) -> bool:
    """A mode argument of `open` that may write: a text with one of w, a, x or +, or anything but a text."""
    return not (isinstance(node, ast.Constant) and isinstance(node.value, str)) or bool(set(node.value) & set("wax+"))


def _writes(source: str) -> list:
    """``(function, call, line)`` of each call in ``source`` that opens a file for writing: `open` (builtin, `os` or
    `Path`) with a mode or flags that may write, or a call named in ``_WRITING_CALLS``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = child.func.attr if isinstance(child.func, ast.Attribute) else getattr(child.func, "id", None)
                owner = getattr(child.func.value, "id", None) if isinstance(child.func, ast.Attribute) else "builtins"
                on_path = owner not in _MODE_SECOND
                modes = [kw.value for kw in child.keywords if kw.arg in ("mode", "flags")]
                modes += child.args[:1] if on_path else child.args[1:2]
                if name in _WRITING_CALLS or (name == "open" and any(map(_is_write_mode, modes))):
                    found.append((function, name, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_the_writer_opens_a_file_for_writing():
    found = {path.name: _writes(path.read_text(encoding="utf-8"))
             for path in sorted(Path(phenokey.__file__).parent.glob("*.py"))}
    assert [(name, call) for name, calls in found.items() for _, call, _ in calls] == [("jsontext.py", "open")]
    assert [function for function, _, _ in found["jsontext.py"]] == ["write_whole"]


@pytest.mark.parametrize("source, writes", [
    ('open(p, "w")', True), ('open(p, mode="a", encoding="utf-8")', True), ('open(p, "r+")', True),
    ("open(p, m)", True), ('Path(p).open("x")', True), ("os.open(p, os.O_WRONLY)", True),
    ('Path(p).write_text("t")', True), ('p.write_bytes(b"t")', True), ("csv.writer(fh)", True),
    ("csv.DictWriter(fh, names)", True), ("arr.tofile(p)", True), ("np.savetxt(p, arr)", True),
    ("open(p)", False), ('open(p, encoding="utf-8")', False), ('open(p, "rb")', False), ("Path(p).open()", False),
    ("io.open(p)", False), ("os.open(p, os.O_RDONLY)", True),    # flags that are no text count as a write
    ("csv.reader(fh)", False), ("fh.write(text)", False), ("write_whole(p, pieces)", False),
])
def test_the_scan_finds_each_way_to_open_a_file_for_writing(source, writes):
    assert bool(_writes(f"def f():\n    {source}\n")) == writes


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
