"""Mutation pass over the refusals: is every ``raise`` statement in ``src/phenokey`` held by a test?

Run from anywhere: ``python tests/mutate_raises.py``. The checkout, without ``.git``, is copied to a temporary
directory, and the working tree is never written. For each ``raise`` in turn, the copy's statement is replaced by
``pass`` and the tier-1 suite runs on the copy with ``-x``. A mutant that passes every test survives: no test holds
its refusal. The script prints each survivor as ``file:line: statement``, then the count and the wall time, and
exits 1 when any mutant survives. Tier-1 runs once per ``raise``, so a pass takes about that many suite runs.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def raises(source: str) -> list:
    """The (start line, start column, end line, end column) of each ``raise`` statement of ``source``, in order."""
    spans = [(n.lineno, n.col_offset, n.end_lineno, n.end_col_offset)
             for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
    return sorted(spans)


def mutant(source: str, span) -> str:
    """``source`` with the statement at ``span`` replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    start, col, end, end_col = span
    lines[start - 1:end] = [lines[start - 1][:col] + "pass" + lines[end - 1][end_col:]]
    return "".join(lines)


def main() -> int:
    began, survivors, count = time.perf_counter(), [], 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        for path in sorted((copy / "src" / "phenokey").glob("*.py")):
            source = path.read_text(encoding="utf-8")
            for span in raises(source):
                count += 1
                path.write_text(mutant(source, span), encoding="utf-8")
                tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                                       cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                if tests.returncode == 0:
                    text = source.splitlines()[span[0] - 1].strip()
                    survivors.append(f"{path.relative_to(copy)}:{span[0]}: {text}")
                    print(survivors[-1], flush=True)
            path.write_text(source, encoding="utf-8")
    print(f"{len(survivors)} of {count} mutants survived ({time.perf_counter() - began:.0f} s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
