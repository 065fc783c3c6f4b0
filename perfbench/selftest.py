"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py        # from the root of a source checkout

1. Runs every command of every workload once on 40 fish. Each output check
   must accept the real output and reject a corrupted copy of it: a bumped
   OKS, a changed PMP skip count, a changed measure status, a moved prior
   extreme, an ACR total that is not the sum, a moved deviation quantile, a
   dropped synth record, a truncated trace.
2. The fast annotation writer must match ``json.dumps(indent=2)``.
3. ``run.py`` on every workload, with ``--trace 0`` and ``--trace 1``, must
   print exactly the metrics BENCHMARK.json names, each with its unit.
4. ``run.py`` in a directory holding only BENCHMARK.json and the benchmark
   must exit non-zero without printing a result.

Exits 0 when every case passes; prints one line per case.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import run

FISH = 40
SEED = 3


def _bump_json(path: list, delta: float):
    def corrupt(texts: list[str]) -> list[str]:
        doc = json.loads(texts[0])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return [json.dumps(doc)] + texts[1:]
    return corrupt


def _measure_status(texts: list[str]) -> list[str]:
    lines = texts[0].splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if ",skipped:K-" in line)
    lines[i] = lines[i].replace(",skipped:K-", ",skipped:K-1", 1)
    return ["".join(lines)]


def _drop_record(texts: list[str]) -> list[str]:
    doc = json.loads(texts[0])
    doc["annotations"].pop()
    return [json.dumps(doc)]


def _truncate(texts: list[str]) -> list[str]:
    return ["".join(texts[0].splitlines(keepends=True)[:-1])]


def _plot_median(texts: list[str]) -> list[str]:
    header, row = texts[1].splitlines()[:2]
    cells = row.split(",")
    cells[3] = repr(float(cells[3]) + 0.5)
    return [texts[0], "\n".join([header, ",".join(cells)]) + "\n"]


CORRUPTIONS = {
    "evaluate": [("a bumped OKS", _bump_json(["oks", "per_image", 0, "oks"], 1e-3)),
                 ("a changed PMP skip count", _bump_json(["pmp", "skip_counts", 18], 1))],
    "measure": [("a changed skip status", _measure_status)],
    "prior": [("a moved prior extreme", _bump_json(["extremes", 2, "x_min"], 0.01))],
    "acr": [("an ACR total that is not the sum", _bump_json(["total_loss"], 1.0))],
    "plot": [("a moved deviation median", _plot_median)],
    "synth": [("a dropped record", _drop_record)],
    "synth_perturbed": [("a dropped record", _drop_record)],
    "train_toy": [("a truncated trace", _truncate)],
}


def check_the_checks(root: Path, report) -> None:
    workdir = root / run.WORK_DIR / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        runner = run.Runner(root, workdir, run._child_env(root))
        for setup in run.WORKLOADS.values():
            for cmd in setup(workdir, SEED, FISH):
                result = runner.run(cmd)
                report(f"{cmd.label}: check accepts the real output", result.ok, runner.problems)
                texts = [p.read_text(encoding="utf-8") for p in cmd.outputs]
                for what, corrupt in CORRUPTIONS[cmd.label]:
                    report(f"{cmd.label}: check rejects {what}", bool(cmd.check(corrupt(texts))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fish = inputs.make_fish(FISH, SEED)
    fast = inputs.coco_text(fish.gt_xy, fish.v, fish.gt_wh, "test")
    slow = json.dumps(inputs.coco_document(fish.gt_xy, fish.v, fish.gt_wh, "test"), indent=2) + "\n"
    report("fast annotation writer matches json.dumps(indent=2)", fast == slow)


def _run_py(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--fish", str(FISH)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_the_runs(root: Path, report) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run_py(root, workload, trace)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0 and got == expected[trace])
            report(f"run.py {workload} --trace {trace}: correct, with exactly the named metrics", ok,
                   [proc.stderr[-600:]] if not ok else [])

    bare = root / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_py(bare, spec["workloads"][0]["name"], 0)
        report("run.py without the program's sources exits non-zero and prints no result",
               proc.returncode != 0 and '"metrics"' not in proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    failures = []

    def report(name: str, ok: bool, detail=()) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)
            for line in detail:
                print(f"      {line}")

    check_the_checks(root, report)
    check_the_runs(root, report)
    try:
        (root / run.WORK_DIR).rmdir()
    except OSError:
        pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
