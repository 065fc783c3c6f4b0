"""Closed-loop benchmark of the phenokey command line.

    python3 perfbench/run.py --workload score_5k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``./src``. One client runs one ``phenokey`` process at a time, the way a user
runs the CLI, and cycles round-robin through the workload's commands until
``--seconds`` have passed, so every command samples the whole run. Each
operation is timed on its own; a metric is a median over operations, never
the time of one multi-command pass.

Workloads (inputs made from ``--seed``; the program sees only files and flags):

* ``score_5k``  - read side: ``evaluate --metric all``, ``measure``, ``prior``,
  ``acr`` and ``plot --kind deviation`` on a 5,000-fish ground truth and its
  uniform-noise predictions (about 8.4 MB each), with hidden keypoints;
* ``synth_5k``  - write side: a plain and a perturbed 5,000-fish ``synth``;
* ``train_toy`` - ``train-toy --steps 4000 --acr on``, small-matrix compute.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``round_s`` (the sum over the workload's commands of each command's median
wall time), ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` it alternates
untraced rounds with rounds run under ``tracer.py`` and reports the
per-layer metrics: the self time per round of each traced function, exact
call and byte counts, each command's untraced median, the interpreter start
plus import time, and the tracing overhead.

The first output of every command is checked against a numpy recomputation
(``checks.py``); every later output must be byte-identical to it. A non-zero
exit or a failed check counts as a failed operation and makes the result
``"correct": false``; its time still counts. The last line of
standard output is the JSON result; the line before it holds the run's
metadata. ``--fish`` overrides the population size for the layer table and
the self-test; gated runs keep the default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
DEFAULT_FISH = 5000
TRAIN_STEPS = 4000
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"

CLI_STUB = "import sys; from phenokey.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = "import phenokey.cli"

# Per-layer metrics: (name, unit). Self times and counts are per round, that
# is per pass over the workload's commands; a layer a workload never calls
# reads 0 there.
SELF_TIMED = (
    "dataset.parse_coco", "dataset.validate", "dataset.dataset_to_coco_dict",
    "dataset.serialize_coco", "synth.generate_population", "synth.perturb",
    "metrics.evaluate_datasets", "metrics.oks_per_image", "metrics.pck", "metrics.pmp",
    "metrics.report_to_dict", "metrics.shortest_phenotype_lengths", "morphometry.measure_all", "anatomy.fit_prior",
    "anatomy.box_for_keypoints", "anatomy.acr_loss", "anatomy.acr_gradient",
    "optim.make_toy_problem", "optim.train", "optim.BoxBatch.violations",
    "optim.BoxBatch.signs", "optim.gradnorm_step", "plots.plot_deviation_summary",
)
CALL_COUNTED = {
    "metrics.shortest_phenotype_lengths.calls": "metrics.shortest_phenotype_lengths",
    "morphometry.measure_all.calls": "morphometry.measure_all",
    "anatomy.acr.calls": "anatomy.acr_loss",
}
COMMAND_LABELS = ("evaluate", "measure", "prior", "acr", "plot", "synth", "synth_perturbed", "train_toy")
PER_LAYER = (
    [(f"{name}.s", "s") for name in SELF_TIMED]
    + [("dataset.parse_coco.mb_per_s", "MB/s"), ("dataset.serialize_coco.bytes", "bytes"),
       ("optim.train.step_us", "us")]
    + [(name, "count") for name in CALL_COUNTED]
    + [("cli.import_s", "s")]
    + [(f"cli.{label}.self_s", "s") for label in COMMAND_LABELS]
    + [(f"cli.{label}.wall_s", "s") for label in COMMAND_LABELS]
    + [("tracing.overhead_s", "s")]
)
END_TO_END = (("round_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Command:
    """One CLI command of a workload, with the check of its first output."""

    label: str
    args: list[str]
    outputs: list[Path]
    check: Callable[[list[str]], list[str]]   # output texts -> problems


def _score_setup(workdir: Path, seed: int, fish: int) -> list[Command]:
    data = inputs.make_fish(fish, seed)
    files = inputs.write_score_inputs(data, workdir)
    gt, pred, prior_in = str(files.gt), str(files.pred), str(files.prior)
    prior_doc = json.loads(files.prior.read_text(encoding="utf-8"))
    out = workdir / "out"
    return [
        Command("evaluate", ["evaluate", "--gt", gt, "--pred", pred, "--metric", "all",
                             "--out", str(out / "report.json")],
                [out / "report.json"], lambda t: checks.check_evaluate(json.loads(t[0]), data)),
        Command("measure", ["measure", "--input", gt, "--out", str(out / "measures.csv")],
                [out / "measures.csv"], lambda t: checks.check_measure(t[0], data)),
        Command("prior", ["prior", "--train", gt, "--out", str(out / "prior.json")],
                [out / "prior.json"], lambda t: checks.check_prior(json.loads(t[0]), data)),
        Command("acr", ["acr", "--pred", pred, "--prior", prior_in, "--out", str(out / "acr.json")],
                [out / "acr.json"], lambda t: checks.check_acr(json.loads(t[0]), data, prior_doc)),
        Command("plot", ["plot", "--kind", "deviation", "--gt", gt, "--pred", f"model={pred}",
                         "--out", str(out / "deviation.svg"), "--csv", str(out / "deviation.csv")],
                [out / "deviation.svg", out / "deviation.csv"],
                lambda t: checks.check_plot(t[0], t[1], data)),
    ]


def _synth_setup(workdir: Path, seed: int, fish: int) -> list[Command]:
    out = workdir / "out"
    common = ["--n", str(fish), "--seed", str(seed)]
    return [
        Command("synth", ["synth", "--template", "deep_bodied", *common, "--role", "train",
                          "--out", str(out / "plain.json")],
                [out / "plain.json"], lambda t: checks.check_synth(t[0], fish, "train")),
        Command("synth_perturbed", ["synth", "--template", "elongate", *common,
                                    "--perturb", "proportional_to_shortest_phenotype",
                                    "--magnitude", "0.05", "--out", str(out / "perturbed.json")],
                [out / "perturbed.json"], lambda t: checks.check_synth(t[0], fish, "train")),
    ]


def _train_setup(workdir: Path, seed: int, fish: int) -> list[Command]:
    trace = workdir / "out" / "trace.csv"
    return [Command("train_toy", ["train-toy", "--seed", str(seed), "--steps", str(TRAIN_STEPS),
                                  "--acr", "on", "--trace", str(trace)],
                    [trace], lambda t: checks.check_trace(t[0], TRAIN_STEPS))]


# workload name -> set-up: (work dir, seed, fish) -> commands, after writing any inputs
WORKLOADS: dict[str, Callable[[Path, int, int], list[Command]]] = {
    "score_5k": _score_setup,
    "synth_5k": _synth_setup,
    "train_toy": _train_setup,
}


# ---------------------------------------------------------------------------
# running operations


@dataclass
class OpResult:
    wall_s: float
    ok: bool
    spans: dict | None = None   # the tracer's output, for traced operations


@dataclass
class Runner:
    """Runs operations, checks their outputs and keeps the counts."""

    root: Path
    workdir: Path
    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)   # label -> output digests of the checked output

    def spawn(self, argv: list[str]) -> tuple[float, int | None]:
        """Run one process to completion: (wall seconds, exit code or None on timeout)."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            try:
                code = subprocess.run(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err, timeout=OP_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
            return time.perf_counter() - start, code

    def run(self, cmd: Command, traced: bool = False) -> OpResult:
        spans_path = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *cmd.args]
        else:
            argv = [sys.executable, "-c", CLI_STUB, *cmd.args]
        for path in [*cmd.outputs, spans_path]:
            path.unlink(missing_ok=True)
        self.attempted += 1
        wall, code = self.spawn(argv)
        problems = self._verify(cmd, code)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return OpResult(wall, False)
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if traced else None
        return OpResult(wall, True, spans)

    def _verify(self, cmd: Command, code: int | None) -> list[str]:
        if code is None:
            return [f"{cmd.label}: no exit within {OP_TIMEOUT_S} s"]
        if code != 0:
            tail = (self.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
            return [f"{cmd.label}: exit code {code}: {tail.strip()}"]
        try:
            blobs = [p.read_bytes() for p in cmd.outputs]
        except OSError as exc:
            return [f"{cmd.label}: missing output: {exc}"]
        digests = [hashlib.sha256(b).hexdigest() for b in blobs]
        if cmd.label in self.reference:
            if digests != self.reference[cmd.label]:
                return [f"{cmd.label}: output differs from the first output"]
            return []
        try:
            found = cmd.check([b.decode("utf-8") for b in blobs])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"{cmd.label}: unreadable output: {exc!r}"]
        if not found:
            self.reference[cmd.label] = digests
        return found

    def import_probe(self) -> float | None:
        self.attempted += 1
        wall, code = self.spawn([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            self.failed += 1
            self.problems.append(f"import probe: exit code {code}")
            return None
        return wall


# ---------------------------------------------------------------------------
# trace aggregation


def _span_totals(doc: dict) -> dict:
    """name -> [inclusive seconds, self seconds, calls, bytes] for one traced operation."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, nbytes) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0.0, 0, 0])
        entry[0] += end - start
        entry[1] += end - start - child[i]
        entry[2] += 1
        entry[3] += nbytes
    return totals


def _layer_round(ops: list[tuple[str, OpResult]]) -> dict:
    """Per-layer values of one traced round."""
    merged: dict = {}
    cli_self = {}
    for label, res in ops:
        totals = _span_totals(res.spans)
        for name, entry in totals.items():
            merged[name] = [a + b for a, b in zip(merged.get(name, [0.0, 0.0, 0, 0]), entry)]
        cli_self[label] = totals.get("cli.main", [0.0, 0.0])[1]
    get = lambda name, i: merged.get(name, [0.0, 0.0, 0, 0])[i]  # noqa: E731
    values = {f"{name}.s": get(name, 1) for name in SELF_TIMED}
    parse_s = get("dataset.parse_coco", 0)
    values["dataset.parse_coco.mb_per_s"] = get("dataset.parse_coco", 3) / 1e6 / parse_s if parse_s else 0.0
    values["dataset.serialize_coco.bytes"] = get("dataset.serialize_coco", 3)
    values["optim.train.step_us"] = get("optim.train", 0) / TRAIN_STEPS * 1e6
    for metric, name in CALL_COUNTED.items():
        values[metric] = get(name, 2)
    for label in COMMAND_LABELS:
        values[f"cli.{label}.self_s"] = cli_self.get(label, 0.0)
    return values


# ---------------------------------------------------------------------------
# the run


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PHENOKEY_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip()) if out.returncode == 0 and out.stdout.strip() else None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_sha(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run(workload: str, seed: int, seconds: float, trace: bool, fish: int, root: Path) -> dict:
    """One benchmark run; returns the result object (plus a ``meta`` entry)."""
    workdir = root / WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        runner = Runner(root, workdir, _child_env(root))

        # Set-up: generate the inputs (repeated; the median counts), then one
        # untimed-for-the-metrics warm-up of each command, whose output is
        # the one checked against the recomputation.
        gen_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            commands = WORKLOADS[workload](workdir, seed, fish)
            gen_times.append(time.perf_counter() - start)
        input_sizes = {p.name: p.stat().st_size for p in sorted(workdir.glob("*.json"))}
        warm = [runner.run(cmd) for cmd in commands]
        setup_s = _median(gen_times) + sum(r.wall_s for r in warm)

        walls: dict = {c.label: [] for c in commands}
        traced_walls: dict = {c.label: [] for c in commands}
        layer_rounds: list = []
        untraced_names: list = []
        imports: list = []
        deadline = time.perf_counter() + seconds
        if not trace:
            i = 0
            while i < len(commands) or time.perf_counter() < deadline:
                cmd = commands[i % len(commands)]
                i += 1
                walls[cmd.label].append(runner.run(cmd).wall_s)
        else:
            rounds = 0
            while rounds < 2 or time.perf_counter() < deadline:
                traced = rounds % 2 == 1
                done = [(cmd.label, runner.run(cmd, traced)) for cmd in commands]
                rounds += 1
                if not traced:
                    probe = runner.import_probe()
                    if probe is not None:
                        imports.append(probe)
                for label, res in done:
                    (traced_walls if traced else walls)[label].append(res.wall_s)
                if traced and all(res.ok for _, res in done):
                    layer_rounds.append(_layer_round(done))
                    untraced_names = done[0][1].spans["missing"]

        medians = {label: _median(v) for label, v in walls.items()}
        if trace:
            per_layer = {name: _median([r[name] for r in layer_rounds]) for name in layer_rounds[0]} \
                if layer_rounds else {}
            per_layer["cli.import_s"] = _median(imports)
            for label in COMMAND_LABELS:
                per_layer[f"cli.{label}.wall_s"] = medians.get(label, 0.0)
            per_layer["tracing.overhead_s"] = sum(
                _median(traced_walls[label]) - medians[label] for label in medians)
            values, units = per_layer, dict(PER_LAYER)
        else:
            # the largest resident set of any child so far (KiB on Linux)
            peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            values = {"round_s": sum(medians.values()), "setup_s": setup_s, "peak_rss_mb": peak_mb}
            units = dict(END_TO_END)

        metrics = {name: {"value": values.get(name, float("nan")), "unit": unit} for name, unit in units.items()}
        meta = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "fish": fish,
            "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": _git_sha(root), "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"), "input_bytes": input_sizes,
            "setup": {"generate_s": gen_times, "warmup_s": {c.label: r.wall_s for c, r in zip(commands, warm)}},
            # how many samples each metric rests on
            "samples": {
                "per_command": {label: len(v) for label, v in walls.items()},
                "traced_per_command": {label: len(v) for label, v in traced_walls.items()},
                "traced_rounds": len(layer_rounds), "import_probes": len(imports),
                "setup_generations": SETUP_REPEATS, "processes": runner.attempted,
            },
            "walls_s": walls, "medians_s": medians, "untraced_functions": untraced_names,
            "problems": runner.problems[:20],
        }
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
            "meta": meta,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fish", type=int, default=DEFAULT_FISH,
                        help="population size override (layer table, self-test); gated runs keep the default")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "phenokey" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no phenokey sources under {root / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2
    # seeds feed numpy generators, which take non-negative integers
    result = run(args.workload, args.seed % 2**31, args.seconds, bool(args.trace), args.fish, root)
    meta = result.pop("meta")
    for problem in meta["problems"]:
        sys.stderr.write(f"perfbench: {problem}\n")
    if not all(np.isfinite(m["value"]) for m in result["metrics"].values()):
        sys.stderr.write("perfbench: no traced round completed correctly; no result\n")
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
