"""Run one phenokey command with spans recorded around public functions.

    python3 perfbench/tracer.py SPANS.json <phenokey arguments...>

The wrappers are installed from outside the package: each traced function is
replaced in every phenokey module that holds a reference to it (``cli``
imports functions by name, so patching the defining module alone would miss
those calls). Spans are kept in memory and written to SPANS.json when the
command returns; the process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (defining module, attribute) of every traced function. A name a later
# version of the program no longer has is reported as missing, not an error.
TRACED = (
    ("phenokey.dataset", "parse_coco"),
    ("phenokey.dataset", "validate"),
    ("phenokey.dataset", "dataset_to_coco_dict"),
    ("phenokey.dataset", "serialize_coco"),
    ("phenokey.synth", "generate_population"),
    ("phenokey.synth", "perturb"),
    ("phenokey.metrics", "evaluate_datasets"),
    ("phenokey.metrics", "oks_per_image"),
    ("phenokey.metrics", "pck"),
    ("phenokey.metrics", "pmp"),
    ("phenokey.metrics", "report_to_dict"),
    ("phenokey.metrics", "shortest_phenotype_lengths"),
    ("phenokey.morphometry", "measure_all"),
    ("phenokey.anatomy", "fit_prior"),
    ("phenokey.anatomy", "box_for_keypoints"),
    ("phenokey.anatomy", "acr_loss"),
    ("phenokey.anatomy", "acr_gradient"),
    ("phenokey.optim", "make_toy_problem"),
    ("phenokey.optim", "train"),
    ("phenokey.optim", "BoxBatch.violations"),
    ("phenokey.optim", "BoxBatch.signs"),
    ("phenokey.optim", "gradnorm_step"),
    ("phenokey.plots", "plot_deviation_summary"),
    ("phenokey.cli", "main"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Byte counters: the file a call reads or writes, given its arguments.
_BYTES = {
    "dataset.parse_coco": lambda args, kwargs: _file_size(args[0] if args else kwargs.get("path")),
    "dataset.serialize_coco": lambda args, kwargs: _file_size(args[1] if len(args) > 1 else kwargs.get("path")),
}


class Recorder:
    """Spans as [name, start, end, parent index, bytes], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_bytes = _BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if count_bytes is not None:
                    span[4] = count_bytes(args, kwargs)

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced function; returns the names that could not be found."""
    import phenokey.cli  # noqa: F401  (loads every module the commands use)

    modules = [m for name, m in sys.modules.items() if name == "phenokey" or name.startswith("phenokey.")]
    missing = []
    for module_name, qualname in TRACED:
        name = f"{module_name.removeprefix('phenokey.')}.{qualname}"
        owner = sys.modules.get(module_name)
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.append(name)
            continue
        wrapped = recorder.wrap(name, original)
        if cls_path:
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = install(recorder)
    import phenokey.cli

    code = phenokey.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
