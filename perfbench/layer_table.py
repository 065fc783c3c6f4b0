"""Markdown table of per-layer costs at 1k and 20k fish, from traced runs.

    python3 perfbench/layer_table.py [--seed 1] [--seconds 5] [--out layers.md]

Runs ``score_5k`` and ``synth_5k`` traced with the population size
overridden to 1,000 and to 20,000 fish, and ``train_toy`` once (its size does
not depend on the override, so its 20k column is empty), then writes one row
per layer the workload calls: self time per round in ms, or the count, rate
or byte total. Tracing overhead is the traced minus the untraced round time,
so a short run can read negative. Gated benchmark runs never use the size
override.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run

SIZES = (1000, 20000)


def _cell(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1e3:,.1f}"
    if unit in ("count", "bytes"):
        return f"{value:,.0f}"
    return f"{value:,.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="traced run length per workload and size (at least one traced round runs)")
    parser.add_argument("--out", default=None, help="markdown path (default stdout)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    results = {}
    for workload in ("score_5k", "synth_5k", "train_toy"):
        sizes = SIZES if workload != "train_toy" else SIZES[:1]
        for fish in sizes:
            sys.stderr.write(f"layer table: {workload} at {fish} fish\n")
            result = run.run(workload, args.seed, args.seconds, True, fish, root)
            if not result["correct"]:
                sys.stderr.write(f"layer table: {workload} at {fish} fish failed: {result['meta']['problems']}\n")
                return 1
            results[workload, fish] = result["metrics"]

    lines = [
        "| workload | layer | unit | 1k fish | 20k fish |",
        "|---|---|---|---:|---:|",
    ]
    for workload in ("score_5k", "synth_5k", "train_toy"):
        small = results[workload, SIZES[0]]
        large = results.get((workload, SIZES[1]))
        for name, metric in small.items():
            if not (metric["value"] or (large and large[name]["value"])):
                continue
            unit = "ms" if metric["unit"] == "s" else metric["unit"]
            big = _cell(large[name]["value"], metric["unit"]) if large else "-"
            lines.append(f"| {workload} | {name} | {unit} | {_cell(metric['value'], metric['unit'])} | {big} |")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
