"""Command-line interface: one subcommand per workflow.

Exit codes: 0 success, 1 data/validation failure, 2 usage error. Data goes
to files, each whole or absent, or stdout (:func:`phenokey.jsontext.write_whole`).
Each stderr line is an ``error:`` line, a status line or a ``warning:`` line,
which :func:`main` writes for every warning the command issues; the warning
filters stay as they are. Output is byte-identical across runs for identical
flags and seeds (reports never embed timestamps). JSON reports are
``json.dumps(doc, indent=2)`` text written with the C encoder and never contain
NaN or infinities: such a report is refused (exit 1) and no file is left.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .anatomy import acr_hinge, dataset_boxes, fit_prior, prior_from_dict, prior_to_dict
from .dataset import parse_coco, serialize_coco, validate
from .errors import (DegenerateMeasurementWarning, DegeneratePoseError, DivergenceError, IntegrityError, ParseError,
                     PhenokeyError, PhenokeyWarning, SchemaError, named)
from .jsontext import csv_field, doc_field, dump, read_json, write_whole
from .metrics import (
    METRICS,
    PCK_SCALE_MODES,
    EvalConfig,
    _paired_datasets,
    evaluate_datasets,
    phenotype_value_pairs,
)
from .morphometry import ABBREVS, check_annotated_finite, degenerate_messages, measurement_rows
from .optim import ToyPredictor, TrainConfig, make_toy_problem, train
from .plots import plot_deviation_summary, plot_scatter
from .schema import KEYPOINT_COUNT, SPECIES
from .synth import PerturbationModel, generate_population, load_template, perturb


def _cmd_validate(args) -> int:
    dataset = parse_coco(args.input)
    violations = validate(dataset)
    write_whole(None, (f"{v}\n" for v in violations))
    if violations:
        raise PhenokeyError(f"{args.input}: {len(violations)} violation(s)")
    sys.stderr.write(f"{args.input}: ok ({len(dataset)} records)\n")
    return 0


# the header of the `measure` CSV, which `report` reads back
MEASURE_HEADER = ("image_id", "abbrev", "value_px", "status")


def _cmd_measure(args) -> int:
    dataset = parse_coco(args.input)
    with named(args.input, SchemaError):
        check_annotated_finite(dataset.xy, dataset.v, dataset.image_ids)
    lengths, status, hidden = measurement_rows(dataset.xy, dataset.v)
    for message in degenerate_messages(dataset.image_ids, status):
        warnings.warn(message, DegenerateMeasurementWarning)
    ids = np.array([csv_field(image_id) for image_id in dataset.image_ids], dtype=object)[:, None]
    # csv writes a float as str(value), which is its repr, and a skipped value as an empty field
    values = np.array(list(map(repr, lengths.ravel().tolist())), dtype=object).reshape(lengths.shape)
    fields = np.stack(np.broadcast_arrays(ids, np.where(hidden > 0, "", values), status), axis=-1)
    row = "".join(f"%s,{abbrev},%s,%s\r\n" for abbrev in ABBREVS)
    write_whole(args.out, (",".join(MEASURE_HEADER) + "\r\n", row * len(dataset) % tuple(fields.ravel().tolist())))
    return 0


_CONFIG_KEYS = tuple(f.name for f in fields(EvalConfig))


def _config_values(doc) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise SchemaError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}; known keys are {', '.join(_CONFIG_KEYS)}"
        )
    EvalConfig(**doc)  # its message names the field
    return doc


def _eval_config(args) -> EvalConfig:
    # precedence: flags > config file > defaults
    values = read_json(args.config, _config_values) if args.config else {}
    if args.r is not None:
        values["pmp_threshold"] = args.r
        if args.pck_threshold is None:
            values["pck_threshold"] = args.r
    if args.pck_threshold is not None:
        values["pck_threshold"] = args.pck_threshold
    if args.pck_scale is not None:
        values["pck_scale_mode"] = args.pck_scale
    if args.oks_scale is not None:
        values["oks_scale"] = args.oks_scale
    return EvalConfig(**values)


def _with_predictions(gt_path, path, fn):
    """``fn`` of the parsed prediction file ``path``; the integrity errors and the warnings of ``fn`` name that file,
    and its schema errors, which only a ground-truth value raises, name the ground-truth file ``gt_path``."""
    pred = parse_coco(path)
    caught = []
    try:
        with (named(f"prediction file {path}", IntegrityError), named(gt_path, SchemaError),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")    # each is issued again below, under the caller's filters
            return fn(pred)
    finally:
        for w in caught:
            warnings.warn(f"prediction file {path}: {w.message}", w.category)


def _cmd_evaluate(args) -> int:
    gt = parse_coco(args.gt)
    cfg = _eval_config(args)
    metrics = METRICS if args.metric == "all" else (args.metric,)
    report = _with_predictions(args.gt, args.pred, lambda pred: evaluate_datasets(gt, pred, cfg, metrics=metrics))
    dump({**report, "metric": args.metric}, args.out)
    return 0


def _cmd_prior(args) -> int:
    dataset = parse_coco(args.train)
    species = args.species
    if species is not None:
        rows = np.flatnonzero(dataset.species == SPECIES.index(species))
        if not rows.size:
            raise PhenokeyError(f"no records with species {species!r} in {args.train}")
        dataset = dataset.take(rows)
    with named(args.train, SchemaError, DegeneratePoseError):    # no fish, a keypoint never seen, a fish with no frame
        prior = fit_prior(dataset, species=species or "other")
    dump(prior_to_dict(prior), args.out)
    return 0


def _cmd_acr(args) -> int:
    pred = parse_coco(args.pred)
    prior = read_json(args.prior, prior_from_dict, name=f"prior file {args.prior}")
    with named(args.pred, DegeneratePoseError):
        violations, grad = acr_hinge(pred.xy, dataset_boxes(prior, pred))
    for n, k in np.argwhere(~np.isfinite(violations).all(axis=2))[:1].tolist():    # NaN or inf on a hidden keypoint
        raise PhenokeyError(f"{args.pred}: image {pred.image_ids[n]!r}: K-{k + 1} has a non-finite ACR hinge")
    # each image's loss sums its 44 contiguous hinge values; the total adds them left to right
    losses = violations.reshape(-1, 2 * KEYPOINT_COUNT).sum(axis=1).tolist()
    total = 0.0
    for loss in losses:
        total += loss
    # a keypoint is outside when either gradient coordinate is nonzero: its two bool bytes read as one uint16
    outside = np.count_nonzero((grad != 0).view(np.uint16)[..., 0], axis=1).tolist()
    per_image = [
        {"image_id": image_id, "loss": loss, "keypoints_outside": count, "gradient": rows}
        for image_id, loss, count, rows in zip(pred.image_ids, losses, outside, grad.tolist())
    ]
    dump({"schema_version": 1, "total_loss": total, "per_image": per_image}, args.out)
    return 0


def _cmd_train_toy(args) -> int:
    cfg = TrainConfig(
        steps=args.steps,
        lr=args.lr,
        lr_decay=args.lr_decay,
        lr_weights=args.lr_weights,
        alpha=args.alpha,
        use_acr=(args.acr == "on"),
    )
    problem = make_toy_problem(args.n, args.feature_dim, args.seed, load_template(args.template))
    predictor = ToyPredictor.mean_baseline(problem.targets, args.feature_dim)
    try:
        _, trace = train(predictor, problem, cfg)
    except DivergenceError as exc:
        exc.trace.to_csv(args.trace)    # the steps up to the divergence
        raise
    trace.to_csv(args.trace)
    last = trace[-1]
    sys.stderr.write(
        f"finished {args.steps} steps: L_mse={last.l_mse:.6g} L_acr={last.l_acr:.6g} "
        f"violations={last.violation_count}\n"
    )
    return 0


def _cmd_synth(args) -> int:
    template = load_template(args.template)
    dataset = generate_population(template, args.n, seed=args.seed, role=args.role)
    if args.perturb is not None:
        model = PerturbationModel(mode=args.perturb, magnitude=args.magnitude, seed=args.seed)
        dataset = perturb(dataset, model)
    serialize_coco(dataset, args.out)
    sys.stderr.write(f"wrote {len(dataset)} records to {args.out}\n")
    return 0


def _cmd_plot(args) -> int:
    if args.kind == "scatter" and len(args.pred) > 1:
        sys.stderr.write("error: a scatter plot takes one --pred\n")
        return 2
    if args.kind == "deviation" and args.out == "-" and args.csv in (None, "-"):    # no `-.csv`, no mixed stdout
        sys.stderr.write("error: a deviation plot on stdout (--out -) needs a --csv file for its quantiles\n")
        return 2
    gt = parse_coco(args.gt)
    deviations = {}
    for spec_item in args.pred:
        label, _, path = spec_item.partition("=")
        if not path:
            label, path = spec_item, spec_item
        if args.kind == "scatter":
            values = _with_predictions(args.gt, path, lambda pred: phenotype_value_pairs(gt, pred, args.phenotype))
            if (kept := len(values[0])) < 2:
                raise PhenokeyError(f"{args.phenotype}: {kept} usable pair(s) with prediction file {path} "
                                    f"({len(gt) - kept} left out), a scatter needs at least 2")
            plot_scatter(list(zip(*values)), args.out, title=args.phenotype)
            return 0
        pairs = _with_predictions(args.gt, path, lambda pred: _paired_datasets(gt, pred))
        # a non-finite predicted coordinate is a miss, as in `evaluate`, with no place on a pixel axis
        finite = np.isfinite(pairs.pred_xy).all(axis=-1)[pairs.annotated]
        if not finite.all():
            warnings.warn(f"{label}: {int((~finite).sum())} non-finite predicted keypoints left out", PhenokeyWarning)
        if not finite.any():
            raise PhenokeyError(f"{label}: no finite deviation to plot")
        deviations[label] = pairs.deviations[pairs.annotated][finite].tolist()
    plot_deviation_summary(deviations, args.out, csv_path=args.csv)
    return 0


def _evaluation(doc) -> dict:
    """An `evaluate` report, recognised by its schema version and sample count."""
    if doc_field(doc, "schema_version") != 1:
        raise SchemaError(f"field 'schema_version' must be 1, got {doc['schema_version']!r}")
    doc_field(doc, "n_samples")
    return doc


def _cmd_report(args) -> int:
    evaluation = read_json(args.evaluation, _evaluation)
    measurements = []
    with open(args.measures, encoding="utf-8", newline="") as fh:    # csv reads a quoted line break as written
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if tuple(header or ()) != MEASURE_HEADER:
                raise SchemaError(f"{args.measures}: header must be {','.join(MEASURE_HEADER)}, got {header}")
            for row in filter(None, reader):    # a blank line is no row
                if len(row) != len(header):
                    raise SchemaError(f"{args.measures}: line {reader.line_num}: "
                                      f"{len(row)} fields, expected {len(header)}")
                measurements.append(dict(zip(MEASURE_HEADER, row)))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.measures}: {exc}") from exc
        except csv.Error as exc:    # a field over csv's size limit, say
            raise ParseError(f"{args.measures}: line {reader.line_num}: {exc}") from exc
    dump({"schema_version": 1, "evaluation": evaluation, "measurements": measurements}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenokey",
        description="Fish morphometric keypoint evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an annotation file against all invariants")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("measure", help="measure the 23 phenotypes per image as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--metric", choices=["oks", "pck", "pmp", "all"], default="all")
    p.add_argument("--r", type=float, default=None, help="threshold (default 0.1)")
    p.add_argument("--pck-threshold", type=float, default=None)
    p.add_argument("--pck-scale", choices=list(PCK_SCALE_MODES), default=None)
    p.add_argument("--oks-scale", type=float, default=None)
    p.add_argument("--config", default=None, help="JSON file with EvalConfig overrides")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("prior", help="fit the anatomical prior from training ground truth")
    p.add_argument("--train", required=True)
    p.add_argument("--species", choices=list(SPECIES), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_prior)

    p = sub.add_parser("acr", help="evaluate box-constraint loss/gradient for predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_acr)

    p = sub.add_parser("train-toy", help="run the toy constrained trainer, writing a trace CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=2.0)
    p.add_argument("--lr-decay", type=float, default=0.0)
    p.add_argument("--acr", choices=["on", "off"], default="on")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--lr-weights", type=float, default=0.025)
    p.add_argument("--n", type=int, default=48)
    p.add_argument("--feature-dim", type=int, default=6)
    p.add_argument("--template", default="deep_bodied")
    p.add_argument("--trace", required=True, help="trace CSV output path")
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("synth", help="generate a synthetic population (optionally perturbed)")
    p.add_argument("--template", required=True, help="built-in name or template JSON path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--role", choices=["train", "test"], default="train")
    p.add_argument("--perturb", choices=["uniform_px", "proportional_to_shortest_phenotype"],
                   default=None)
    p.add_argument("--magnitude", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("plot", help="emit SVG plots (scatter with fit, deviation boxes)")
    p.add_argument("--kind", choices=["scatter", "deviation"], required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", action="append", required=True,
                   help="prediction file, as LABEL=FILE or FILE; repeatable for deviation plots")
    p.add_argument("--phenotype", choices=ABBREVS, default="TL",
                   help="phenotype abbreviation for scatter plots")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="quantile CSV path (deviation plots)")
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("report", help="compose evaluate and measure outputs without recomputation")
    p.add_argument("--evaluation", required=True, help="report JSON from `evaluate`")
    p.add_argument("--measures", required=True, help="CSV from `measure`")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    with warnings.catch_warnings():
        # every warning the command issues is one `warning:` line; the filters, and so `-W error`, stay as they are
        warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
        try:
            return args.fn(args)
        except (PhenokeyError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
