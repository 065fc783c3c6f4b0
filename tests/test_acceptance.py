"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s or check captured
output). The brute-force oracles live in oracles.py and share no code with
the library's vectorized paths.
"""

import json
import math
import time

import numpy as np

from phenokey.anatomy import acr_hinge, dataset_boxes, fit_prior
from phenokey.cli import main
from phenokey.dataset import Dataset, parse_coco, serialize_coco, validate
from phenokey.errors import SchemaError
from phenokey.metrics import (
    EvalConfig,
    evaluate_datasets,
    ols_fit,
    pearson,
    shortest_phenotype_lengths,
)
from phenokey.optim import (
    ToyPredictor,
    TrainConfig,
    coords_to_dataset,
    grad_check,
    least_squares_solution,
    make_toy_problem,
    train,
)
from phenokey.schema import KEYPOINT_COUNT, SPECIES
from phenokey.synth import TEMPLATES, PerturbationModel, generate_population, perturb

from conftest import DATA_DIR, keypoint_values, linear_problem, make_keypoints, rows
from oracles import oracle_oks, oracle_pck, oracle_pmp


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_metric_oracle_equivalence():
    start = time.perf_counter()
    gt = generate_population(TEMPLATES["deep_bodied"], 1000, seed=42, role="test")
    gts = [r.keypoints for r in rows(gt)]
    cfg = EvalConfig()
    worst = 0.0
    for model in (
        PerturbationModel("uniform_px", 6.0, seed=7),
        PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=8),
    ):
        pred = perturb(gt, model)
        preds = [r.keypoints for r in rows(pred)]

        report = evaluate_datasets(gt, pred, cfg, metrics=("oks", "pck", "pmp"))
        lib_oks = [row["oks"] for row in report["oks"]["per_image"]]
        ref_oks, _ = oracle_oks(preds, gts, cfg)
        for a, b in zip(lib_oks, ref_oks):
            worst = max(worst, abs(a - b))

        lib_pck = keypoint_values(report["pck"])
        for a, b in zip(lib_pck, oracle_pck(preds, gts, cfg)[0]):
            worst = max(worst, abs(a - b))

        lib_pmp = keypoint_values(report["pmp"])
        for a, b in zip(lib_pmp, oracle_pmp(preds, gts, cfg)[0]):
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-12 and elapsed < 5.0,
        f"OKS/PCK/PMP vs naive loop oracle on 1000 fish, both perturbation modes: "
        f"max abs diff {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_acr_zero_on_training():
    start = time.perf_counter()
    exact = True
    for size in (1, 2, 10, 500):
        pop = generate_population(TEMPLATES["deep_bodied"], size, seed=size)
        prior = fit_prior(pop)
        if not np.all(acr_hinge(pop.xy, dataset_boxes(prior, pop))[0] == 0.0):
            exact = False
    elapsed = time.perf_counter() - start
    _report(
        2,
        exact and elapsed < 1.0,
        f"ACR on every training ground truth for sizes 1/2/10/500 exactly 0.0, "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    problem = make_toy_problem(n=8, feature_dim=5, seed=3)
    at_optimum = least_squares_solution(problem)
    baseline = ToyPredictor.mean_baseline(problem.targets, 5)
    errs = {
        "L_MSE": grad_check(at_optimum, problem, (1.0, 0.0), probes=10_000, seed=1),
        "L_ACR": grad_check(baseline, problem, (0.0, 1.0), probes=10_000, seed=2),
        "combined": grad_check(baseline, problem, (1.0, 1.0), probes=10_000, seed=3),
    }
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    _report(
        3,
        worst < 1e-5 and elapsed < 30.0,
        f"central differences at 10,000 parameter points each (>= 1e-2 px from hinges): "
        + ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
        + f" (tol 1e-5), {elapsed:.1f}s (< 30s)",
    )


def _mean_pmp(predictor, problem):
    pred = coords_to_dataset(predictor.predict(problem.features), problem.population)
    return evaluate_datasets(problem.population, pred, metrics=("pmp",))["pmp"]["mean"]


def test_criterion_4_optimizer_sanity(acr_scenario):
    start = time.perf_counter()

    linear = linear_problem(n=64, feature_dim=6, seed=0)
    cfg = TrainConfig(steps=2000, lr=20.0, init_w_acr=0.0, lr_weights=0.0)
    trained, trace = train(ToyPredictor(np.zeros((44, 6)), np.zeros(44)), linear, cfg)
    ls = least_squares_solution(linear)
    dist = float(
        np.sqrt(np.sum((trained.weights - ls.weights) ** 2) + np.sum((trained.bias - ls.bias) ** 2))
    )

    # the ACR scenario's pair is trained once per session (conftest.acr_scenario); its time counts here
    problem, acr_pred, acr_trace = acr_scenario.problem, acr_scenario.acr_pred, acr_scenario.acr_trace
    pmp_acr = _mean_pmp(acr_pred, problem)
    pmp_mse = _mean_pmp(acr_scenario.mse_pred, problem)

    elapsed = time.perf_counter() - start + acr_scenario.seconds
    ok = (
        dist < 1e-4
        and acr_trace[0].violation_count >= 50
        and acr_trace[-1].violation_count == 0
        and pmp_acr >= pmp_mse
        and elapsed < 60.0
    )
    _report(
        4,
        ok,
        f"normal-equations distance {dist:.2e} (< 1e-4); ACR scenario: "
        f"{acr_trace[0].violation_count} initial violations (>= 50) -> "
        f"{acr_trace[-1].violation_count} final (= 0); PMP {pmp_acr:.3f} vs MSE-only "
        f"{pmp_mse:.3f} (>=); {elapsed:.1f}s (< 60s)",
    )


def _selection_trial(seed):
    gt = generate_population(TEMPLATES["deep_bodied"], 40, seed=seed, role="test")
    diag = float(
        np.mean([math.hypot(*(np.ptp(xy, axis=0))) for xy in gt.xy])
    )
    # calibrated so object-scale metrics prefer the uniform candidate while
    # the phenotype-normalized metric prefers the phenotype-aware one
    base_sigma = 0.011 * diag

    candidates = {}
    candidates["uniform"] = perturb(gt, PerturbationModel("uniform_px", base_sigma, seed=seed * 3 + 1))
    candidates["pheno_aware"] = perturb(
        gt, PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=seed * 3 + 2)
    )
    # heteroscedastic: noise concentrated on the small-phenotype keypoints
    shortest = shortest_phenotype_lengths(gt.xy, gt.v)
    small = shortest.mean(axis=0) < np.median(shortest.mean(axis=0))
    rng = np.random.default_rng(seed * 3 + 3)
    sigma = np.where(small, 3.0 * base_sigma, 0.9 * base_sigma)
    noise = rng.uniform(-1.0, 1.0, size=(len(gt), KEYPOINT_COUNT, 2)) * sigma[:, None]    # fish by fish
    candidates["small_pheno_heavy"] = Dataset(gt.xy + noise, gt.v, gt.image_ids, gt.width * 2, gt.height * 2,
                                              np.full(len(gt), SPECIES.index("other")), role="test")

    cfg = EvalConfig(pck_threshold=0.01)
    scores = {}
    for name, pred_ds in candidates.items():
        report = evaluate_datasets(gt, pred_ds, cfg)
        scores[name] = {metric: report[metric]["mean"] for metric in ("oks", "pck", "pmp", "mmape")}
    pick = {m: max(scores, key=lambda c: scores[c][m]) for m in ("oks", "pck", "pmp")}
    mmape_of = {m: scores[pick[m]]["mmape"] for m in pick}
    condition = mmape_of["pmp"] <= mmape_of["oks"] and mmape_of["pmp"] <= mmape_of["pck"]
    disagreement = pick["pmp"] != pick["oks"] or pick["pmp"] != pick["pck"]
    return condition, disagreement


def test_criterion_5_metric_selection_trend():
    trials = 20
    results = [_selection_trial(1000 + t) for t in range(trials)]
    agreeing = sum(cond for cond, _ in results)
    disagreements = sum(dis for _, dis in results)
    # the trend is only meaningful when the metrics actually pick differently
    _report(
        5,
        agreeing >= 0.8 * trials and disagreements >= trials // 2,
        f"PMP-selected predictor has mMAPE <= OKS/PCK-selected in {agreeing}/{trials} "
        f"trials (need >= {int(0.8 * trials)}); selections differed in "
        f"{disagreements}/{trials}",
    )


HAND_DATASETS = [
    ([1.0, 2.0, 3.0], [3.0, 5.0, 7.0], 2.0, 1.0, 1.0, 1.0),
    ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], -1.0, 4.0, -1.0, 1.0),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0], 0.6, 0.1, 3.0 / math.sqrt(10.0), 0.9),
    ([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 4.0, 2.0], 0.0, 3.0, 0.0, 0.0),
    ([10.0, 20.0], [13.0, 27.0], 1.4, -1.0, 1.0, 1.0),
]


def test_criterion_6_statistical_kernels():
    worst = 0.0
    for gt, pred, slope, intercept, r, r2 in HAND_DATASETS:
        got_slope, got_intercept, got_r2 = ols_fit(gt, pred)
        worst = max(
            worst,
            abs(got_slope - slope),
            abs(got_intercept - intercept),
            abs(got_r2 - r2),
            abs(pearson(gt, pred) - r),
        )
    _report(
        6,
        worst < 1e-12,
        f"pearson/ols_fit vs 5 hand-computed datasets: max abs diff {worst:.2e} (tol 1e-12)",
    )


def test_criterion_7_roundtrip_and_validation(tmp_path):
    fixture = DATA_DIR / "two_fish.json"
    ds = parse_coco(fixture)
    out = tmp_path / "rt.json"
    serialize_coco(ds, out)
    roundtrip_exact = parse_coco(out) == ds

    doc = json.loads(fixture.read_text())
    doc["annotations"][0]["keypoints"] = doc["annotations"][0]["keypoints"][:63]
    bad = tmp_path / "bad_triplets.json"
    bad.write_text(json.dumps(doc))
    triplet_flagged = 0
    try:
        parse_coco(bad)
    except SchemaError as exc:
        triplet_flagged = 1 if "annotation 1" in str(exc) else 0

    from conftest import make_dataset

    neg = validate(make_dataset([make_keypoints(overrides={4: (-2.0, 5.0)})]))
    dup = validate(make_dataset([make_keypoints(image_id=3), make_keypoints(image_id=3)]))
    neg_count = sum(v.rule == "visible_nonnegative" for v in neg)
    dup_count = sum(v.rule == "unique_image_id" for v in dup)

    ok = (
        roundtrip_exact
        and triplet_flagged == 1
        and len(neg) == neg_count == 1
        and len(dup) == dup_count == 1
    )
    _report(
        7,
        ok,
        f"round-trip field-exact: {roundtrip_exact}; defects flagged exactly once each: "
        f"triplet-count {triplet_flagged}, negative-coordinate {len(neg)}, duplicate-id {len(dup)}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    def run_all(workdir):
        workdir.mkdir(exist_ok=True)
        g = workdir / "gt.json"
        p = workdir / "pred.json"
        outputs = {}
        assert main(["synth", "--template", "elongate", "--n", "15", "--seed", "21",
                     "--out", str(g)]) == 0
        assert main(["synth", "--template", "elongate", "--n", "15", "--seed", "21",
                     "--perturb", "proportional_to_shortest_phenotype", "--magnitude", "0.04",
                     "--out", str(p)]) == 0
        files = {
            "gt": g,
            "pred": p,
            "report": workdir / "report.json",
            "measures": workdir / "measures.csv",
            "prior": workdir / "prior.json",
            "acr": workdir / "acr.json",
            "trace": workdir / "trace.csv",
            "scatter": workdir / "scatter.svg",
            "dev": workdir / "dev.svg",
            "devcsv": workdir / "dev.csv",
            "combined": workdir / "combined.json",
        }
        assert main(["evaluate", "--gt", str(g), "--pred", str(p), "--metric", "all",
                     "--out", str(files["report"])]) == 0
        assert main(["measure", "--input", str(g), "--out", str(files["measures"])]) == 0
        assert main(["prior", "--train", str(g), "--out", str(files["prior"])]) == 0
        assert main(["acr", "--pred", str(p), "--prior", str(files["prior"]),
                     "--out", str(files["acr"])]) == 0
        assert main(["train-toy", "--seed", "2", "--steps", "60", "--n", "10",
                     "--trace", str(files["trace"])]) == 0
        assert main(["plot", "--kind", "scatter", "--gt", str(g), "--pred", str(p),
                     "--phenotype", "ED", "--out", str(files["scatter"])]) == 0
        assert main(["plot", "--kind", "deviation", "--gt", str(g), "--pred", f"m={p}",
                     "--out", str(files["dev"]), "--csv", str(files["devcsv"])]) == 0
        assert main(["report", "--evaluation", str(files["report"]),
                     "--measures", str(files["measures"]), "--out", str(files["combined"])]) == 0
        for name, path in files.items():
            outputs[name] = path.read_bytes()
        return outputs

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    third = run_all(tmp_path / "run3")
    mismatched = sorted(
        {k for k in first if first[k] != second[k]} | {k for k in first if first[k] != third[k]}
    )
    _report(
        8,
        not mismatched,
        "all subcommand outputs byte-identical across runs"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
