"""Independent brute-force implementations used to cross-check the library.

Everything here is deliberately written as plain per-sample Python loops over
scalars (math.hypot, sequential sums) with no shared code path with the
vectorized library internals.
"""

import json
import math

KEYPOINT_COUNT = 22

# Endpoint pairs (1-based keypoints) of the 23 phenotypes, restated from the method's table
PHENOTYPE_ENDPOINTS = (
    (1, 9), (1, 10), (1, 2), (1, 11), (11, 12), (12, 2), (5, 6), (3, 4), (15, 17), (7, 8), (18, 10), (20, 21),
    (20, 22), (13, 14), (15, 16), (17, 18), (17, 19), (10, 9), (1, 20), (20, 10), (13, 20), (13, 15), (15, 20),
)

SPECIES = ("grouper", "mottled_naked_carp", "bighead_carp", "common_carp", "other")


class ParseError(Exception):
    """The oracle's counterpart of the library error of the same name."""


class SchemaError(Exception):
    """The oracle's counterpart of the library error of the same name."""


class IntegrityError(Exception):
    """The oracle's counterpart of the library error of the same name."""


def _species(name):
    tag = name.strip().lower().replace(" ", "_").replace("-", "_")
    return tag if tag in SPECIES else "other"


def _pt(kp, i):
    return float(kp.xy[i - 1][0]), float(kp.xy[i - 1][1])


def _vis(kp, i):
    return int(kp.v[i - 1]) > 0


def _bbox_diag(kp):
    xs = [float(kp.xy[i - 1][0]) for i in range(1, KEYPOINT_COUNT + 1) if _vis(kp, i)]
    ys = [float(kp.xy[i - 1][1]) for i in range(1, KEYPOINT_COUNT + 1) if _vis(kp, i)]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def _deviation(pred, gt, i):
    px, py = _pt(pred, i)
    gx, gy = _pt(gt, i)
    return math.hypot(px - gx, py - gy)


def oracle_oks(preds, gts, cfg):
    """(per_image list with None markers, mean over defined images)."""
    per_image = []
    for p, g in zip(preds, gts):
        vis = [i for i in range(1, KEYPOINT_COUNT + 1) if _vis(g, i)]
        if not vis:
            per_image.append(None)
            continue
        s = cfg.oks_scale if cfg.oks_scale is not None else _bbox_diag(g)
        if not s > 0:
            per_image.append(None)
            continue
        total = 0.0
        for i in vis:
            d = _deviation(p, g, i)
            k = cfg.oks_k[i - 1]
            total += math.exp(-(d * d) / (2.0 * s * s * k * k))
        per_image.append(total / len(vis))
    defined = [v for v in per_image if v is not None]
    mean = sum(defined) / len(defined) if defined else None
    return per_image, mean


def _scale(g, mode):
    """The sample's PCK scale, None when an endpoint of its head or torso length is hidden."""
    if mode == "bbox_diagonal":
        return _bbox_diag(g)
    a, b = {"head": (1, 2), "torso": (1, 10)}[mode]
    if not (_vis(g, a) and _vis(g, b)):
        return None
    ax, ay = _pt(g, a)
    bx, by = _pt(g, b)
    return math.hypot(bx - ax, by - ay)


def _scored_fractions(preds, gts, scales, threshold):
    """(per-keypoint fraction, None where nothing was scored; scored counts; skip counts).

    ``scales(g)`` lists the 22 scales of a ground truth. An annotated keypoint
    is scored when its scale exists and is finite and positive, and skipped
    otherwise; a scored keypoint is a hit when deviation / scale < threshold.
    """
    hits = [0] * KEYPOINT_COUNT
    counts = [0] * KEYPOINT_COUNT
    skips = [0] * KEYPOINT_COUNT
    for p, g in zip(preds, gts):
        visible = [j for j in range(1, KEYPOINT_COUNT + 1) if _vis(g, j)]
        if not visible:
            continue
        sample_scales = scales(g)
        for j in visible:
            h = sample_scales[j - 1]
            if h is None or not 0 < h < math.inf:
                skips[j - 1] += 1
                continue
            counts[j - 1] += 1
            if _deviation(p, g, j) / h < threshold:
                hits[j - 1] += 1
    return [hits[j] / counts[j] if counts[j] else None for j in range(KEYPOINT_COUNT)], counts, skips


def oracle_pck(preds, gts, cfg):
    """(per-keypoint list, None where nothing was scored; scored counts; skip counts) of PCK."""
    return _scored_fractions(preds, gts, lambda g: [_scale(g, cfg.pck_scale_mode)] * KEYPOINT_COUNT, cfg.pck_threshold)


def oracle_phenotype_length(g, pdef):
    """(length, None) when both endpoints are annotated, else (None, first hidden endpoint)."""
    a, b = pdef.endpoints
    for e in (a, b):
        if not _vis(g, e):
            return None, e
    ax, ay = _pt(g, a)
    bx, by = _pt(g, b)
    return math.hypot(bx - ax, by - ay), None


def oracle_shortest_phenotype(g, keypoint):
    """Length of the shortest measurable related phenotype, or None."""
    best = None
    for a, b in PHENOTYPE_ENDPOINTS:
        if keypoint not in (a, b):
            continue
        if not (_vis(g, a) and _vis(g, b)):
            continue
        ax, ay = _pt(g, a)
        bx, by = _pt(g, b)
        length = math.hypot(bx - ax, by - ay)
        if best is None or length < best:
            best = length
    return best


def oracle_pmp(preds, gts, cfg):
    """(per-keypoint list, None where nothing was scored; scored counts; skip counts) of PMP."""
    def scales(g):
        return [oracle_shortest_phenotype(g, j) for j in range(1, KEYPOINT_COUNT + 1)]

    return _scored_fractions(preds, gts, scales, cfg.pmp_threshold)


def oracle_validate(dataset):
    """(image_id, keypoint_index, rule, detail) of every invariant breach, in record order.

    Per record: duplicate id, then non-positive dimensions, then each keypoint
    in index order with the first rule it breaks.
    """
    found = []
    seen = set()
    for rec in dataset:
        if rec.image_id in seen:
            found.append((rec.image_id, None, "unique_image_id", "duplicate image id"))
        seen.add(rec.image_id)
        sized = rec.width > 0 and rec.height > 0
        if not sized:
            found.append((rec.image_id, None, "positive_dimensions", f"width={rec.width}, height={rec.height}"))
        for i in range(1, KEYPOINT_COUNT + 1):
            flag = int(rec.keypoints.v[i - 1])
            x, y = _pt(rec.keypoints, i)
            if flag not in (0, 1, 2):
                found.append((rec.image_id, i, "visibility_flag", f"v={flag}"))
            elif flag == 0:
                pass
            elif not (math.isfinite(x) and math.isfinite(y)):
                found.append((rec.image_id, i, "visible_finite", f"({x}, {y})"))
            elif x < 0 or y < 0:
                found.append((rec.image_id, i, "visible_nonnegative", f"({x}, {y})"))
            elif sized and (x > rec.width or y > rec.height):
                found.append((rec.image_id, i, "visible_within_bounds",
                              f"({x}, {y}) outside {rec.width} x {rec.height}"))
    return found


def _canonical_key(image_id):
    if isinstance(image_id, bool) or not isinstance(image_id, (int, float)):
        return (1, 0, str(image_id))
    return (0, image_id, "")


def oracle_parse_coco(path):
    """Records of an annotation file, one annotation at a time, as plain tuples.

    Returns ``(role, records)`` with records sorted into canonical id order,
    each ``(image_id, width, height, species, [(x, y), ...], [v, ...])``.
    Raises the error the file's first offending annotation earns, in file
    order, its message starting with the path; a fractional flag is only
    looked for once every annotation has decoded. Keypoint entries are
    numbers or numeric strings; for any other entry the ParseError message
    is only the part before numpy's reason.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    images = {}
    for img in doc["images"]:
        if img["id"] in images:
            raise IntegrityError(f"{path}: duplicate image id {img['id']!r} in images array")
        images[img["id"]] = (float(img["width"]), float(img["height"]))
    names = {c["id"]: _species(str(c.get("name", "other"))) for c in doc.get("categories", [])}
    records = []
    fractional = None
    used = set()
    for ann in doc["annotations"]:
        ann_id = ann.get("id", "<missing>")
        image_id = ann["image_id"]
        if image_id not in images:
            raise IntegrityError(f"{path}: annotation {ann_id!r} references unknown image id {image_id!r}")
        if image_id in used:
            raise IntegrityError(f"{path}: duplicate image id {image_id!r}: multiple annotations for one image")
        used.add(image_id)
        flat = ann["keypoints"]
        if len(flat) != 3 * KEYPOINT_COUNT:
            raise SchemaError(
                f"{path}: annotation {ann_id!r}: keypoints list has {len(flat)} values, expected {3 * KEYPOINT_COUNT}"
            )
        try:
            values = [float(x) for x in flat]
        except (TypeError, ValueError):
            raise ParseError(f"{path}: annotation {ann_id!r}: non-numeric keypoints entry") from None
        xy = [(values[3 * i], values[3 * i + 1]) for i in range(KEYPOINT_COUNT)]
        flags = values[2::3]
        for i, flag in enumerate(flags, start=1):
            if fractional is None and math.isfinite(flag) and flag != math.trunc(flag):
                fractional = SchemaError(
                    f"{path}: annotation {ann_id!r}: keypoint {i} has fractional visibility flag {flag!r}"
                )
        width, height = images[image_id]
        species = names.get(ann.get("category_id"), "other")
        records.append((image_id, width, height, species, xy, [int(f) for f in flags]))
    if fractional is not None:
        raise fractional
    role = doc.get("info", {}).get("role", "train")
    return role, sorted(records, key=lambda r: _canonical_key(r[0]))


def truncated_rayleigh_within(radius, cutoff=3.0, grid=200_001):
    """P(sqrt(z1^2 + z2^2) < radius) for i.i.d. standard normals truncated at +/- cutoff.

    Quadrature over z1 with the inner probability in closed form via erf.
    """
    z_mass = math.erf(cutoff / math.sqrt(2.0))
    lim = min(cutoff, radius)
    xs = [(-lim + 2.0 * lim * t / (grid - 1)) for t in range(grid)]
    ys = []
    for z in xs:
        inner = math.sqrt(max(radius * radius - z * z, 0.0))
        b = min(cutoff, inner)
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ys.append(phi * math.erf(b / math.sqrt(2.0)))
    step = xs[1] - xs[0]
    integral = step * (sum(ys) - 0.5 * (ys[0] + ys[-1]))
    return integral / (z_mass * z_mass)
