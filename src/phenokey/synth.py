"""Synthetic fish populations and controlled prediction perturbations.

Populations are drawn from species templates: a mean normalized layout of the
22 keypoints, per-keypoint truncated-normal jitter (rejection outside 3
standard deviations, so template bounds hold exactly), and a random body size.
Perturbations displace ground truth either uniformly in pixels or with noise
proportional to each keypoint's shortest related phenotype, the quantity the
phenotype-normalized metric is sensitive to.

Fish ``idx`` draws exactly the stream of ``np.random.default_rng([seed, idx])``
(``[seed, idx, 7919]`` for its perturbation), so results never depend on
generation order or scheduling; one vectorized pass of numpy's own seeding
positions the streams of all fish.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .dataset import Dataset
from .errors import PhenokeyError, SchemaError, check_number
from .jsontext import doc_field, read_json
from .morphometry import shortest_phenotype_lengths
from .schema import KEYPOINT_COUNT, SPECIES

PERTURBATION_MODES = ("uniform_px", "proportional_to_shortest_phenotype")


@dataclass(frozen=True)
class SpeciesTemplate:
    """Generative description of one synthetic fish archetype."""

    name: str
    mean_layout: np.ndarray        # (22, 2) normalized coordinates
    spread: np.ndarray             # (22,) per-keypoint standard deviation, normalized units
    body_size_range: tuple         # (min, max) body length in pixels
    aspect: float = 0.5            # body height / body length

    def __post_init__(self):
        object.__setattr__(self, "mean_layout", np.asarray(self.mean_layout, dtype=np.float64))
        object.__setattr__(self, "spread", np.asarray(self.spread, dtype=np.float64))

    def validate(self) -> None:
        if self.mean_layout.shape != (KEYPOINT_COUNT, 2):
            raise SchemaError(f"invalid template: mean_layout must be (22, 2), got {self.mean_layout.shape}")
        if self.spread.shape != (KEYPOINT_COUNT,):
            raise SchemaError(f"invalid template: spread must be (22,), got {self.spread.shape}")
        if np.any(self.spread < 0):
            raise SchemaError("invalid template: spread must be nonnegative")
        lo = self.mean_layout - 3.0 * self.spread[:, None]
        hi = self.mean_layout + 3.0 * self.spread[:, None]
        if np.any(lo < 0) or np.any(hi > 1):
            raise SchemaError("invalid template: mean_layout +/- 3*spread must stay within [0, 1] on both axes")
        s_min, s_max = self.body_size_range
        if not (0 < s_min <= s_max):
            raise SchemaError(f"invalid template: body_size_range must satisfy 0 < min <= max, got {s_min, s_max}")
        if not (0 < self.aspect <= 2):
            raise SchemaError(f"invalid template: aspect must be in (0, 2], got {self.aspect}")


def _auto_spread(layout: np.ndarray, base: float) -> np.ndarray:
    """Per-keypoint spread capped so mean +/- 3 sigma stays inside the unit square."""
    margin = np.minimum(layout, 1.0 - layout).min(axis=1)
    return np.minimum(base, margin / 3.0 * 0.9)


_DEEP_BODIED_LAYOUT = np.array([
    (0.02, 0.48),   # K-1  snout tip
    (0.26, 0.52),   # K-2  posterior end of operculum
    (0.17, 0.22),   # K-3  top end of head
    (0.20, 0.75),   # K-4  isthmus
    (0.42, 0.05),   # K-5  dorsal apex
    (0.44, 0.95),   # K-6  bottom end of ventral margin
    (0.82, 0.40),   # K-7  top end of caudal peduncle
    (0.81, 0.60),   # K-8  bottom end of caudal peduncle
    (0.98, 0.50),   # K-9  posterior end of tail fin
    (0.86, 0.50),   # K-10 posterior end of caudal vertebrae
    (0.07, 0.35),   # K-11 anterior end of eye
    (0.12, 0.35),   # K-12 posterior end of eye
    (0.28, 0.62),   # K-13 anterior end of pectoral fin
    (0.40, 0.66),   # K-14 posterior end of pectoral fin
    (0.44, 0.88),   # K-15 anterior end of pelvic fin
    (0.54, 0.92),   # K-16 posterior end of pelvic fin
    (0.66, 0.85),   # K-17 anterior end of anal fin
    (0.76, 0.78),   # K-18 posterior end of anal fin
    (0.72, 0.97),   # K-19 outer margin of anal fin
    (0.45, 0.08),   # K-20 anterior end of dorsal fin
    (0.68, 0.18),   # K-21 posterior end of dorsal fin
    (0.52, 0.02),   # K-22 outer margin of dorsal fin
])

_ELONGATE_LAYOUT = np.array([    # K-1 to K-22, five to a line
    (0.02, 0.50), (0.22, 0.52), (0.15, 0.28), (0.17, 0.72), (0.40, 0.10),
    (0.42, 0.90), (0.84, 0.40), (0.83, 0.60), (0.98, 0.52), (0.88, 0.50),
    (0.06, 0.40), (0.10, 0.40), (0.24, 0.60), (0.34, 0.64), (0.42, 0.82),
    (0.50, 0.86), (0.62, 0.82), (0.74, 0.76), (0.68, 0.96), (0.38, 0.12),
    (0.58, 0.16), (0.46, 0.04),
])

TEMPLATES = {
    "deep_bodied": SpeciesTemplate(
        name="deep_bodied",
        mean_layout=_DEEP_BODIED_LAYOUT,
        spread=_auto_spread(_DEEP_BODIED_LAYOUT, 0.012),
        body_size_range=(500.0, 900.0),
        aspect=0.52,
    ),
    "elongate": SpeciesTemplate(
        name="elongate",
        mean_layout=_ELONGATE_LAYOUT,
        spread=_auto_spread(_ELONGATE_LAYOUT, 0.012),
        body_size_range=(700.0, 1400.0),
        aspect=0.30,
    ),
}


def _numbers(doc, key: str, shape: tuple, default=None) -> np.ndarray:
    """Field ``key`` of ``doc`` as finite float64 numbers of ``shape``; an optional field has a ``default``."""
    value = doc_field(doc, key) if default is None else doc.get(key, default)
    try:    # a JSON number is an int or a float, never a bool, a string or null: each entry is checked before the cast
        cells = np.asarray(value, dtype=object)
        numbers = all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in cells.flat)
        arr = cells.astype(np.float64) if numbers else None
    except (TypeError, ValueError, OverflowError):    # OverflowError: an int past the float range
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        got = "non-numeric values" if arr is None else f"shape {arr.shape}" if arr.shape != shape else "NaN or infinity"
        raise SchemaError(f"field {key!r} must hold finite numbers of shape {shape}, got {got}")
    return arr


def template_from_dict(doc) -> SpeciesTemplate:
    """Inverse of :func:`template_to_dict`; a malformed or invalid document raises :class:`SchemaError`."""
    tpl = SpeciesTemplate(
        mean_layout=_numbers(doc, "mean_layout", (KEYPOINT_COUNT, 2)),
        spread=_numbers(doc, "spread", (KEYPOINT_COUNT,)),
        body_size_range=tuple(_numbers(doc, "body_size_range", (2,)).tolist()),
        aspect=float(_numbers(doc, "aspect", (), default=0.5)),
        name=str(doc.get("name", "custom")),
    )
    tpl.validate()
    return tpl


def template_to_dict(template: SpeciesTemplate) -> dict:
    return {
        "name": template.name,
        "mean_layout": template.mean_layout.tolist(),
        "spread": template.spread.tolist(),
        "body_size_range": list(template.body_size_range),
        "aspect": template.aspect,
    }


def load_template(name_or_path: str) -> SpeciesTemplate:
    """Resolve a built-in template name or read one from a JSON file."""
    if name_or_path in TEMPLATES:
        return TEMPLATES[name_or_path]
    if not os.path.isfile(name_or_path):
        raise PhenokeyError(f"template {name_or_path!r} is neither a built-in ({', '.join(TEMPLATES)}) nor a file")
    return read_json(name_or_path, template_from_dict)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _seed_words(seed) -> list:
    """The uint32 words SeedSequence makes of ``seed``, least significant first."""
    check_number("seed", seed, integer=True)
    return [int(seed) >> shift & _MASK32 for shift in range(0, max(int(seed).bit_length(), 1), 32)]


def _streams(seed, indices, tail=()):
    """``(idx, rng)`` for each fish index (each < 2**32), ``rng`` at the start of ``default_rng([seed, idx, *tail])``.

    SeedSequence's pool hash runs once, as uint32 arithmetic over all indices; each fish then gets PCG64's seeding
    step, ``state = (inc + s) * MULT + inc`` mod 2**128, and one Generator is set to that state in turn: it is the
    same Generator every time, so draw from it before taking the next fish.
    """
    words = _seed_words(seed)
    column = [*words, 0, *tail]    # the entropy, padded with zeros to the pool size
    entropy = np.array(column + [0] * (4 - len(column)), dtype=np.uint32)[:, None].repeat(len(indices), axis=1)
    entropy[len(words)] = indices
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value *= const
        return value ^ value >> 16

    rows = [hashmix(row) for row in entropy[:4]] + list(entropy[4:])    # the pool, then the entropy beyond it
    for src, dst in [*permutations(range(4), 2), *product(range(4, len(rows)), range(4))]:
        x = rows[dst] * _MIX_MULT_L - hashmix(rows[src]) * _MIX_MULT_R
        rows[dst] = x ^ x >> 16
    const, mult = _INIT_B, _MULT_B    # generate_state(4, np.uint64), as eight uint32 halves
    out = np.array([hashmix(rows[i % 4]) for i in range(8)], dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(0))
    # fish by fish, so no list of every state is held: the 64-bit words s high, s low, initseq high, initseq low,
    # then PCG64's srandom step on them
    for idx, words64 in zip(indices, (out[1::2] << 32 | out[::2]).T):
        s_high, s_low, seq_high, seq_low = words64.tolist()
        inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        state = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield idx, rng


def _draws(seed, n: int, uniforms: int, normals: int, tail=()):
    """Per fish ``idx < n``, from the stream of ``default_rng([seed, idx, *tail])``: ``uniforms`` values of
    ``random()``, then ``normals`` standard normals, those beyond +/- 3 redrawn together until none is; two arrays."""
    u, z = np.empty((n, uniforms)), np.empty((n, normals))
    for idx, rng in _streams(seed, range(n), tail):
        rng.random(out=u[idx])
        rng.standard_normal(out=z[idx])
    # a fish with a normal beyond +/- 3 runs its stream again from the start, redrawing as it goes
    beyond = (z.max(axis=1, initial=0.0) > 3.0) | (z.min(axis=1, initial=0.0) < -3.0)
    for idx, rng in _streams(seed, np.flatnonzero(beyond), tail):
        rng.random(out=u[idx])
        rng.standard_normal(out=z[idx])
        while (bad := np.abs(z[idx]) > 3.0).any():
            z[idx, bad] = rng.standard_normal(int(bad.sum()))
    return u, z


def generate_population(
    template: SpeciesTemplate,
    n: int,
    seed: int,
    role: str = "train",
) -> Dataset:
    """Draw ``n`` synthetic fish; fish ``idx`` draws from the stream of ``default_rng([seed, idx])``."""
    if not 1 <= n < 2**32:
        raise SchemaError(f"population size must be >= 1 and < 2**32 (one seed word per fish index), got {n}")
    template.validate()
    s_min, s_max = template.body_size_range
    u, z = _draws(seed, n, 3, 2 * KEYPOINT_COUNT)
    # uniform(lo, hi) is lo + (hi - lo) * random(): body length, then the two canvas offsets
    u *= (s_max - s_min, 0.50 - 0.15, 0.50 - 0.15)
    u += (s_min, 0.15, 0.15)
    size, off = u[:, :1], u[:, 1:]
    off *= size
    off[:, 1] *= template.aspect
    xy = z.reshape(n, KEYPOINT_COUNT, 2)      # jitter, normalized position, then pixels, in place
    xy *= template.spread[:, None]
    xy += template.mean_layout
    xy *= size[:, :, None]
    xy[:, :, 1] *= template.aspect
    xy += off[:, None]
    return Dataset(
        xy,
        np.full((n, KEYPOINT_COUNT), 2),
        range(1, n + 1),
        np.ceil(2 * off[:, 0] + size[:, 0]),
        np.ceil(2 * off[:, 1] + size[:, 0] * template.aspect),
        np.full(n, SPECIES.index("other")),
        role,
    )


@dataclass(frozen=True)
class PerturbationModel:
    """How to displace ground truth into synthetic predictions."""

    mode: str
    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(f"mode must be one of {PERTURBATION_MODES}, got {self.mode!r}")
        check_number("magnitude", self.magnitude, zero=True)
        _seed_words(self.seed)    # raises for a negative or non-integer seed


def perturb(gt: Dataset, model: PerturbationModel) -> Dataset:
    """Displaced copy of ``gt`` acting as a prediction set.

    uniform_px draws per-axis uniform noise in [-magnitude, magnitude].
    proportional_to_shortest_phenotype draws truncated-normal noise with
    per-keypoint sigma = magnitude * shortest related ground-truth phenotype
    (keypoints with no measurable related phenotype stay unperturbed); the
    sigmas of all fish come from one batched phenotype-length computation.
    Fish ``idx`` draws its noise from the stream of ``default_rng([seed, idx, 7919])``.

    Displaced points are kept on the canvas: the canvas grows to cover
    overshoot on the high side and coordinates clamp at zero on the low side
    (with the margins generated populations carry, the clamp never engages).
    Non-finite coordinates, which hidden keypoints may carry, stay as they
    are and never move the canvas.
    """
    if model.mode != "uniform_px":
        pheno = shortest_phenotype_lengths(gt.xy, gt.v)
    with np.errstate(over="ignore", invalid="ignore"):    # noise a magnitude makes non-finite is refused below
        if model.mode == "uniform_px":
            noise = _draws(model.seed, len(gt), 2 * KEYPOINT_COUNT, 0, (7919,))[0].reshape(gt.xy.shape)
            noise *= 2.0 * model.magnitude    # uniform(-m, m) is -m + (m - -m) * random()
            noise -= model.magnitude
        else:
            noise = _draws(model.seed, len(gt), 0, 2 * KEYPOINT_COUNT, (7919,))[1].reshape(gt.xy.shape)
            noise *= np.where(np.isfinite(pheno), model.magnitude * pheno, 0.0)[:, :, None]
    if not np.isfinite(noise).all():
        raise SchemaError(f"magnitude {model.magnitude} displaces keypoints beyond the float range")
    xy = np.maximum(gt.xy + noise, 0.0)
    reach = np.where(np.isfinite(xy), xy, 0.0).max(axis=1)
    width = np.maximum(gt.width, np.ceil(reach[:, 0]))
    height = np.maximum(gt.height, np.ceil(reach[:, 1]))
    return Dataset(xy, gt.v, gt.image_ids, width, height, gt.species, gt.role)
