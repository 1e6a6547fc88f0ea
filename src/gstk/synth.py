"""Deterministic synthetic scene generator.

Scenes are built from a JSON spec: a background class, painted rectangle
and disk regions, and per-class per-band (mean, sigma) signatures. Pixel
noise comes from a counter-based SplitMix64 stream, so any pixel of any
band can be generated independently: the value at (band, row, col) never
depends on generation order, tiling, or how much of the scene is rendered.

Stream layout: pixel (band, row, col) of a width-W, height-H scene draws
its gaussian from stream index band*H*W + row*W + col, and gaussian k
consumes uniforms 2k and 2k+1 (Box-Muller, cosine branch). Uniform i is
((w >> 11) + 1) * 2**-53, in (0, 1], of the SplitMix64 word
w = mix(seed + (i+1) * 0x9E3779B97F4A7C15), so word 0 is the first of a
sequential SplitMix64 seeded the same way. The words and uniforms are
exact on every platform; the gaussians go through numpy's log, sqrt and
cos, whose last bit may differ between hosts (see the PRNG section of
docs/formats.md).

Rendering evaluates each band in contiguous chunks of pixels in row-major
order, so no full-frame temporary is built; by the counter-based layout
this gives the same bytes as rendering the whole band at once. Within a
chunk the cosine is taken in float32, and every pixel whose rounding that
leaves in doubt, by the error bound proved at ``_COS_ERR``, takes the
float64 cosine of its own angle: the bytes stay those of the float64 formula.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError, FileFormatError
from .raster import Band, DTYPE_MAX, MultibandImage, NUMPY_DTYPES, _frozen
from .analysis import ClassificationMap, _label_dtype

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Largest width*height*bands a scene spec may ask for, checked before
# anything is allocated: nearly 19x a 1536x1536x6 scene, and at most
# 512 MiB of u16 labels.
MAX_SCENE_SAMPLES = 2**28

# Pixels per chunk of a rendered band. Rendering alone, the perfbench
# pipeline scenes at seed 1 on a 2-vCPU Xeon, median of 15 rotated
# rounds for 16384 / 32768 / 65536: 1536x1536x6 u8 serially 0.271 /
# 0.279 / 0.296 s and on 2 band threads 0.256 / 0.190 / 0.173 s;
# 256x256x96 u16 serially 0.138 / 0.136 / 0.149 s. Threads gain only
# with larger chunks, whose fewer calls contend less for the GIL. A
# serial band slows at 65536, likely because its 3.9 MiB of chunk
# scratch outgrows the 2 MiB L2 cache.
# Chunks of 4096 or fewer pay Python overhead on every call.
_CHUNK = 32768

# Float32 cosine filter. synth_scene computes each pixel's
# x = fl(fl(fl(fl(r * c) * sigma) + mean) + 0.5), whose floor is the pixel
# before the clamp, from gaussian_stream's float64 radius r and angle a,
# but with c' = cos32(float32(a)) in place of c = cos64(a). Bound on
# |x' - x|, with R = _RADIUS_MAX >= r and mean <= top, the dtype maximum:
#
# 1. Angle rounding: a = 2*pi*u lies in (0, 8), where float32 values are
#    at most 2^-21 apart, so |float32(a) - a| <= 2^-22; cos is 1-Lipschitz.
# 2. Library error: float32 cos errs by a few float32 ulps of a value
#    <= 1, at most 2^-22, and float64 cos by a few 2^-53. With part 1,
#    |c' - c| <= 2^-22 + 2^-22 + 2^-50 < _COS_ERR / 4.
#    test_float32_cosine_accuracy holds parts 1 and 2 together to
#    _COS_ERR / 8 over 10^7 angles (2^-21.9 measured with numpy 2.4).
# 3. Float64 rounding: |c|, |c'| <= 1, so each of the four roundings on
#    either side errs by at most 2^-53 of a magnitude <= sigma*R + top + 1:
#    4 * 2^-53 per side, 2^-50 for both. Doubling that to 2^-49 also
#    covers computing the margin and the limit themselves (a few 2^-53).
#
# So |x' - x| <= sigma*R*_COS_ERR + 2^-49 * (sigma*R + top + 1). Where x'
# lies farther than that from every integer, no integer lies between x and
# x', and floor(x') = floor(x); every other pixel takes the float64 cosine.
_COS_ERR = 2.0**-18
# Largest Box-Muller radius: u >= 2^-53, so sqrt(-2 ln u) <= 8.5717.
_RADIUS_MAX = 8.6


# ---------------------------------------------------------------------------
# Counter-based PRNG

# All mixing runs on uint64 arrays: numpy array ops wrap modulo 2^64
# silently, which is exactly the arithmetic SplitMix64 needs.


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")


def _affine(indices: np.ndarray, step: int, offset: int, out: np.ndarray) -> np.ndarray:
    """out = indices * step + offset, modulo 2^64."""
    np.multiply(indices, np.uint64(step & _MASK64), out=out)
    out += np.uint64(offset & _MASK64)
    return out


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, applied to the uint64 array z in place.

    ``t`` is uint64 scratch shaped like ``z``.
    """
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    """((word >> 11) + 1) * 2**-53 in place; returns the float64 view.

    The shifted value is at most 2^53, so its int64 view converts to
    float64 exactly.
    """
    words >>= np.uint64(11)
    words += np.uint64(1)
    out = words.view(np.float64)
    np.multiply(words.view(np.int64), 2.0**-53, out=out)
    return out


def _polar_words(z: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radius sqrt(-2 ln u(2k)) and angle 2*pi*u(2k+1) of gaussian k.

    Works in place from ``z[0] = seed + (2k+1)*G`` per gaussian k: uniform
    2k mixes z[0] and uniform 2k+1 mixes z[0] + G. ``t`` is scratch shaped
    like ``z``. Returns float64 views of ``z``.
    """
    np.add(z[0, ...], np.uint64(_GOLDEN), out=z[1, ...])
    u = _unit(_mix(z, t))
    radius, angle = u[0, ...], u[1, ...]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    return radius, angle


def gaussian_stream(seed: int, indices: np.ndarray) -> np.ndarray:
    """Standard normals; gaussian k uses uniforms 2k and 2k+1 (Box-Muller)."""
    _check_seed(seed)
    idx = np.asarray(indices, dtype=np.uint64)
    z = np.empty((2,) + idx.shape, dtype=np.uint64)
    _affine(idx, 2 * _GOLDEN, seed + _GOLDEN, z[0, ...])
    radius, angle = _polar_words(z, np.empty_like(z))
    np.cos(angle, out=angle)
    radius *= angle
    return radius


# ---------------------------------------------------------------------------
# Scene geometry


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle: rows [row, row+height), cols [col, col+width)."""

    row: int
    col: int
    height: int
    width: int

    def validate(self, scene_height: int, scene_width: int) -> None:
        if self.height < 1 or self.width < 1:
            raise DomainError(f"rectangle {self} must have positive size")
        if (
            self.row < 0
            or self.col < 0
            or self.row + self.height > scene_height
            or self.col + self.width > scene_width
        ):
            raise DomainError(f"rectangle {self} exceeds the scene bounds")

    def _window(self) -> tuple[tuple[slice, slice], np.ndarray]:
        """The bounding box, and the region's pixels inside it."""
        rows = slice(self.row, self.row + self.height)
        cols = slice(self.col, self.col + self.width)
        return (rows, cols), np.ones((self.height, self.width), dtype=bool)


@dataclass(frozen=True)
class Disk:
    """Pixels whose center distance from (row, col) is <= radius."""

    row: int
    col: int
    radius: int

    def validate(self, scene_height: int, scene_width: int) -> None:
        if self.radius < 0:
            raise DomainError(f"disk {self} must have non-negative radius")
        if (
            self.row - self.radius < 0
            or self.col - self.radius < 0
            or self.row + self.radius >= scene_height
            or self.col + self.radius >= scene_width
        ):
            raise DomainError(f"disk {self} exceeds the scene bounds")

    def _window(self) -> tuple[tuple[slice, slice], np.ndarray]:
        """The bounding box, and the region's pixels inside it."""
        r = self.radius
        rows = slice(self.row - r, self.row + r + 1)
        cols = slice(self.col - r, self.col + r + 1)
        d = np.arange(-r, r + 1)
        return (rows, cols), d[:, None] ** 2 + d[None, :] ** 2 <= r * r


# Region shapes by their spec name. Each shape's JSON keys are its
# dataclass fields, in order; the spec reader and writer both use them.
_SHAPES = {"rect": Rectangle, "disk": Disk}


@dataclass(frozen=True)
class Placement:
    """One painted region and the 1-based class it is filled with."""

    class_index: int
    region: Rectangle | Disk


@dataclass(frozen=True)
class ClassSignature:
    """Per-band radiometry of one class: mean and sigma per band."""

    name: str
    means: tuple[float, ...]
    sigmas: tuple[float, ...]


# ---------------------------------------------------------------------------
# Scene specification


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    dtype: str
    seed: int
    signatures: tuple[ClassSignature, ...]
    placements: tuple[Placement, ...] = ()
    background_class: int = 1

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise DomainError(
                f"scene must be at least 1x1, got {self.width}x{self.height}"
            )
        if self.dtype not in NUMPY_DTYPES:
            raise DomainError(f"unknown dtype {self.dtype!r}")
        _check_seed(self.seed)
        if not self.signatures:
            raise DomainError("scene defines no classes")
        n_bands = len(self.signatures[0].means)
        if not 1 <= n_bands <= 255:
            raise DomainError(f"scene must have 1..255 bands, got {n_bands}")
        if self.width * self.height * n_bands > MAX_SCENE_SAMPLES:
            raise DomainError(
                f"scene of {self.width}x{self.height}x{n_bands} samples exceeds "
                f"the budget of {MAX_SCENE_SAMPLES} samples"
            )
        top = DTYPE_MAX[self.dtype]
        for sig in self.signatures:
            if len(sig.means) != n_bands or len(sig.sigmas) != n_bands:
                raise DomainError(
                    f"class {sig.name!r} does not define {n_bands} bands"
                )
            for m in sig.means:
                if not 0 <= m <= top:
                    raise DomainError(
                        f"class {sig.name!r} mean {m} outside [0, {top}]"
                    )
            for s in sig.sigmas:
                if not s >= 0:
                    raise DomainError(f"class {sig.name!r} sigma {s} is not >= 0")
        n_classes = len(self.signatures)
        if not 1 <= self.background_class <= n_classes:
            raise DomainError(
                f"background class {self.background_class} has no signature"
            )
        for placement in self.placements:
            if not 1 <= placement.class_index <= n_classes:
                raise DomainError(
                    f"region class {placement.class_index} has no signature"
                )
            placement.region.validate(self.height, self.width)

    @property
    def n_bands(self) -> int:
        return len(self.signatures[0].means)

    @property
    def n_classes(self) -> int:
        return len(self.signatures)


def scene_spec_from_json(text: str) -> SceneSpec:
    """Parse a scene spec document; see docs/formats.md for the schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"bad scene JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError("scene spec must be a JSON object")

    def need(key: str, kind: type, default: object = None) -> object:
        if key not in doc:
            if default is not None:
                return default
            raise FileFormatError(f"scene spec is missing {key!r}")
        value = doc[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise FileFormatError(f"scene spec {key!r} has the wrong type")
        return value

    classes = need("classes", list)
    signatures = []
    for entry in classes:
        if not isinstance(entry, dict):
            raise FileFormatError("each class must be an object")
        for key in ("name", "means", "sigmas"):
            if key not in entry:
                raise FileFormatError(f"class entry is missing {key!r}")
        means = entry["means"]
        sigmas = entry["sigmas"]
        if not isinstance(means, list) or not isinstance(sigmas, list):
            raise FileFormatError("class means/sigmas must be arrays")
        for v in means + sigmas:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise FileFormatError("class means/sigmas must be numbers")
        signatures.append(
            ClassSignature(str(entry["name"]), tuple(map(float, means)), tuple(map(float, sigmas)))
        )

    placements = []
    for entry in need("regions", list, []):
        if not isinstance(entry, dict) or "shape" not in entry or "class" not in entry:
            raise FileFormatError("each region needs 'shape' and 'class'")
        shape = entry["shape"]

        def geom(key: str) -> int:
            if key not in entry or not isinstance(entry[key], int) or isinstance(entry[key], bool):
                raise FileFormatError(f"region is missing integer {key!r}")
            return entry[key]

        kind = _SHAPES.get(shape) if isinstance(shape, str) else None
        if kind is None:
            raise FileFormatError(f"unknown region shape {shape!r}")
        region = kind(*(geom(f.name) for f in fields(kind)))
        placements.append(Placement(geom("class"), region))

    return SceneSpec(
        width=int(need("width", int)),
        height=int(need("height", int)),
        dtype=str(need("dtype", str)),
        seed=int(need("seed", int)),
        signatures=tuple(signatures),
        placements=tuple(placements),
        background_class=int(need("background_class", int, 1)),
    )


def scene_spec_to_json(spec: SceneSpec) -> str:
    regions = [
        {
            "shape": next(n for n, k in _SHAPES.items() if isinstance(p.region, k)),
            "class": p.class_index,
            **asdict(p.region),
        }
        for p in spec.placements
    ]
    doc = {
        "width": spec.width,
        "height": spec.height,
        "dtype": spec.dtype,
        "seed": spec.seed,
        "background_class": spec.background_class,
        "classes": [asdict(s) for s in spec.signatures],
        "regions": regions,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Rendering


def paint_labels(spec: SceneSpec) -> ClassificationMap:
    """Class label of every pixel: background, then regions in spec order.

    ``SceneSpec`` has checked that every region lies inside the scene.
    The labels take the dtype of the largest label the spec paints.
    """
    top = max([spec.background_class] + [p.class_index for p in spec.placements])
    labels = np.full((spec.height, spec.width), spec.background_class, _label_dtype(top))
    for placement in spec.placements:
        box, inside = placement.region._window()
        labels[box][inside] = placement.class_index
    # Read-only, so ClassificationMap keeps this array instead of a copy.
    labels.setflags(write=False)
    return ClassificationMap(labels)


def _shifted(
    g: np.ndarray,
    sigma: np.ndarray,
    mean: np.ndarray,
    classes: np.ndarray,
    lookup: np.ndarray,
) -> np.ndarray:
    """mean + sigma * g + 0.5 per pixel, in place; its floor is the rounded pixel.

    ``lookup`` is float64 scratch shaped like ``g``. Labels are always
    in range; ``clip`` lets ``take`` write ``lookup`` without a copy.
    """
    g *= np.take(sigma, classes, out=lookup, mode="clip")
    g += np.take(mean, classes, out=lookup, mode="clip")
    g += 0.5
    return g


def _cos64(radius: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """radius * cos(angle) in float64: gaussian_stream's value of these draws."""
    return radius * np.cos(angle)


def _band_renderer(spec: SceneSpec, truth: ClassificationMap) -> Callable[[int], Band]:
    """``render(b)``: band b of the scene whose painted labels are ``truth``.

    Each band depends only on its own stream indices, so threads may
    render bands at once, in any order, with the same bytes. Each thread
    allocates its chunk scratch once, on its first band.

    The Box-Muller cosine is taken in float32, and each pixel whose
    rounding that leaves in doubt (see ``_COS_ERR``) takes the float64
    cosine of its own angle, so the bytes are those of the float64 formula.
    """
    labels = truth.labels.reshape(-1)
    top = DTYPE_MAX[spec.dtype]
    n_pixels = spec.height * spec.width

    # Per-band lookups by class; column 0 is a placeholder, labels are 1-based.
    means = np.zeros((spec.n_bands, spec.n_classes + 1), dtype=np.float64)
    sigmas = np.zeros_like(means)
    for c, sig in enumerate(spec.signatures, start=1):
        means[:, c] = sig.means
        sigmas[:, c] = sig.sigmas

    # z[0] of pixel j of a chunk is seed + (2k+1)*G for its stream index
    # k = first + j: the chunk's offset plus steps[j] = 2G*j, modulo 2^64.
    size = min(_CHUNK, n_pixels)
    steps = _affine(np.arange(size, dtype=np.uint64), 2 * _GOLDEN, 0, np.empty(size, np.uint64))
    local = threading.local()

    def render(b: int) -> Band:
        if not hasattr(local, "scratch"):
            local.scratch = (
                np.empty(2 * size, dtype=np.uint64),  # words
                np.empty(2 * size, dtype=np.uint64),  # mixing
                np.empty(size, dtype=np.float32),  # cos
                np.empty(size, dtype=np.float64),  # values
                np.empty(size, dtype=np.float64),  # pixels
                np.empty(size, dtype=np.float64),  # lookup
                np.empty(size, dtype=bool),  # doubt
            )
        words, mixing, cos, values, pixels, lookup, doubt = local.scratch
        sigma, mean = sigmas[b], means[b]
        # A pixel is decided by its float32-cosine value x' when x' lies
        # more than the band's bound on |x' - x| from every integer, that
        # is, when |frac(x') - 0.5| < limit. Written as a negation, NaN and
        # infinite values (an infinite sigma) always fall back.
        spread = float(sigma.max()) * _RADIUS_MAX
        limit = 0.5 - (spread * _COS_ERR + 2.0**-49 * (spread + top + 1))
        samples = np.empty(n_pixels, dtype=NUMPY_DTYPES[spec.dtype])
        first = b * n_pixels
        for start in range(0, n_pixels, _CHUNK):
            n = min(_CHUNK, n_pixels - start)
            classes = labels[start : start + n]
            z = words[: 2 * n].reshape(2, n)
            offset = (spec.seed + _GOLDEN + 2 * _GOLDEN * (first + start)) & _MASK64
            np.add(steps[:n], np.uint64(offset), out=z[0])
            radius, angle = _polar_words(z, mixing[: 2 * n].reshape(2, n))
            c, x, p = cos[:n], values[:n], pixels[:n]
            c[...] = angle
            np.cos(c, out=c)
            np.multiply(radius, c, out=x)
            _shifted(x, sigma, mean, classes, lookup[:n])
            np.floor(x, out=p)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN: falls back
                x -= p
            x -= 0.5
            np.abs(x, out=x)
            np.less(x, limit, out=doubt[:n])
            redo = np.flatnonzero(np.logical_not(doubt[:n], out=doubt[:n]))
            if redo.size:
                exact = _cos64(radius[redo], angle[redo])
                _shifted(exact, sigma, mean, classes[redo], lookup[: redo.size])
                p[redo] = np.floor(exact, out=exact)
            # floor(x + 0.5) differs from rounding half away from zero only
            # below zero, where the clamp maps both to 0.
            np.clip(p, 0, top, out=p)
            samples[start : start + n] = p
        return Band(_frozen(samples.reshape(spec.height, spec.width)))

    return render


def synth_scene(spec: SceneSpec) -> tuple[MultibandImage, ClassificationMap]:
    """Render the scene: per-pixel gaussian around each class signature.

    value(band, row, col) = clamp(round(mean + sigma * g), 0, dtype_max)
    with rounding half away from zero and g drawn from the pixel's own
    stream index, so output is identical however the scene is tiled or
    whichever thread renders a band. Each band is rendered by
    ``_band_renderer``, which ``gstk pipeline`` runs as band tasks.
    """
    truth = paint_labels(spec)
    render = _band_renderer(spec, truth)
    return MultibandImage(tuple(map(render, range(spec.n_bands)))), truth
