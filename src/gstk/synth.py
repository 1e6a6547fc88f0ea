"""Deterministic synthetic scene generator.

Scenes are built from a JSON spec: a background class, painted rectangle
and disk regions, and per-class per-band (mean, sigma) signatures. Pixel
noise comes from a counter-based SplitMix64 stream, so any pixel of any
band can be generated independently: the value at (band, row, col) never
depends on generation order, tiling, or how much of the scene is rendered.

Stream layout: pixel (band, row, col) of a width-W, height-H scene draws
its gaussian from stream index band*H*W + row*W + col, and gaussian k
consumes uniforms 2k and 2k+1 (Box-Muller, cosine branch).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FileFormatError
from .raster import Band, DTYPE_MAX, MultibandImage, NUMPY_DTYPES
from .analysis import ClassificationMap

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Counter-based PRNG

# All mixing runs on uint64 arrays: numpy array ops wrap modulo 2^64
# silently, which is exactly the arithmetic SplitMix64 needs.


def splitmix64(seed: int, indices: np.ndarray) -> np.ndarray:
    """SplitMix64 output words at the given stream indices.

    output(i) = mix(seed + (i+1) * 0x9E3779B97F4A7C15), so index 0 yields
    the first word a sequential SplitMix64 seeded the same way would.
    """
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    idx = np.asarray(indices, dtype=np.uint64)
    z = np.uint64(seed) + (idx + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, indices: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1]: ((word >> 11) + 1) * 2**-53.

    The +1 keeps zero out of the range so log() in the gaussian transform
    is always finite.
    """
    words = splitmix64(seed, indices)
    return ((words >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


def gaussian_stream(seed: int, indices: np.ndarray) -> np.ndarray:
    """Standard normals; gaussian k uses uniforms 2k and 2k+1 (Box-Muller)."""
    idx = np.asarray(indices, dtype=np.uint64)
    u1 = uniform_stream(seed, idx * np.uint64(2))
    u2 = uniform_stream(seed, idx * np.uint64(2) + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


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

    def mask(self, scene_height: int, scene_width: int) -> np.ndarray:
        m = np.zeros((scene_height, scene_width), dtype=bool)
        m[self.row : self.row + self.height, self.col : self.col + self.width] = True
        return m


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

    def mask(self, scene_height: int, scene_width: int) -> np.ndarray:
        rows = np.arange(scene_height)[:, None] - self.row
        cols = np.arange(scene_width)[None, :] - self.col
        return rows * rows + cols * cols <= self.radius * self.radius


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
        if not 0 <= self.seed <= _MASK64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")
        if not self.signatures:
            raise DomainError("scene defines no classes")
        n_bands = len(self.signatures[0].means)
        if not 1 <= n_bands <= 255:
            raise DomainError(f"scene must have 1..255 bands, got {n_bands}")
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
                if s < 0:
                    raise DomainError(f"class {sig.name!r} has negative sigma {s}")
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
        if kind is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise FileFormatError(f"scene spec {key!r} must be a number")
        elif not isinstance(value, kind) or isinstance(value, bool):
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

        if shape == "rect":
            region: Rectangle | Disk = Rectangle(
                geom("row"), geom("col"), geom("height"), geom("width")
            )
        elif shape == "disk":
            region = Disk(geom("row"), geom("col"), geom("radius"))
        else:
            raise FileFormatError(f"unknown region shape {shape!r}")
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
    regions = []
    for p in spec.placements:
        if isinstance(p.region, Rectangle):
            regions.append(
                {
                    "shape": "rect",
                    "class": p.class_index,
                    "row": p.region.row,
                    "col": p.region.col,
                    "height": p.region.height,
                    "width": p.region.width,
                }
            )
        else:
            regions.append(
                {
                    "shape": "disk",
                    "class": p.class_index,
                    "row": p.region.row,
                    "col": p.region.col,
                    "radius": p.region.radius,
                }
            )
    doc = {
        "width": spec.width,
        "height": spec.height,
        "dtype": spec.dtype,
        "seed": spec.seed,
        "background_class": spec.background_class,
        "classes": [
            {"name": s.name, "means": list(s.means), "sigmas": list(s.sigmas)}
            for s in spec.signatures
        ],
        "regions": regions,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Rendering


def paint_labels(spec: SceneSpec) -> ClassificationMap:
    """Class label of every pixel: background, then regions in spec order."""
    labels = np.full((spec.height, spec.width), spec.background_class, dtype=np.int32)
    for placement in spec.placements:
        labels[placement.region.mask(spec.height, spec.width)] = placement.class_index
    return ClassificationMap(labels)


def synth_scene(spec: SceneSpec) -> tuple[MultibandImage, ClassificationMap]:
    """Render the scene: per-pixel gaussian around each class signature.

    value(band, row, col) = clamp(round(mean + sigma * g), 0, dtype_max)
    with rounding half away from zero and g drawn from the pixel's own
    stream index, so output is identical however the scene is tiled.
    """
    truth = paint_labels(spec)
    labels = truth.labels
    top = DTYPE_MAX[spec.dtype]
    dtype = NUMPY_DTYPES[spec.dtype]
    n_pixels = spec.height * spec.width

    # Lookup row 0 is a placeholder; labels are 1-based.
    means = np.zeros((spec.n_classes + 1, spec.n_bands), dtype=np.float64)
    sigmas = np.zeros_like(means)
    for c, sig in enumerate(spec.signatures, start=1):
        means[c] = sig.means
        sigmas[c] = sig.sigmas

    pixel_index = np.arange(n_pixels, dtype=np.uint64).reshape(spec.height, spec.width)
    bands = []
    for b in range(spec.n_bands):
        values = gaussian_stream(spec.seed, pixel_index + np.uint64(b * n_pixels))
        values *= sigmas[labels, b]
        values += means[labels, b]
        # floor(x + 0.5) differs from rounding half away from zero only
        # below zero, where the clamp maps both to 0.
        values += 0.5
        np.floor(values, out=values)
        np.clip(values, 0, top, out=values)
        bands.append(Band(values.astype(dtype)))
    return MultibandImage(tuple(bands)), truth
