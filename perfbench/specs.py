"""Workload definitions: inputs and gstk argv, generated from a seed.

Every input the program sees is derived here from the benchmark seed:
scene specs from Python's ``random.Random`` (a string seed gives the same
stream on every Python 3 version), and the convolve input rendered from
its spec by this module's own implementation of the scene generator that
docs/formats.md pins. The same renderer gives the digests of the scene
and truth files ``gstk pipeline`` must write, for any seed. Sizes are
fixed per workload; the seed moves only radiometry, region geometry and
noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1


@dataclass(frozen=True)
class SceneShape:
    width: int
    height: int
    bands: int
    dtype: str
    classes: int
    regions: int
    mean_range: tuple[float, float]
    sigma_range: tuple[float, float]

    @property
    def band_pixels(self) -> int:
        return self.width * self.height * self.bands

    @property
    def bytes_per_sample(self) -> int:
        return 1 if self.dtype == "u8" else 2


@dataclass(frozen=True)
class Workload:
    name: str
    scene: SceneShape
    subcommand: str  # "pipeline" (input: scene spec) or "convolve" (input: BSQ)


# BENCHMARK.json says why each workload is in the benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-u8",
            SceneShape(1536, 1536, 6, "u8", 5, 48, (30.0, 225.0), (2.0, 8.0)),
            "pipeline",
        ),
        Workload(
            "pipeline-u16-wide",
            SceneShape(256, 256, 96, "u16", 4, 6, (2000.0, 60000.0), (50.0, 800.0)),
            "pipeline",
        ),
        Workload(
            "convolve-u16",
            SceneShape(2048, 2048, 8, "u16", 4, 12, (4000.0, 56000.0), (100.0, 1500.0)),
            "convolve",
        ),
    )
}


def _regions(shape: SceneShape, rng: random.Random) -> list[dict]:
    regions = []
    side = min(shape.width, shape.height)
    for i in range(shape.regions):
        cls = 2 + i % (shape.classes - 1)
        if i % 2 == 0:
            h = rng.randint(side // 32, side // 5)
            w = rng.randint(side // 32, side // 5)
            regions.append(
                {
                    "shape": "rect",
                    "class": cls,
                    "row": rng.randint(0, shape.height - h),
                    "col": rng.randint(0, shape.width - w),
                    "height": h,
                    "width": w,
                }
            )
        else:
            r = rng.randint(side // 64, side // 10)
            regions.append(
                {
                    "shape": "disk",
                    "class": cls,
                    "row": rng.randint(r, shape.height - 1 - r),
                    "col": rng.randint(r, shape.width - 1 - r),
                    "radius": r,
                }
            )
    return regions


def paint(doc: dict) -> np.ndarray:
    """The 1-based class label of every pixel, as docs/formats.md defines."""
    labels = np.full((doc["height"], doc["width"]), doc["background_class"], dtype=np.uint8)
    for region in doc["regions"]:
        r, c = region["row"], region["col"]
        if region["shape"] == "rect":
            labels[r : r + region["height"], c : c + region["width"]] = region["class"]
        else:
            k = region["radius"]
            yy, xx = np.ogrid[-k : k + 1, -k : k + 1]
            labels[r - k : r + k + 1, c - k : c + k + 1][yy * yy + xx * xx <= k * k] = region["class"]
    return labels


def scene_doc(workload: Workload, seed: int) -> dict:
    """The scene spec document for one workload and benchmark seed.

    Region classes cycle through 2..K, half the regions are rectangles and
    half disks, so the work does not depend on the seed. Regions are drawn
    again until every class shows on the even-coordinate subgrid that
    ``gstk pipeline`` trains on, since a missing class fails the run.
    """
    shape = workload.scene
    rng = random.Random(f"{workload.name}/{seed}")
    lo, hi = shape.mean_range
    slo, shi = shape.sigma_range
    doc = {
        "width": shape.width,
        "height": shape.height,
        "dtype": shape.dtype,
        "seed": rng.getrandbits(64),
        "background_class": 1,
        "classes": [
            {
                "name": f"class {c + 1}",
                "means": [round(rng.uniform(lo, hi), 3) for _ in range(shape.bands)],
                "sigmas": [round(rng.uniform(slo, shi), 3) for _ in range(shape.bands)],
            }
            for c in range(shape.classes)
        ],
        "regions": [],
    }
    while True:
        doc["regions"] = _regions(shape, rng)
        if len(np.unique(paint(doc)[::2, ::2])) == shape.classes:
            return doc


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _uniforms(seed: int, idx: np.ndarray) -> np.ndarray:
    """SplitMix64 words at stream indices ``idx`` as doubles in (0, 1]."""
    z = idx + np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(seed)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    z += np.uint64(1)
    return z.astype(np.float64) * 2.0**-53


def render_scene(doc: dict, write) -> np.ndarray:
    """Render a scene spec as docs/formats.md pins it, independently of the
    program: pass each band's little-endian BSQ payload to ``write`` and
    return the label map. Bands are computed whole-frame, as gstk does, so
    numpy evaluates log and cos on identically laid-out arrays."""
    labels = paint(doc)
    height, width = labels.shape
    top, dtype = (255, "u1") if doc["dtype"] == "u8" else (65535, "<u2")
    zero = [[0.0] * len(doc["classes"][0]["means"])]  # labels are 1-based
    means = np.array(zero + [c["means"] for c in doc["classes"]])
    sigmas = np.array(zero + [c["sigmas"] for c in doc["classes"]])
    pixel = np.arange(height * width, dtype=np.uint64).reshape(height, width)
    for b in range(means.shape[1]):
        k = pixel + np.uint64(b * height * width)
        k *= np.uint64(2)
        u1 = _uniforms(doc["seed"], k)
        k += np.uint64(1)
        u2 = _uniforms(doc["seed"], k)
        g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        v = sigmas[labels, b] * g
        v += means[labels, b]
        # Rounding half away from zero, then clamping at 0, equals
        # floor(v + 0.5) clamped at 0: negative values clamp either way.
        v += 0.5
        np.floor(v, out=v)
        np.clip(v, 0, top, out=v)
        write(v.astype(dtype).tobytes())
    return labels


def bsq_header(width: int, height: int, bands: int, dtype: str) -> str:
    return (
        f"magic=GSTK1\nwidth={width}\nheight={height}\nbands={bands}\n"
        f"dtype={dtype}\nbyteorder=le\n"
    )


def scene_digests(doc: dict) -> dict[str, str]:
    """SHA-256 of the scene.hdr, scene.bsq and truth.pgm that ``gstk
    pipeline`` must write for this spec."""
    payload = hashlib.sha256()
    labels = render_scene(doc, payload.update)
    header = bsq_header(doc["width"], doc["height"], len(doc["classes"][0]["means"]), doc["dtype"])
    truth = f"P5\n{doc['width']} {doc['height']}\n255\n".encode() + labels.astype(np.uint8).tobytes()
    return {
        "scene.hdr": hashlib.sha256(header.encode()).hexdigest(),
        "scene.bsq": payload.hexdigest(),
        "truth.pgm": hashlib.sha256(truth).hexdigest(),
    }


def write_inputs(workload: Workload, seed: int, directory: str) -> dict[str, str]:
    """Write the program's input for ``workload`` under ``directory``: a
    scene spec for the pipelines, the rendered scene as a BSQ image for
    convolve. Return the digests of outputs known from the spec alone."""
    doc = scene_doc(workload, seed)
    if workload.subcommand == "convolve":
        base = os.path.join(directory, "input")
        with open(base + ".bsq", "wb") as f:
            render_scene(doc, f.write)
        with open(base + ".hdr", "w", encoding="ascii") as f:
            shape = workload.scene
            f.write(bsq_header(shape.width, shape.height, shape.bands, shape.dtype))
        return {}
    with open(os.path.join(directory, "scene.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return scene_digests(doc)


def argv(workload: Workload, work: str, out: str) -> list[str]:
    """The measured gstk command line; outputs go under ``out``."""
    if workload.subcommand == "pipeline":
        return ["pipeline", "--spec", os.path.join(work, "scene.json"), "--out-dir", out]
    return [
        "convolve",
        "--in", os.path.join(work, "input.hdr"),
        "--out", os.path.join(out, "edges.hdr"),
        "--stretch", "signed_linear",
        "--raw-out", os.path.join(out, "raw.npy"),
        "--workers", "2",
    ]
