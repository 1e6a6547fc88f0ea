"""Exact integer convolution of templates over bands.

"Convolution" here is correlation with the template as printed: the
output pixel is the sum of coeff(dcol, drow) * input(row+drow, col+dcol)
with no kernel flip. The shipped templates are symmetric under all square
symmetries, so the convention is only observable with asymmetric kernels;
it is pinned here and covered by tests.

Accumulation is exact signed 32-bit integer arithmetic (a precheck
guarantees no overflow), so results are bit-identical for any tile size
or worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from enum import Enum

import numpy as np

from .errors import DomainError
from .kernels import Kernel
from .raster import Band, MultibandImage, ResponseField

_INT32_MAX = 2**31 - 1

DEFAULT_TILE_ROWS = 256


class BoundaryMode(str, Enum):
    """Out-of-range pixel reads: clamp to edge, mirror, or read zero.

    ``reflect`` mirrors without repeating the edge sample (half-sample
    symmetry: ... c b a | a b c ...), folding repeatedly for reads farther
    than one image width/height outside.
    """

    REPLICATE = "replicate"
    REFLECT = "reflect"
    ZERO = "zero"


_PAD_MODES = {
    BoundaryMode.REPLICATE: "edge",
    BoundaryMode.REFLECT: "symmetric",
    BoundaryMode.ZERO: "constant",
}


def _extended(band: Band, kernel: Kernel, boundary: BoundaryMode) -> np.ndarray:
    """Input extended so every kernel placement reads in-range, as int32."""
    ar, ac = kernel.anchor
    pads = ((ar, kernel.rows - 1 - ar), (ac, kernel.cols - 1 - ac))
    mode = _PAD_MODES[BoundaryMode(boundary)]
    return np.pad(band.samples, pads, mode=mode).astype(np.int32)


def convolve(
    band: Band,
    kernel: Kernel,
    boundary: BoundaryMode = BoundaryMode.REPLICATE,
    *,
    workers: int = 1,
    tile_rows: int = DEFAULT_TILE_ROWS,
) -> ResponseField:
    """Convolve one band with an integer template.

    Internally the output is split into blocks of ``tile_rows`` rows which
    may be computed on up to ``workers`` threads; tiles write disjoint
    output regions and share the read-only extended input, so the result
    does not depend on either knob.
    """
    if band.width == 0 or band.height == 0:
        raise DomainError("cannot convolve an empty band")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if tile_rows < 1:
        raise DomainError(f"tile_rows must be >= 1, got {tile_rows}")
    worst = kernel.abs_sum() * band.dtype_max
    if worst > _INT32_MAX:
        raise DomainError(
            f"kernel magnitude sum {kernel.abs_sum()} on {band.dtype} samples "
            "can overflow signed 32-bit accumulation"
        )

    height, width = band.height, band.width
    ext = _extended(band, kernel, boundary)
    out = np.zeros((height, width), dtype=np.int32)
    taps = [
        (r, c, v)
        for r, row in enumerate(kernel.coeffs)
        for c, v in enumerate(row)
        if v != 0
    ]

    def run_tile(r0: int, r1: int) -> None:
        n = r1 - r0
        acc = out[r0:r1]
        for kr, kc, coeff in taps:
            # Partial sums are bounded by the overflow precheck above.
            acc += coeff * ext[r0 + kr : r0 + kr + n, kc : kc + width]

    tiles = [(r0, min(r0 + tile_rows, height)) for r0 in range(0, height, tile_rows)]
    if workers == 1 or len(tiles) == 1:
        for r0, r1 in tiles:
            run_tile(r0, r1)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda t: run_tile(*t), tiles))
    return ResponseField(out)


def convolve_image(
    image: MultibandImage,
    kernel: Kernel,
    boundary: BoundaryMode = BoundaryMode.REPLICATE,
    *,
    workers: int = 1,
    tile_rows: int = DEFAULT_TILE_ROWS,
) -> list[ResponseField]:
    """Convolve every band, preserving band order."""
    return [
        convolve(b, kernel, boundary, workers=workers, tile_rows=tile_rows)
        for b in image.bands
    ]
