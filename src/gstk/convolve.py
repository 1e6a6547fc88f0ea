"""Exact integer convolution of templates over bands.

"Convolution" here is correlation with the template as printed: the
output pixel is the sum of coeff(dcol, drow) * input(row+drow, col+dcol)
with no kernel flip. The shipped templates are symmetric under all square
symmetries, so the convention is only observable with asymmetric kernels;
it is pinned here and covered by tests.

Accumulation is exact integer arithmetic: a precheck bounds every partial
sum by sum(|coeff|) * dtype_max and refuses kernels whose bound exceeds
signed 32 bits. Each row tile accumulates in int16 where that bound fits
(u8 input with the shipped templates) and in int32 otherwise, and the
responses are int32. Results are bit-identical however the rows are tiled
and for any worker count.
"""

from __future__ import annotations

import os
from enum import Enum

import numpy as np

from .errors import DomainError
from .kernels import Kernel
from .raster import Band, MultibandImage, ResponseField, _frozen

_INT16_MAX = 2**15 - 1
_INT32_MAX = 2**31 - 1

# Output samples per row tile (1 MiB as int32), so a tile's accumulator and
# input rows mostly stay in cache across the taps. smooth5 on a 2-vCPU Xeon
# against fixed 256-row tiles: u16 2048^2 68 -> 59 ms on 1 worker and 46 ->
# 44 ms on 2; u8 1536^2 33 -> 29 ms. Half this budget ran 1 worker faster
# still (54 ms), but then 2 threads beat 1 by only 1.17x (median of 12
# rounds, 3 of 12 lost) against 1.37x here, too thin for criterion 8.
_TILE_SAMPLES = 2**18


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


def _extended(
    band: Band, kernel: Kernel, boundary: BoundaryMode, dtype: type
) -> np.ndarray:
    """Input extended so every kernel placement reads in-range, as ``dtype``."""
    ar, ac = kernel.anchor
    pads = ((ar, kernel.rows - 1 - ar), (ac, kernel.cols - 1 - ac))
    mode = _PAD_MODES[BoundaryMode(boundary)]
    return np.pad(band.samples, pads, mode=mode).astype(dtype)


def convolve(
    band: Band,
    kernel: Kernel,
    boundary: BoundaryMode = BoundaryMode.REPLICATE,
    *,
    workers: int = 1,
) -> ResponseField:
    """Convolve one band with an integer template.

    Internally the output is split into row tiles whose height follows the
    band width, computed on up to ``workers`` threads but never on more
    threads than there are tiles or CPUs. Tiles write disjoint output
    regions and share the read-only extended input, so the result does not
    depend on the tiling or on ``workers``. Each tile sums its taps in
    int16 when ``kernel.abs_sum() * dtype_max <= 2^15 - 1`` and copies the
    sum into the int32 result; otherwise it sums them in the int32 result
    directly.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    worst = kernel.abs_sum() * band.dtype_max
    if worst > _INT32_MAX:
        raise DomainError(
            f"kernel magnitude sum {kernel.abs_sum()} on {band.dtype} samples "
            "can overflow signed 32-bit accumulation"
        )

    # Every partial sum is a sum of distinct coeff * sample terms, so it is
    # bounded by ``worst`` too; int16 holds it when worst <= 2^15 - 1 (u8
    # input with abs_sum <= 128: smooth5 8160, laplacian3 4080).
    acc_dtype = np.int16 if worst <= _INT16_MAX else np.int32
    height, width = band.height, band.width
    ext = _extended(band, kernel, boundary, acc_dtype)
    out = np.empty((height, width), dtype=np.int32)
    # An all-zero kernel keeps one zero tap, which writes the zero response.
    taps = [
        (r, c, v)
        for r, row in enumerate(kernel.coeffs)
        for c, v in enumerate(row)
        if v != 0
    ] or [(0, 0, 0)]
    in_place = acc_dtype is np.int32

    def run_tile(r0: int, r1: int) -> None:
        n = r1 - r0
        acc = out[r0:r1] if in_place else np.empty((n, width), dtype=acc_dtype)
        term = np.empty_like(acc)
        (kr, kc, coeff), *rest = taps
        np.multiply(ext[r0 + kr : r0 + kr + n, kc : kc + width], coeff, out=acc)
        for kr, kc, coeff in rest:
            np.multiply(ext[r0 + kr : r0 + kr + n, kc : kc + width], coeff, out=term)
            acc += term
        if not in_place:
            out[r0:r1] = acc

    rows = max(1, _TILE_SAMPLES // width)
    tiles = [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]
    threads = min(workers, len(tiles), os.cpu_count() or 1)
    if threads == 1:
        for r0, r1 in tiles:
            run_tile(r0, r1)
    else:
        # Imported here: the pool costs every gstk start about 6 ms to import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda t: run_tile(*t), tiles))
    return ResponseField(_frozen(out))


def convolve_image(
    image: MultibandImage,
    kernel: Kernel,
    boundary: BoundaryMode = BoundaryMode.REPLICATE,
    *,
    workers: int = 1,
) -> list[ResponseField]:
    """Convolve every band, preserving band order."""
    return [convolve(b, kernel, boundary, workers=workers) for b in image.bands]
