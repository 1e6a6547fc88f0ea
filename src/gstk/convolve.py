"""Exact integer convolution of templates over bands.

"Convolution" here is correlation with the template as printed: the
output pixel is the sum of coeff(dcol, drow) * input(row+drow, col+dcol)
with no kernel flip. The shipped templates are symmetric under all square
symmetries, so the convention is only observable with asymmetric kernels;
it is pinned here and covered by tests.

Each row tile pads its own input rows, halo included, and sums the
kernel as a few row terms: rows of the kernel that hold one coefficient
magnitude in the same columns share one term, built once per tile and
added at each row shift (see ``_terms``). Accumulation is exact integer
arithmetic: a precheck bounds every partial sum by sum(|coeff|) *
dtype_max and refuses kernels whose bound exceeds signed 32 bits. Each
tile sums in int16 where that bound fits (u8 input with the shipped
templates) and in int32 otherwise, and the responses are int32. Results
are bit-identical however the rows are tiled and for any worker count.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from enum import Enum
from typing import Any

import numpy as np

from .errors import DomainError
from .kernels import Kernel
from .raster import Band, ResponseField, _frozen

_INT16_MAX = 2**15 - 1
_INT32_MAX = 2**31 - 1

# Output samples per row tile (512 KiB as int32), so a tile's padded rows,
# its term buffer and its accumulator stay in a 2 MiB L2 cache. smooth5,
# 2-vCPU Xeon, median of 10-15 interleaved rounds per budget:
#   u16 2048^2, 1 worker: 2^16 21.0, 2^17 22.6, 2^18 27.4, 2^19 32.0 ms;
#   the same with 2 tile threads: 2^15 37.6, 2^16 22.0, 2^17 18.7, 2^18 18.4;
#   8 such bands on 2 band threads: 2^16 158, 2^17 135, 2^18 151 ms;
#   u8 1536^2, 1 worker: 2^16 8.4, 2^17 7.9, 2^18 7.3 ms.
# Smaller tiles cost more per-call overhead, which threads serialize on.
_TILE_SAMPLES = 2**17


class BoundaryMode(str, Enum):
    """Out-of-range pixel reads: clamp to edge, mirror, or read zero.

    ``reflect`` mirrors without repeating the edge sample (half-sample
    symmetry: ... c b a | a b c ...), folding repeatedly for reads farther
    than one image width/height outside.
    """

    REPLICATE = "replicate"
    REFLECT = "reflect"
    ZERO = "zero"


def _source(lo: int, hi: int, size: int, boundary: BoundaryMode) -> np.ndarray:
    """The sample index read at each position lo..hi-1 of an axis of ``size``.

    Positions outside 0..size-1 clip for ``replicate`` and fold with period
    ``2 * size`` for ``reflect``; for ``zero`` they get -1, a read of 0.
    """
    pos = np.arange(lo, hi)
    if boundary is BoundaryMode.REPLICATE:
        return np.clip(pos, 0, size - 1)
    if boundary is BoundaryMode.REFLECT:
        pos %= 2 * size
        return np.where(pos < size, pos, 2 * size - 1 - pos)
    return np.where((pos >= 0) & (pos < size), pos, -1)


def _terms(kernel: Kernel) -> list[tuple[int, tuple[int, ...], list[tuple[int, bool]]]]:
    """The kernel as a sum of terms ``(g, columns, shifts)``.

    A term is ``V = g * sum(ext[:, c:c + width] for c in columns)``; the
    response adds ``V`` shifted down by ``r`` for each ``(r, True)`` in
    ``shifts`` and subtracts it for each ``(r, False)``. Kernel row ``r``
    holds ``+g`` (or ``-g``) exactly in ``columns``, so rows that share
    their column set and coefficient magnitude share one term.
    """
    terms: dict[tuple[int, tuple[int, ...]], list[tuple[int, bool]]] = {}
    for r, row in enumerate(kernel.coeffs):
        for coeff in sorted(set(row) - {0}):
            columns = tuple(c for c, v in enumerate(row) if v == coeff)
            terms.setdefault((abs(coeff), columns), []).append((r, coeff > 0))
    return [(g, columns, shifts) for (g, columns), shifts in terms.items()]


def _in_order(task: Callable[[Any], Any], items: Sequence, threads: int) -> Iterator:
    """``task(item)`` for each item, yielded in item order.

    With more than one thread the tasks run on a pool of ``threads``, and
    at most ``threads + 1`` results are in flight: computing, or computed
    and not yet taken. A task's exception is raised where its result would
    have been yielded. Closing the iterator, or an exception, cancels the
    tasks not started and waits for the running ones.
    """
    if threads == 1:
        yield from map(task, items)
        return
    # Imported here: the pool costs every gstk start about 6 ms to import.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        pending: deque = deque()
        for item in items:
            if len(pending) > threads:
                yield pending.popleft().result()
            pending.append(pool.submit(task, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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
    threads than there are tiles or CPUs. Each thread takes a contiguous
    group of tiles through ``_in_order``, the one thread runner, and
    allocates its tile buffers once for all of them. Each tile gathers its
    own padded input rows (its halo included) and writes a disjoint output
    region, so the result does not depend on the tiling or on ``workers``.
    A tile builds each term of the kernel (see ``_terms``) once over the
    rows its shifts read, then adds or subtracts it at each shift. It sums
    in int16 when ``kernel.abs_sum() * dtype_max <= 2^15 - 1`` and copies
    the sum into the int32 result; otherwise it sums in the int32 result
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

    # Every term buffer and partial sum is a sum of distinct |coeff| * sample
    # terms, so it is bounded by ``worst`` too; int16 holds it when worst <=
    # 2^15 - 1 (u8 input with abs_sum <= 128: smooth5 8160, laplacian3 4080).
    acc_dtype = np.int16 if worst <= _INT16_MAX else np.int32
    boundary = BoundaryMode(boundary)
    samples = band.samples
    height, width = band.height, band.width
    ar, ac = kernel.anchor
    kh, kw = kernel.rows, kernel.cols
    left = _source(-ac, 0, width, boundary)
    right = _source(width, width + kw - 1 - ac, width, boundary)
    terms = _terms(kernel)
    out = np.empty((height, width), dtype=np.int32)
    in_place = acc_dtype is np.int32

    rows = min(height, max(1, _TILE_SAMPLES // width))
    tiles = [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]

    def run_tiles(group: list[tuple[int, int]]) -> None:
        # One set of buffers per thread, sized for a full tile.
        ext_buf = np.empty((rows + kh - 1, ac + width + len(right)), dtype=acc_dtype)
        scratch = np.empty((rows + kh - 1, width), dtype=acc_dtype)
        acc_buf = None if in_place else np.empty((rows, width), dtype=acc_dtype)
        for r0, r1 in group:
            # The tile's input rows with their halo, padded on both axes.
            n = r1 - r0
            lo, hi = r0 - ar, r1 + kh - 1 - ar
            ext = ext_buf[: hi - lo]
            # Rows inside the band are copied as one slice; only the halo
            # rows outside it are gathered.
            a, b = max(lo, 0), min(hi, height)
            ext[a - lo : b - lo, ac : ac + width] = samples[a:b]
            for start, stop in ((lo, a), (b, hi)):
                if start < stop:
                    index = _source(start, stop, height, boundary)
                    halo = ext[start - lo : stop - lo]
                    halo[:, ac : ac + width] = samples[index]
                    halo[index < 0] = 0
            if boundary is BoundaryMode.ZERO:
                ext[:, :ac] = 0
                ext[:, ac + width :] = 0
            else:
                ext[:, :ac] = ext[:, ac + left]
                ext[:, ac + width :] = ext[:, ac + right]

            # Each term is built once, contiguous, over the rows its shifts
            # read, then added or subtracted at each shift.
            acc = out[r0:r1] if in_place else acc_buf[:n]
            started = False
            for g, columns, shifts in terms:
                top, bottom = shifts[0][0], shifts[-1][0] + n
                v, *more = (ext[top:bottom, c : c + width] for c in columns)
                if more:
                    v = np.add(v, more[0], out=scratch[: bottom - top])
                    for rest in more[1:]:
                        v += rest
                if g != 1:
                    v = np.multiply(v, g, out=scratch[: bottom - top])
                for r, positive in shifts:
                    part = v[r - top : r - top + n]
                    if started:
                        (np.add if positive else np.subtract)(acc, part, out=acc)
                    else:
                        (np.positive if positive else np.negative)(part, out=acc)
                        started = True
            if not started:  # an all-zero kernel
                acc.fill(0)
            if not in_place:
                out[r0:r1] = acc

    threads = min(workers, len(tiles), os.cpu_count() or 1)
    # Each thread takes a contiguous group of tiles.
    groups = [
        tiles[len(tiles) * i // threads : len(tiles) * (i + 1) // threads]
        for i in range(threads)
    ]
    for _ in _in_order(run_tiles, groups, threads):
        pass
    return ResponseField(_frozen(out))
