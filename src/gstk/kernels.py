"""Integer convolution templates: derivation, symmetrization, serialization.

The central object is the 5x5 smoothing template obtained by discretizing
the operator  d2/dx2 + 2*d2/dxdy + d2/dy2  (the second-order equation that
a gradient-sum minimizer satisfies) with backward differences on a unit
grid, then replicating the resulting one-quadrant stencil about its anchor.
The template is zero-sum with vanishing first moments, so it annihilates
locally affine image patches and responds only to genuine variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, FileFormatError

# Coefficient magnitudes must fit in 16 signed bits.
_COEFF_LIMIT = 1 << 15

# Most rows or columns a kernel may have. Convolving pads each row tile by
# the kernel size minus one on each axis, so an unbounded kernel file
# could ask for gigabytes; 255 is 51x the 5x5 template.
MAX_KERNEL_SIDE = 255


@dataclass(frozen=True)
class Kernel:
    """A small grid of signed integer weights with an anchor cell.

    ``coeffs`` is row-major, top to bottom, matching the printed layout of
    a template. ``anchor`` is the (row, col) cell that aligns with the
    output pixel. Anchor-relative offsets are written (dcol, drow), where
    -1 means one step toward the lower index (left / up).
    """

    coeffs: tuple[tuple[int, ...], ...]
    anchor: tuple[int, int]

    def __post_init__(self) -> None:
        if not self.coeffs or not self.coeffs[0]:
            raise DomainError("kernel grid must be non-empty")
        cols = len(self.coeffs[0])
        _check_side(len(self.coeffs), cols)
        for row in self.coeffs:
            if len(row) != cols:
                raise DomainError("kernel grid rows must all have the same length")
            for c in row:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise DomainError(f"kernel coefficient {c!r} is not an integer")
                if not -_COEFF_LIMIT < c < _COEFF_LIMIT:
                    raise DomainError(
                        f"kernel coefficient {c} does not fit in 16 signed bits"
                    )
        ar, ac = self.anchor
        if not (0 <= ar < len(self.coeffs) and 0 <= ac < cols):
            raise DomainError(f"anchor {self.anchor} lies outside the kernel grid")

    @classmethod
    def from_rows(
        cls, rows: list[list[int]], anchor: tuple[int, int] | None = None
    ) -> "Kernel":
        """Build a kernel from nested lists; default anchor is the center.

        A default anchor exists only for odd-dimensioned grids.
        """
        grid = tuple(tuple(int(c) for c in row) for row in rows)
        if anchor is None:
            if not grid or len(grid) % 2 == 0 or len(grid[0]) % 2 == 0:
                raise DomainError(
                    "even-dimensioned kernels need an explicit anchor"
                )
            anchor = (len(grid) // 2, len(grid[0]) // 2)
        return cls(grid, anchor)

    @property
    def rows(self) -> int:
        return len(self.coeffs)

    @property
    def cols(self) -> int:
        return len(self.coeffs[0])

    def coeff(self, dcol: int, drow: int) -> int:
        """Coefficient at an anchor-relative offset; 0 outside the grid."""
        r = self.anchor[0] + drow
        c = self.anchor[1] + dcol
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return self.coeffs[r][c]
        return 0

    def offsets(self) -> Iterator[tuple[int, int, int]]:
        """Yield (dcol, drow, coeff) for every nonzero cell."""
        ar, ac = self.anchor
        for r, row in enumerate(self.coeffs):
            for c, v in enumerate(row):
                if v != 0:
                    yield c - ac, r - ar, v

    def to_array(self) -> np.ndarray:
        """The coefficient grid as a fresh int32 array."""
        return np.array(self.coeffs, dtype=np.int32)

    def abs_sum(self) -> int:
        return sum(abs(c) for row in self.coeffs for c in row)

    def is_d4_symmetric(self) -> bool:
        """True if invariant under all 8 square symmetries about the anchor."""
        if self.rows != self.cols or self.rows % 2 == 0:
            return False
        if self.anchor != (self.rows // 2, self.cols // 2):
            return False
        a = self.to_array()
        # Transpose plus one mirror generate the full dihedral group.
        return (
            np.array_equal(a, a.T)
            and np.array_equal(a, np.fliplr(a))
            and np.array_equal(a, np.flipud(a))
        )


def moment(kernel: Kernel, p: int, q: int) -> int:
    """Return sum over nonzero cells of coeff * dcol^p * drow^q.

    Offsets are anchor-relative. Moment (0, 0) is the plain coefficient
    sum; vanishing low moments mean the kernel annihilates low-degree
    polynomial fields.
    """
    if p < 0 or q < 0:
        raise DomainError("moment exponents must be non-negative")
    return sum(v * dc**p * dr**q for dc, dr, v in kernel.offsets())


def derive_quadrant_template() -> Kernel:
    """The one-quadrant 3x3 stencil from backward differences.

    Discretizing fxx + 2*fxy + fyy with unit-spaced backward differences
    gives 4*f(x,y) - 4*f(x-1,y) - 4*f(x,y-1) + 2*f(x-1,y-1) + f(x-2,y)
    + f(x,y-2). The anchor is the (x,y) cell, so the support occupies the
    closed quadrant of non-positive offsets.
    """
    return Kernel(
        coeffs=(
            (0, 0, 1),
            (0, 2, -4),
            (1, -4, 4),
        ),
        anchor=(2, 2),
    )


def symmetrize(quadrant: Kernel) -> Kernel:
    """Replicate a one-quadrant stencil into a full symmetric template.

    The output is K(i,j) = Q(-|i|, -|j|): the four axis-reflected copies
    are overlaid, with shared cells taking the common value once (not
    summed). The result is square with a central anchor and is invariant
    under all 8 square symmetries.

    Rejects input with support outside the closed quadrant of non-positive
    offsets, and input whose reflected copies disagree on a shared cell
    (a quadrant that is not symmetric in its two axes).
    """
    support = list(quadrant.offsets())
    bad = [(dc, dr) for dc, dr, _ in support if dc > 0 or dr > 0]
    if bad:
        raise DomainError(
            "quadrant support spans more than one quadrant: offsets "
            f"{bad} have a positive component (expected dcol <= 0 and drow <= 0)"
        )
    radius = max((max(abs(dc), abs(dr)) for dc, dr, _ in support), default=0)
    side = 2 * radius + 1
    grid = tuple(
        tuple(
            quadrant.coeff(-abs(c - radius), -abs(r - radius)) for c in range(side)
        )
        for r in range(side)
    )
    full = Kernel(grid, (radius, radius))
    if not full.is_d4_symmetric():
        raise DomainError(
            "reflected copies disagree on a shared cell: the quadrant is not "
            "symmetric under swapping its axes"
        )
    return full


def smoothing_template() -> Kernel:
    """The full 5x5 gradient-minimization smoothing template."""
    return symmetrize(derive_quadrant_template())


def laplacian_template() -> Kernel:
    """The standard 3x3 Laplacian difference template (center 8)."""
    return Kernel(
        coeffs=(
            (-1, -1, -1),
            (-1, 8, -1),
            (-1, -1, -1),
        ),
        anchor=(1, 1),
    )


def _check_side(rows: int, cols: int) -> None:
    if rows > MAX_KERNEL_SIDE or cols > MAX_KERNEL_SIDE:
        raise DomainError(f"kernel has more than {MAX_KERNEL_SIDE} rows or columns")


def parse_kernel(text: str) -> Kernel:
    """Parse the kernel text format.

    The format is a whitespace-separated integer grid, one row per line,
    with an optional leading ``anchor R C`` header. Without the header the
    anchor is the geometric center, which requires odd dimensions. A grid
    wider or taller than ``MAX_KERNEL_SIDE`` raises DomainError as soon as
    the offending row is read.
    """
    anchor: tuple[int, int] | None = None
    rows: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        # At most MAX_KERNEL_SIDE + 1 tokens: the last holds the rest of an
        # overlong row unsplit.
        tokens = line.split(maxsplit=MAX_KERNEL_SIDE)
        if not tokens:
            continue
        if tokens[0] == "anchor":
            if rows or anchor is not None:
                raise FileFormatError(
                    f"line {lineno}: anchor header must be the first line"
                )
            if len(tokens) != 3:
                raise FileFormatError(f"line {lineno}: expected 'anchor R C'")
            try:
                anchor = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise FileFormatError(
                    f"line {lineno}: anchor indices must be integers"
                ) from None
            continue
        _check_side(len(rows) + 1, len(tokens))
        try:
            row = [int(t) for t in tokens]
        except ValueError:
            raise FileFormatError(
                f"line {lineno}: non-integer token in kernel row"
            ) from None
        if rows and len(row) != len(rows[0]):
            raise FileFormatError(f"line {lineno}: ragged kernel row")
        rows.append(row)
    if not rows:
        raise FileFormatError("kernel text contains no coefficient rows")
    if anchor is None and (len(rows) % 2 == 0 or len(rows[0]) % 2 == 0):
        raise FileFormatError(
            "even-dimensioned kernel requires an explicit 'anchor R C' header"
        )
    try:
        return Kernel.from_rows(rows, anchor)
    except DomainError as exc:
        raise FileFormatError(str(exc)) from None


def format_kernel(kernel: Kernel) -> str:
    """Serialize a kernel to its canonical text form.

    Rows are single-space separated, each newline-terminated. The
    ``anchor R C`` header is emitted only when the anchor is not the
    geometric center of an odd-dimensioned grid, so that
    parse(format(k)) == k and format(parse(s)) == s for canonical s.
    """
    lines = []
    centered = (
        kernel.rows % 2 == 1
        and kernel.cols % 2 == 1
        and kernel.anchor == (kernel.rows // 2, kernel.cols // 2)
    )
    if not centered:
        lines.append(f"anchor {kernel.anchor[0]} {kernel.anchor[1]}")
    for row in kernel.coeffs:
        lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"
