"""Raster containers and bit-exact file I/O.

Two containers are supported, both chosen for byte-level testability:

* binary PGM (``P5``) for single bands, 8 or 16 bit, 16-bit samples
  big-endian per the PGM convention;
* a minimal band-sequential format ("GSTK1 BSQ") for multiband images: a
  text header of ``key=value`` lines next to a raw little-endian payload.

Readers reject truncated and trailing-garbage files deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, FileFormatError

NUMPY_DTYPES = {"u8": np.uint8, "u16": np.uint16}
DTYPE_MAX = {"u8": 255, "u16": 65535}


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only, C-contiguous array with ``arr``'s samples.

    A writable array is copied, so a caller cannot change it afterwards;
    a read-only contiguous one is kept as it is.
    """
    out = np.ascontiguousarray(arr)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.setflags(write=False)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array the library just allocated read-only and return it.

    ``_readonly`` then wraps it without a copy.
    """
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Band:
    """A single-channel unsigned raster, row-major, u8 or u16."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 2:
            raise DomainError(f"band samples must be 2-D, got {arr.ndim}-D")
        if arr.dtype not in (np.uint8, np.uint16):
            raise DomainError(f"band dtype must be uint8 or uint16, got {arr.dtype}")
        object.__setattr__(self, "samples", _readonly(arr))

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def dtype(self) -> str:
        return "u8" if self.samples.dtype == np.uint8 else "u16"

    @property
    def dtype_max(self) -> int:
        return DTYPE_MAX[self.dtype]


@dataclass(frozen=True)
class MultibandImage:
    """An ordered stack of equally shaped, equally typed bands."""

    bands: tuple[Band, ...]
    band_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        bands = tuple(self.bands)
        object.__setattr__(self, "bands", bands)
        if not 1 <= len(bands) <= 255:
            raise DomainError(f"band count must be 1..255, got {len(bands)}")
        first = bands[0]
        for b in bands[1:]:
            if (b.width, b.height, b.dtype) != (first.width, first.height, first.dtype):
                raise DomainError("all bands must share width, height and dtype")
        if self.band_names is not None:
            names = tuple(str(n) for n in self.band_names)
            if len(names) != len(bands):
                raise DomainError("band_names length must match band count")
            object.__setattr__(self, "band_names", names)

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def width(self) -> int:
        return self.bands[0].width

    @property
    def height(self) -> int:
        return self.bands[0].height

    @property
    def dtype(self) -> str:
        return self.bands[0].dtype

    def name_of(self, index: int) -> str:
        """Display name of a band by 0-based index (numbered from 1)."""
        if self.band_names is not None:
            return self.band_names[index]
        return f"band {index + 1}"


@dataclass(frozen=True)
class ResponseField:
    """Signed 32-bit raster holding raw convolution output, pre-stretch."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 2:
            raise DomainError(f"response samples must be 2-D, got {arr.ndim}-D")
        if arr.dtype != np.int32:
            raise DomainError(f"response dtype must be int32, got {arr.dtype}")
        object.__setattr__(self, "samples", _readonly(arr))

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# PGM (P5)


def _pgm_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens after the magic.

    Handles '#' comments, which run to end of line. Returns the tokens and
    the offset one byte past the single whitespace that terminates the
    last token.
    """
    tokens: list[int] = []
    pos = 2  # past "P5"
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos] == ord("#"):
            while pos < n and data[pos] != ord("\n"):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace() and data[pos] != ord("#"):
            pos += 1
        if pos == start:
            raise FileFormatError("truncated PGM header")
        token = data[start:pos]
        if not token.isdigit():
            raise FileFormatError(f"non-numeric PGM header token {token!r}")
        tokens.append(int(token))
        if len(tokens) == count:
            # Exactly one whitespace byte separates maxval from the payload.
            if pos >= n or not data[pos : pos + 1].isspace():
                raise FileFormatError("missing whitespace after PGM maxval")
            pos += 1
    return tokens, pos


def read_pgm(data: bytes) -> Band:
    """Decode a binary PGM (P5) byte string into a Band.

    maxval up to 255 maps to u8; 256..65535 maps to u16 with big-endian
    sample bytes. Trailing bytes after the payload are rejected.
    """
    if data[:2] != b"P5":
        raise FileFormatError("bad PGM magic (expected P5)")
    (width, height, maxval), pos = _pgm_header_tokens(data, 3)
    if maxval <= 0 or maxval > 65535:
        raise FileFormatError(f"PGM maxval {maxval} out of range 1..65535")
    bytes_per = 1 if maxval <= 255 else 2
    expected = width * height * bytes_per
    payload = memoryview(data)[pos:]
    if len(payload) < expected:
        raise FileFormatError(
            f"truncated PGM payload: expected {expected} bytes, got {len(payload)}"
        )
    if len(payload) > expected:
        raise FileFormatError(
            f"trailing garbage after PGM payload ({len(payload) - expected} bytes)"
        )
    if bytes_per == 1:
        arr = np.frombuffer(payload, dtype=np.uint8)
    else:
        arr = _frozen(np.frombuffer(payload, dtype=">u2").astype(np.uint16))
    return Band(arr.reshape(height, width))


def write_pgm(band: Band) -> bytes:
    """Encode a Band as canonical binary PGM bytes."""
    header = f"P5\n{band.width} {band.height}\n{band.dtype_max}\n".encode("ascii")
    if band.dtype == "u8":
        payload = band.samples.tobytes()
    else:
        payload = band.samples.astype(">u2").tobytes()
    return header + payload


# ---------------------------------------------------------------------------
# GSTK1 BSQ

_BSQ_MAGIC = "GSTK1"
_BSQ_KEYS = ("magic", "width", "height", "bands", "dtype", "byteorder")
_BSQ_DTYPES = {"u8": np.dtype(np.uint8), "u16": np.dtype("<u2")}


def read_bsq(header_text: str, payload: bytes) -> MultibandImage:
    """Decode a GSTK1 BSQ header + raw band-sequential payload.

    The header is ``key=value`` lines carrying exactly the keys magic,
    width, height, bands, dtype, byteorder. Samples are little-endian,
    each band stored contiguously in order.

    On a little-endian host the bands are read-only views of a read-only
    payload such as ``bytes``, which they keep alive; no sample is copied.
    A writable payload such as a ``bytearray`` is copied once, so changing
    it afterwards leaves the bands unchanged.
    """
    fields: dict[str, str] = {}
    for lineno, line in enumerate(header_text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FileFormatError(f"header line {lineno}: expected key=value")
        key = key.strip()
        if key not in _BSQ_KEYS:
            raise FileFormatError(f"header line {lineno}: unknown key {key!r}")
        if key in fields:
            raise FileFormatError(f"header line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    missing = [k for k in _BSQ_KEYS if k not in fields]
    if missing:
        raise FileFormatError(f"header missing keys: {', '.join(missing)}")
    if fields["magic"] != _BSQ_MAGIC:
        raise FileFormatError(f"bad BSQ magic {fields['magic']!r}")
    if fields["dtype"] not in NUMPY_DTYPES:
        raise FileFormatError(f"unknown BSQ dtype {fields['dtype']!r}")
    if fields["byteorder"] != "le":
        raise FileFormatError(f"unsupported byteorder {fields['byteorder']!r}")
    try:
        width = int(fields["width"])
        height = int(fields["height"])
        n_bands = int(fields["bands"])
    except ValueError:
        raise FileFormatError("width/height/bands must be integers") from None
    if width < 0 or height < 0:
        raise FileFormatError("width and height must be non-negative")
    if not 1 <= n_bands <= 255:
        raise FileFormatError(f"band count {n_bands} out of range 1..255")
    dtype = fields["dtype"]
    expected = width * height * n_bands * _BSQ_DTYPES[dtype].itemsize
    if len(payload) != expected:
        raise FileFormatError(
            f"payload length {len(payload)} != expected {expected} "
            f"({width}x{height}x{n_bands}, {dtype})"
        )
    flat = np.frombuffer(payload, dtype=_BSQ_DTYPES[dtype])
    # Copy only a writable payload, so no one can change the bands through it.
    flat = _frozen(flat.astype(NUMPY_DTYPES[dtype], copy=flat.flags.writeable))
    bands = tuple(
        Band(flat[b * width * height : (b + 1) * width * height].reshape(height, width))
        for b in range(n_bands)
    )
    return MultibandImage(bands)


def _bsq_parts(image: MultibandImage) -> tuple[str, list[np.ndarray]]:
    """The header text and each band's payload samples, in band order.

    Each band is its samples as little-endian ``_BSQ_DTYPES``: a view, not
    a copy, on a little-endian host.
    """
    header = (
        f"magic={_BSQ_MAGIC}\n"
        f"width={image.width}\n"
        f"height={image.height}\n"
        f"bands={image.n_bands}\n"
        f"dtype={image.dtype}\n"
        f"byteorder=le\n"
    )
    np_dtype = _BSQ_DTYPES[image.dtype]
    return header, [b.samples.astype(np_dtype, copy=False) for b in image.bands]


def write_bsq(image: MultibandImage) -> tuple[str, bytes]:
    """Encode an image as a (header text, payload bytes) pair."""
    header, bands = _bsq_parts(image)
    return header, b"".join(bands)


def bsq_paths(path: str) -> tuple[str, str]:
    """Header/payload sibling paths for a BSQ base, .hdr or .bsq path."""
    base = path
    for suffix in (".hdr", ".bsq"):
        if path.endswith(suffix):
            base = path[: -len(suffix)]
            break
    return base + ".hdr", base + ".bsq"


# ---------------------------------------------------------------------------
# Display stretching


class StretchMode(str, Enum):
    ABS_LINEAR = "abs_linear"
    SIGNED_LINEAR = "signed_linear"


# Samples per block of the magnitude histogram and of the u8 mapping: the
# float64 scratch block is 512 KiB, so it stays in L2 across the six ops.
_BLOCK = 2**16


def _magnitudes(samples: np.ndarray) -> np.ndarray:
    """|samples| of an int32 array as uint32, so that |-2^31| = 2^31.

    ``np.abs`` wraps -2^31 to itself in int32; its bits read as 2^31 in
    uint32, and every other magnitude reads unchanged.
    """
    return np.abs(samples).view(np.uint32)


def _magnitude_percentiles(
    flat: np.ndarray, top: int, pcts: tuple[float, float]
) -> list[float]:
    """numpy's ``linear`` percentiles of ``|flat|`` (Hyndman & Fan type 7).

    The order statistics are exact integers: cumulative ``bincount``
    counts when the histogram (``top + 1`` bins) is no longer than the
    band and than one block, else ``np.partition`` of the uint32 magnitudes.
    They are combined as numpy's ``_lerp`` does, so the result equals
    ``np.percentile`` on float64 magnitudes.
    """
    n = flat.size
    virtual = [(n - 1) * (p / 100) for p in pcts]
    below = [min(math.floor(v), n - 1) for v in virtual]
    ranks = sorted({r for b in below for r in (b, min(b + 1, n - 1))})
    if top < min(n, _BLOCK):
        counts = np.zeros(top + 1, dtype=np.int64)
        scratch = np.empty(min(n, _BLOCK), dtype=np.int32)
        for s in range(0, n, _BLOCK):
            block = flat[s : s + _BLOCK]
            mags = np.abs(block, out=scratch[: block.size])
            counts += np.bincount(mags, minlength=top + 1)
        stats = np.searchsorted(np.cumsum(counts), ranks, side="right")
    else:
        mags = _magnitudes(flat)
        mags.partition(ranks)
        stats = mags[ranks]
    value = {r: float(s) for r, s in zip(ranks, stats)}
    result = []
    for v, i in zip(virtual, below):
        if v >= n - 1:
            result.append(value[n - 1])
            continue
        a, b, t = value[i], value[i + 1], v - i
        diff = b - a
        result.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return result


def stretch(
    field: ResponseField,
    mode: StretchMode = StretchMode.ABS_LINEAR,
    lo_pct: float = 2.0,
    hi_pct: float = 98.0,
) -> Band:
    """Map a signed response field to a u8 display band.

    ``abs_linear`` maps magnitudes, clipped at the given percentiles, to
    0..255; ``signed_linear`` maps [min, max] affinely to 0..255 (the
    percentiles are ignored). The clip points are percentiles of the
    magnitudes with linear interpolation between closest ranks (numpy's
    default; Hyndman & Fan 1996, type 7), taken from exact integer order
    statistics of the uint32 magnitudes, so |-2^31| = 2^31. Samples are
    mapped in blocks: clipped, shifted, scaled and rounded to the nearest
    integer, ties away from zero (scaled values are never negative). A
    degenerate (constant) window maps to all zeros; one too narrow for
    ``255 / (hi - lo)`` to be finite raises DomainError.
    """
    if field.width == 0 or field.height == 0:
        raise DomainError("cannot stretch an empty field")
    if not (0 <= lo_pct < hi_pct <= 100):
        raise DomainError(f"bad percentiles lo={lo_pct} hi={hi_pct}")
    flat = field.samples.reshape(-1)
    smallest, largest = int(flat.min()), int(flat.max())
    if mode == StretchMode.ABS_LINEAR:
        top = max(-smallest, largest)
        lo, hi = _magnitude_percentiles(flat, top, (float(lo_pct), float(hi_pct)))
    elif mode == StretchMode.SIGNED_LINEAR:
        lo, hi = float(smallest), float(largest)
    else:
        raise DomainError(f"unknown stretch mode {mode!r}")
    out = np.zeros(flat.size, dtype=np.uint8)
    if hi > lo:
        scale = 255.0 / (hi - lo)
        if math.isinf(scale):
            # Only percentiles below about 1e-305 make a window this narrow;
            # its lo end would map to 0 * inf = NaN.
            raise DomainError(f"clip window [{lo!r}, {hi!r}] is too narrow to scale")
        buf = np.empty(min(flat.size, _BLOCK), dtype=np.float64)
        for s in range(0, flat.size, _BLOCK):
            block = flat[s : s + _BLOCK]
            x = buf[: block.size]
            if mode == StretchMode.ABS_LINEAR:
                np.abs(block, out=x, dtype=np.float64)
            else:
                x[...] = block
            np.clip(x, lo, hi, out=x)
            x -= lo
            x *= scale
            # floor(x + 0.5) rounds ties away from zero because x >= 0 here.
            x += 0.5
            np.floor(x, out=x)
            np.minimum(x, 255.0, out=x)
            out[s : s + block.size] = x
    return Band(_frozen(out.reshape(field.samples.shape)))
