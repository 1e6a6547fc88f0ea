"""Band statistics, OIF band ranking, box classification, response comparison.

The Optimum Index Factor (OIF) scores a band triple as the sum of the
three band standard deviations divided by the sum of the three absolute
pairwise correlations; high scores favor informative, mutually
decorrelated composites. Band numbers in scores and reports are 1-based,
following remote-sensing convention.

Classification is the parallelepiped method: each class is an axis-aligned
box of per-band closed intervals and a pixel takes the first listed class
whose box contains it in every band (0 = unclassified).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FileFormatError
from .kernels import Kernel, smoothing_template
from .convolve import BoundaryMode, convolve
from .raster import (
    Band,
    MultibandImage,
    ResponseField,
    StretchMode,
    stretch,
    _BLOCK,
    _frozen,
    _magnitudes,
    _readonly,
)


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class BandStats:
    """Population statistics of one band.

    ``mean`` and ``stddev`` come from exact integer sums of the samples
    and their squares, each rounded to float64 once (``stddev`` is the
    square root of the once-rounded variance), so they may differ in the
    last digits from a two-pass float computation.
    """

    mean: float
    stddev: float
    minimum: int
    maximum: int


# Moments are summed exactly. Samples are non-negative integers, so every
# partial sum of samples or of their products is an integer no larger than
# the full sum. A float64 block whose product sums stay below 2^53 is
# therefore exact in any BLAS reduction order, block size or thread count,
# and the int64 accumulation of the blocks is exact while N * max^2 stays
# below 2^63 (for u16, about 2^31 pixels; checked). A uint32 plane enters
# the block as two 16-bit limbs, x = 2^16 * hi + lo, so max is 65535 for
# it too, and its sums are recombined in Python ints.
_BLOCK_SAMPLES = 2**18  # float64 samples per block: 2 MiB
_LIMB_BITS = np.uint32(16)
_LIMB_MASK = np.uint32(0xFFFF)


class _Moments(NamedTuple):
    """Exact sums over N pixels: sum of x per band, and Gram sum of x_i x_j."""

    n: int
    sums: list[int]
    gram: list[list[int]]

    def mean(self, i: int) -> float:
        return self.sums[i] / self.n

    def scatter(self, i: int, j: int) -> int:
        """N^2 times the population covariance of bands i and j."""
        return self.n * self.gram[i][j] - self.sums[i] * self.sums[j]

    def stddev(self, i: int) -> float:
        return math.sqrt(self.scatter(i, i) / self.n**2)

    def pearson(self, i: int, j: int) -> float | None:
        """Pearson correlation of bands i and j; None when either is constant.

        A band is constant exactly when its scatter, and so its stddev, is 0.
        """
        s = self.stddev(i) * self.stddev(j)
        return self.scatter(i, j) / self.n**2 / s if s else None


def _moments(planes: Sequence[np.ndarray]) -> _Moments:
    """Exact moments of equally sized u8, u16 or uint32 arrays.

    All planes share one dtype. A uint32 plane's limbs are written block
    by block, so no full-frame limb plane is built.
    """
    n = planes[0].size
    limbs = 2 if planes[0].dtype == np.uint32 else 1
    top = 0xFFFF if limbs == 2 else int(np.iinfo(planes[0].dtype).max)
    if n * top**2 >= 2**63:
        raise DomainError(
            f"{n} pixels of {planes[0].dtype} samples exceed the exact moment "
            f"budget (pixels * {top}^2 < 2^63)"
        )
    rows = limbs * len(planes)
    block = min(max(1, _BLOCK_SAMPLES // rows), (2**53 - 1) // top**2, n)
    flats = [p.reshape(-1) for p in planes]
    buf = np.empty((rows, block), dtype=np.float64)
    sums = np.zeros(rows, dtype=np.int64)
    gram = np.zeros((rows, rows), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        x = buf[:, : stop - start]
        for i, flat in enumerate(flats):
            part = flat[start:stop]
            if limbs == 1:
                x[i] = part
            else:
                np.right_shift(part, _LIMB_BITS, out=x[2 * i])
                np.bitwise_and(part, _LIMB_MASK, out=x[2 * i + 1])
        sums += x.sum(axis=1).astype(np.int64)
        gram += (x @ x.T).astype(np.int64)
    if limbs == 2:
        # Rows 2i and 2i + 1 hold plane i's hi and lo limbs: x = 2^16 hi + lo.
        mix = np.kron(np.eye(len(planes), dtype=object), [[1 << 16, 1]])
        sums, gram = mix @ sums.astype(object), mix @ gram.astype(object) @ mix.T
    return _Moments(n, sums.tolist(), gram.tolist())


def band_stats(band: Band) -> BandStats:
    moments = _moments([band.samples])
    return BandStats(
        mean=moments.mean(0),
        stddev=moments.stddev(0),
        minimum=int(band.samples.min()),
        maximum=int(band.samples.max()),
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson correlations between bands over all pixels.

    Entries involving a zero-variance band are undefined: they are stored
    as NaN and the offending bands are listed in ``zero_variance_bands``
    (0-based indices). Diagonal entries are 1 by convention.

    ``stddev`` holds each band's population standard deviation, the one
    the correlations were normalized by; it equals
    ``band_stats(band).stddev`` exactly. It is empty when the matrix was
    built directly rather than by ``correlation``.

    Both come from exact integer sums over all pixels: each variance and
    covariance is rounded to float64 once, so values may differ in the
    last digits from a two-pass float computation.
    """

    r: np.ndarray
    zero_variance_bands: tuple[int, ...] = ()
    stddev: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _readonly(np.asarray(self.r, dtype=np.float64)))

    @property
    def n(self) -> int:
        return self.r.shape[0]


def correlation(image: MultibandImage) -> CorrelationMatrix:
    """Pairwise Pearson correlation matrix of an image's bands.

    ``r_ij = cov_ij / (s_i * s_j)``, with the covariance and each variance
    computed as ``(N * sum(x_i x_j) - sum(x_i) * sum(x_j)) / N^2`` in
    integers and rounded once. A band is zero-variance exactly when
    ``N * sum(x^2) == sum(x)^2``.
    """
    n = image.n_bands
    if n < 2:
        raise DomainError("correlation needs at least 2 bands")
    moments = _moments([b.samples for b in image.bands])
    stds = tuple(moments.stddev(i) for i in range(n))
    flagged = tuple(i for i in range(n) if moments.scatter(i, i) == 0)
    r = np.full((n, n), np.nan, dtype=np.float64)
    np.fill_diagonal(r, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            v = moments.pearson(i, j)
            if v is not None:
                r[i, j] = r[j, i] = v
    return CorrelationMatrix(r, flagged, stds)


# ---------------------------------------------------------------------------
# OIF ranking


@dataclass(frozen=True)
class OifScore:
    """One scored band triple; band numbers are 1-based, i < j < k.

    ``score`` is +inf when all three pairwise correlations are zero.
    """

    triple: tuple[int, int, int]
    score: float


def _require_triples(n_bands: int) -> None:
    if n_bands < 3:
        raise DomainError(f"OIF ranking needs at least 3 bands, got {n_bands}")


def _rank_triples(
    image: MultibandImage, corr: CorrelationMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """1-based triples, shape (m, 3), and their scores from ``corr``, best first.

    Ties are broken by ascending triple. Band indices are int16, which
    holds the 255-band cap.
    """
    n = image.n_bands
    dead = [image.name_of(i) for i in corr.zero_variance_bands]
    if dead:
        raise DomainError(f"zero-variance bands: {', '.join(dead)}")
    # The pairs (j, k), j < k, in lexicographic order; those with j > i
    # are a suffix of the list, so triple i's rows are (i, suffix).
    pj, pk = (a.astype(np.int16) for a in np.triu_indices(n, 1))
    std = np.array(corr.stddev)
    absr = np.abs(corr.r)
    std_j, std_k, r_jk = std[pj], std[pk], absr[pj, pk]
    m = math.comb(n, 3)
    triples = np.empty((m, 3), dtype=np.int16)
    scores = np.full(m, math.inf)
    row = 0
    for i in range(n - 2):
        s = np.searchsorted(pj, i + 1)
        rows = slice(row, row + len(pj) - s)
        triples[rows, 0] = i
        triples[rows, 1] = pj[s:]
        triples[rows, 2] = pk[s:]
        # Summed in the order std_i + std_j + std_k and r_ij + r_ik + r_jk.
        numer = std[i] + std_j[s:]
        numer += std_k[s:]
        denom = absr[i, pj[s:]] + absr[i, pk[s:]]
        denom += r_jk[s:]
        np.divide(numer, denom, out=scores[rows], where=denom > 0)
        row = rows.stop
    # Stable, so ties keep the lexicographic order the rows were built in.
    order = np.argsort(-scores, kind="stable")
    triples = triples[order]
    triples += 1
    scores = scores[order]
    scores.setflags(write=False)  # so OifReport keeps it without a copy
    return triples, scores


def oif_rank(image: MultibandImage) -> list[OifScore]:
    """Score every band triple, best first.

    Ties are broken by lexicographic triple order. Zero-variance bands
    make the index undefined and are reported by name.
    """
    _require_triples(image.n_bands)
    triples, scores = _rank_triples(image, correlation(image))
    return [OifScore(tuple(t), s) for t, s in zip(triples.tolist(), scores.tolist())]


# One ranking entry exactly as ``json.dumps(report, indent=2)`` lays it
# out at its depth: %d for each band number, then %s for the score and the
# infinite flag.
_OIF_ENTRY = (
    "    {\n"
    '      "triple": [\n'
    "        %d,\n"
    "        %d,\n"
    "        %d\n"
    "      ],\n"
    '      "score": %s,\n'
    '      "infinite": %s\n'
    "    }"
)

# Ranking entries per block of report text, about 135 bytes each. Writing
# the 19.3 MB report of 142,880 triples took the same time (0.31-0.34 s
# median, 2-vCPU Xeon) at 256 to 16,384 entries per block and at one
# block, whose text alone is the whole report; 1024 keeps a block's text
# near 140 KB.
_OIF_BLOCK = 1024


@dataclass(frozen=True)
class OifReport:
    """OIF ranking plus the inputs it derives from.

    ``triples`` holds 1-based band numbers, shape (m, 3), as int64, best
    first, and ``scores`` the matching float64 scores (+inf when all three
    pairwise correlations are zero).

    The JSON text comes in blocks of at most ``_OIF_BLOCK`` ranking
    entries, which the command line writes to its file one at a time;
    ``to_json`` joins the same blocks.
    """

    bands: tuple[str, ...]
    corr: CorrelationMatrix
    triples: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        triples = _readonly(np.reshape(self.triples, (-1, 3)), np.int64)
        object.__setattr__(self, "triples", triples)
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", _readonly(scores))

    def _head(self) -> dict:
        return {
            "bands": list(self.bands),
            "stddev": list(self.corr.stddev),
            "correlation": [
                [None if math.isnan(v) else v for v in row]
                for row in self.corr.r.tolist()
            ],
            "ranking": [],
        }

    def to_dict(self) -> dict:
        doc = self._head()
        doc["ranking"] = [
            {
                "triple": t,
                "score": None if math.isinf(s) else s,
                "infinite": math.isinf(s),
            }
            for t, s in zip(self.triples.tolist(), self.scores.tolist())
        ]
        return doc

    def _blocks(self) -> Iterator[str]:
        """The report text in pieces of at most ``_OIF_BLOCK`` ranking entries.

        Each block is one %-format over its entries' columns rather than a
        dict per triple: %s of a Python float is ``float.__repr__``, which
        is what ``json`` writes for it.
        """
        head = json.dumps(self._head(), indent=2)
        m = len(self.scores)
        if m == 0:
            yield head + "\n"
            return
        # The head ends with its empty ranking, '[]\n}'.
        yield head[:-4] + "["
        lead = "\n"
        for start in range(0, m, _OIF_BLOCK):
            scores = self.scores[start : start + _OIF_BLOCK]
            infinite = np.isinf(scores)
            cells = np.empty((len(scores), 5), dtype=object)
            cells[:, :3] = self.triples[start : start + _OIF_BLOCK]
            cells[:, 3] = scores
            cells[:, 4] = "false"
            cells[infinite, 3] = "null"
            cells[infinite, 4] = "true"
            entries = lead + _OIF_ENTRY + (",\n" + _OIF_ENTRY) * (len(scores) - 1)
            yield entries % tuple(cells.flat)
            lead = ",\n"
        yield "\n  ]\n}\n"

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, byte for byte.

        The text is joined from the blocks the command line streams into
        its output file, so both are written by one formatter.
        """
        return "".join(self._blocks())


def oif_report(image: MultibandImage) -> OifReport:
    """Rank every band triple of ``image`` and keep what the ranking used."""
    _require_triples(image.n_bands)
    corr = correlation(image)
    triples, scores = _rank_triples(image, corr)
    bands = tuple(image.name_of(i) for i in range(image.n_bands))
    return OifReport(bands, corr, triples, scores)


def oif_report_dict(image: MultibandImage) -> dict:
    """OIF ranking plus the inputs it derives from, as a JSON-ready dict."""
    return oif_report(image).to_dict()


# ---------------------------------------------------------------------------
# Regions of interest


@dataclass(frozen=True)
class Roi:
    """A named set of training pixels, as (row, col) pairs."""

    name: str
    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "pixels", _readonly(arr))


def rois_from_json(text: str, shape: tuple[int, int]) -> list[Roi]:
    """Parse the ROI JSON document for an image of ``shape`` (height, width).

    Schema: ``{"classes": [{"name": str, "runs": [[row, col, length],
    ...]}, ...]}`` where each run covers ``length`` pixels rightward from
    (row, col). Class order defines class indices 1..K. A run that leaves
    the image raises DomainError before any pixel is built.
    """
    height, width = shape
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"bad ROI JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise FileFormatError("ROI document must be an object with a 'classes' list")
    rois = []
    for entry in doc["classes"]:
        if not isinstance(entry, dict) or "name" not in entry or "runs" not in entry:
            raise FileFormatError("each ROI class needs 'name' and 'runs'")
        if not isinstance(entry["runs"], list):
            raise FileFormatError("ROI class 'runs' must be a list of runs")
        name = str(entry["name"])
        for run in entry["runs"]:
            if (
                not isinstance(run, list)
                or len(run) != 3
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in run)
            ):
                raise FileFormatError(f"bad run {run!r}: expected [row, col, length]")
            row, col, length = run
            if length < 1:
                raise FileFormatError(f"run length must be >= 1, got {length}")
            if not (0 <= row < height and 0 <= col and col + length <= width):
                raise DomainError(
                    f"ROI {name!r} run {run} lies outside the {height}x{width} image"
                )
        runs = np.array(entry["runs"], dtype=np.int64).reshape(-1, 3)
        rows, cols, lengths = runs.T
        # The class's p-th pixel (counted over its runs in order) sits at
        # its run's col plus p minus the pixels of all earlier runs.
        before = np.cumsum(lengths) - lengths
        pixels = np.column_stack(
            [
                np.repeat(rows, lengths),
                np.repeat(cols - before, lengths) + np.arange(int(lengths.sum())),
            ]
        )
        rois.append(Roi(name, pixels))
    if not rois:
        raise FileFormatError("ROI document defines no classes")
    return rois


def rois_from_labels(labels: np.ndarray, names: list[str] | None = None) -> list[Roi]:
    """Build ROIs from a label raster; labels must be contiguous 1..K."""
    arr = np.asarray(labels)
    present = sorted(int(v) for v in np.unique(arr) if v > 0)
    if not present:
        raise DomainError("label raster contains no labeled pixels")
    if present != list(range(1, len(present) + 1)):
        raise DomainError(f"labels must be contiguous 1..K, got {present}")
    if names and len(names) < len(present):
        raise DomainError(f"label {len(names) + 1} has no name ({len(names)} given)")
    rois = []
    for k in present:
        rows, cols = np.nonzero(arr == k)
        name = names[k - 1] if names else f"class {k}"
        rois.append(Roi(name, _frozen(np.column_stack([rows, cols]))))
    return rois


# ---------------------------------------------------------------------------
# Parallelepiped classification


class FitMode(str, Enum):
    MINMAX = "minmax"
    MEAN_SIGMA = "mean_sigma"


@dataclass(frozen=True)
class ClassSpec:
    """Per-band closed intervals defining one class box."""

    name: str
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.bounds:
            if not lo <= hi:
                raise DomainError(f"class {self.name!r}: need lo <= hi, got {lo}, {hi}")


@dataclass(frozen=True)
class ClassificationMap:
    """Per-pixel class labels of a non-empty raster; 0 means unclassified."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise DomainError("labels must be 2-D")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError("labels must be integers")
        if 0 in arr.shape:
            raise DomainError(
                f"labels are empty ({arr.shape[1]}x{arr.shape[0]} pixels)"
            )
        if int(arr.min()) < 0:
            raise DomainError("labels must be non-negative")
        # Checked before the int32 conversion, which would wrap larger labels.
        top = np.iinfo(np.int32).max
        if np.iinfo(arr.dtype).max > top and int(arr.max()) > top:
            raise DomainError(f"labels must be at most {top}")
        object.__setattr__(self, "labels", _readonly(arr, np.int32))

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def classification_to_band(cmap: ClassificationMap) -> Band:
    """Store a label map in a Band (u8 when labels fit, else u16)."""
    top = int(cmap.labels.max())
    if top > 65535:
        raise DomainError(f"label {top} does not fit a u16 band")
    dtype = np.uint8 if top <= 255 else np.uint16
    return Band(_frozen(cmap.labels.astype(dtype)))


def fit_classes(
    image: MultibandImage,
    rois: list[Roi],
    mode: FitMode = FitMode.MINMAX,
    k: float = 2.0,
) -> list[ClassSpec]:
    """Train one box per ROI.

    ``minmax`` uses per-band ROI extrema; ``mean_sigma`` uses mean +- k
    population stddevs, clamped to the dtype range, with the mean and
    stddev taken from exact integer sums of the ROI samples as in
    ``band_stats``.
    """
    mode = FitMode(mode)
    if mode == FitMode.MEAN_SIGMA and not k >= 0:
        raise DomainError(f"mean_sigma k must be >= 0, got {k}")
    specs = []
    for roi in rois:
        if len(roi.pixels) == 0:
            raise DomainError(f"ROI {roi.name!r} is empty")
        rows = roi.pixels[:, 0]
        cols = roi.pixels[:, 1]
        if (
            rows.min() < 0
            or cols.min() < 0
            or rows.max() >= image.height
            or cols.max() >= image.width
        ):
            raise DomainError(f"ROI {roi.name!r} has out-of-bounds pixels")
        bounds = []
        for band in image.bands:
            values = band.samples[rows, cols]
            if mode == FitMode.MINMAX:
                bounds.append((float(values.min()), float(values.max())))
            else:
                moments = _moments([values])
                mean, std = moments.mean(0), moments.stddev(0)
                lo = max(0.0, mean - k * std)
                hi = min(float(band.dtype_max), mean + k * std)
                bounds.append((lo, hi))
        specs.append(ClassSpec(roi.name, tuple(bounds)))
    return specs


def classify(image: MultibandImage, specs: list[ClassSpec]) -> ClassificationMap:
    """Label each pixel with the first class whose box contains it.

    Pixels matching no box get label 0. The first-listed class wins when
    boxes overlap, which makes the result order-auditable.

    Samples are integers, so a closed interval ``[lo, hi]`` on a band holds
    the same samples as ``[ceil lo, floor hi]``. Both ends are first clamped
    into ``[-1, dtype max + 1]``, which keeps infinite and out-of-range
    bounds exact, and each band is then compared in its own dtype. Classes
    are painted from last to first, so the first listed one is painted
    over every later one.
    """
    for spec in specs:
        if len(spec.bounds) != image.n_bands:
            raise DomainError(
                f"class {spec.name!r} has {len(spec.bounds)} bounds for "
                f"{image.n_bands} bands"
            )
    labels = np.zeros((image.height, image.width), dtype=np.int32)
    for index, spec in reversed(list(enumerate(specs, start=1))):
        inside = np.ones(labels.shape, dtype=bool)
        for band, (lo, hi) in zip(image.bands, spec.bounds):
            inside &= band.samples >= math.ceil(min(max(lo, -1), band.dtype_max + 1))
            inside &= band.samples <= math.floor(min(max(hi, -1), band.dtype_max + 1))
        labels[inside] = index
    return ClassificationMap(_frozen(labels))


# ---------------------------------------------------------------------------
# Accuracy accounting


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[true, predicted] over evaluation pixels (truth label > 0).

    Column 0 collects pixels the classifier left unclassified; they count
    as errors. Row 0 is always empty because unlabeled truth pixels are
    excluded from evaluation.
    """

    counts: np.ndarray
    class_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("confusion counts must be square")
        if not arr.any():
            raise DomainError("confusion counts are all zero: no pixel was evaluated")
        if int(arr.min()) < 0:
            raise DomainError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", _readonly(arr))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def overall_accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def to_dict(self) -> dict:
        names = ["unclassified"]
        for c in range(1, self.counts.shape[0]):
            if self.class_names and c - 1 < len(self.class_names):
                names.append(self.class_names[c - 1])
            else:
                names.append(f"class {c}")
        return {
            "classes": names,
            "counts": self.counts.tolist(),
            "total": self.total,
            "overall_accuracy": self.overall_accuracy,
        }


def accuracy(
    predicted: ClassificationMap,
    truth: ClassificationMap,
    class_names: list[str] | None = None,
) -> ConfusionMatrix:
    """Confusion matrix of predicted vs truth over truth-labeled pixels."""
    if (predicted.width, predicted.height) != (truth.width, truth.height):
        raise DomainError(
            f"dimension mismatch: map {predicted.width}x{predicted.height} vs "
            f"truth {truth.width}x{truth.height}"
        )
    full = int(max(truth.labels.max(), predicted.labels.max())) + 1
    codes = np.multiply(truth.labels, full, dtype=np.int64)
    codes += predicted.labels
    counts = np.bincount(codes.reshape(-1), minlength=full * full).reshape(full, full)
    counts[0] = 0  # truth 0 is not evaluated
    if not counts.any():
        raise DomainError("empty evaluation set: truth has no labeled pixels")
    # The matrix spans the labels of evaluated pixels only.
    side = int(np.max(np.nonzero(counts))) + 1
    counts = counts[:side, :side]
    return ConfusionMatrix(counts, tuple(class_names) if class_names else None)


# ---------------------------------------------------------------------------
# Operator comparison

# Magnitude histogram bins double in width: bin 0 holds magnitude 0, bin k
# holds magnitudes in [2^(k-1), 2^k), which is the binary exponent that
# np.frexp returns. |-2^31| alone has exponent 32; it is folded into the
# last bin, which therefore holds [2^30, 2^31].
HISTOGRAM_BINS = 32


@dataclass(frozen=True)
class FieldSummary:
    """Response-magnitude statistics of one field.

    Magnitudes are uint32, so |-2^31| = 2^31. ``mean_magnitude`` and
    ``stddev_magnitude`` come from exact integer sums of the magnitudes
    and their squares, each rounded to float64 once, as in ``BandStats``.
    """

    mean_magnitude: float
    stddev_magnitude: float
    edge_density: float
    histogram: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "mean_magnitude": self.mean_magnitude,
            "stddev_magnitude": self.stddev_magnitude,
            "edge_density": self.edge_density,
            "histogram": list(self.histogram),
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side statistics of two response fields.

    ``magnitude_correlation`` is the Pearson correlation of the two
    magnitude fields, from exact integer sums as in ``correlation``; it is
    None exactly when either field has zero variance (``N * sum(m^2) ==
    sum(m)^2``). ``sign_agreement`` is the fraction of pixels whose
    response signs match exactly, zeros included.
    """

    threshold: float
    a: FieldSummary
    b: FieldSummary
    magnitude_correlation: float | None
    sign_agreement: float

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "fields": {"a": self.a.to_dict(), "b": self.b.to_dict()},
            "cross": {
                "magnitude_correlation": self.magnitude_correlation,
                "sign_agreement": self.sign_agreement,
            },
        }


def compare_responses(
    a: ResponseField, b: ResponseField, threshold: float
) -> ComparisonReport:
    """Quantify how two operators' responses differ on the same scene.

    ``edge_density`` is the fraction of pixels whose response magnitude
    strictly exceeds the threshold.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise DomainError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    if not threshold > 0:
        raise DomainError(f"threshold must be > 0, got {threshold}")
    mag_a, mag_b = _magnitudes(a.samples), _magnitudes(b.samples)
    moments = _moments([mag_a, mag_b])
    n = moments.n
    mags = (mag_a.reshape(-1), mag_b.reshape(-1))
    flat_a, flat_b = a.samples.reshape(-1), b.samples.reshape(-1)
    hists = np.zeros((2, HISTOGRAM_BINS), dtype=np.int64)
    above, agree = [0, 0], 0
    # One pass over both fields with one reused mantissa and exponent
    # block; float64 holds every uint32 magnitude, so the exponents are
    # exact.
    mantissa = np.empty(min(n, _BLOCK), dtype=np.float64)
    exponent = np.empty(mantissa.size, dtype=np.int32)
    for s in range(0, n, _BLOCK):
        for i, mag in enumerate(mags):
            block = mag[s : s + _BLOCK]
            e = exponent[: block.size]
            np.frexp(block, out=(mantissa[: block.size], e))
            np.minimum(e, HISTOGRAM_BINS - 1, out=e)
            hists[i] += np.bincount(e, minlength=HISTOGRAM_BINS)
            above[i] += int(np.count_nonzero(block > threshold))
        signs = np.sign(flat_a[s : s + _BLOCK])
        agree += int(np.count_nonzero(signs == np.sign(flat_b[s : s + _BLOCK])))
    sum_a, sum_b = (
        FieldSummary(
            moments.mean(i), moments.stddev(i), above[i] / n, tuple(hists[i].tolist())
        )
        for i in range(2)
    )
    return ComparisonReport(
        threshold=threshold,
        a=sum_a,
        b=sum_b,
        magnitude_correlation=moments.pearson(0, 1),
        sign_agreement=agree / n,
    )


# ---------------------------------------------------------------------------
# Classification feature selection


class FeatureKind(str, Enum):
    """What the classifier sees: raw bands, smoothed magnitudes, or both."""

    RAW = "raw"
    SMOOTHED = "smoothed"
    BOTH = "both"


def features_for_classification(
    image: MultibandImage,
    kind: FeatureKind = FeatureKind.SMOOTHED,
    kernel: Kernel | None = None,
    boundary: BoundaryMode = BoundaryMode.REPLICATE,
) -> MultibandImage:
    """Build the feature image the classifier operates on.

    ``smoothed`` convolves each band (default kernel: the 5x5 smoothing
    template) and stretches the response magnitudes to u8, clipped at
    their 2nd and 98th percentiles; ``both`` appends those to the raw bands.
    """
    kind = FeatureKind(kind)
    smoothed = []
    if kind != FeatureKind.RAW:
        kernel = smoothing_template() if kernel is None else kernel
        smoothed = [_smoothed(b, kind, kernel, boundary)[0] for b in image.bands]
    return _features(image, kind, smoothed)


def _smoothed(
    band: Band, kind: FeatureKind, kernel: Kernel, boundary: BoundaryMode
) -> tuple[Band, ResponseField]:
    """One band's smoothed feature band, and the response it stretches.

    The feature is the response magnitude stretched to u8, held as u16
    when ``both`` puts it beside u16 raw bands.
    """
    resp = convolve(band, kernel, boundary)
    feature = stretch(resp, StretchMode.ABS_LINEAR)
    if kind == FeatureKind.BOTH and band.dtype == "u16":
        feature = Band(_frozen(feature.samples.astype(np.uint16)))
    return feature, resp


def _features(
    image: MultibandImage, kind: FeatureKind, smoothed: Sequence[Band]
) -> MultibandImage:
    """The feature image of ``kind`` from ``image`` and its ``_smoothed`` bands."""
    if kind == FeatureKind.RAW:
        return image
    names = [image.name_of(i) + " smoothed" for i in range(image.n_bands)]
    if kind == FeatureKind.SMOOTHED:
        return MultibandImage(tuple(smoothed), tuple(names))
    raw_names = [image.name_of(i) for i in range(image.n_bands)]
    return MultibandImage(tuple(image.bands) + tuple(smoothed), tuple(raw_names + names))
