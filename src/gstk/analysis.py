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
from dataclasses import dataclass
from enum import Enum

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
    _readonly,
)


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class BandStats:
    """Population statistics of one band, computed in double precision."""

    mean: float
    stddev: float
    minimum: int
    maximum: int


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    # Two-pass mean/variance for stability.
    mean = float(values.mean())
    var = float(((values - mean) ** 2).mean())
    return mean, math.sqrt(var)


def _require_nonempty(raster: Band | MultibandImage) -> None:
    if raster.width == 0 or raster.height == 0:
        raise DomainError("cannot compute statistics of an empty band")


def band_stats(band: Band) -> BandStats:
    _require_nonempty(band)
    values = band.samples.astype(np.float64)
    mean, std = _mean_std(values)
    return BandStats(
        mean=mean,
        stddev=std,
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
    """

    r: np.ndarray
    zero_variance_bands: tuple[int, ...] = ()
    stddev: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _readonly(np.asarray(self.r, dtype=np.float64)))

    @property
    def n(self) -> int:
        return self.r.shape[0]

    def is_defined(self, i: int, j: int) -> bool:
        return i not in self.zero_variance_bands and j not in self.zero_variance_bands


def correlation(image: MultibandImage) -> CorrelationMatrix:
    """Pairwise Pearson correlation matrix of an image's bands."""
    n = image.n_bands
    if n < 2:
        raise DomainError("correlation needs at least 2 bands")
    # Each band's float64 copy becomes its deviations in place.
    devs = []
    for b in image.bands:
        plane = b.samples.astype(np.float64).ravel()
        plane -= float(plane.mean())
        devs.append(plane)
    stds = tuple(math.sqrt(float((d * d).mean())) for d in devs)
    flagged = tuple(i for i, s in enumerate(stds) if s == 0.0)
    r = np.full((n, n), np.nan, dtype=np.float64)
    np.fill_diagonal(r, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if stds[i] == 0.0 or stds[j] == 0.0:
                continue
            cov = float((devs[i] * devs[j]).mean())
            r[i, j] = r[j, i] = cov / (stds[i] * stds[j])
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
    """1-based triples, shape (m, 3), and their scores from ``corr``, best first."""
    n = image.n_bands
    _require_triples(n)
    dead = [image.name_of(i) for i in corr.zero_variance_bands]
    if dead:
        raise DomainError(f"zero-variance bands: {', '.join(dead)}")
    above = np.triu(np.ones((n, n), dtype=bool), 1)  # above[a, b] is a < b
    i, j, k = np.nonzero(above[:, :, None] & above)
    std = np.array(corr.stddev)
    absr = np.abs(corr.r)
    numer = std[i] + std[j] + std[k]
    denom = absr[i, j] + absr[i, k] + absr[j, k]
    scores = np.divide(numer, denom, out=np.full_like(numer, math.inf), where=denom > 0)
    order = np.lexsort((k, j, i, -scores))
    return np.column_stack((i, j, k))[order] + 1, scores[order]


def oif_rank(image: MultibandImage) -> list[OifScore]:
    """Score every band triple, best first.

    Ties are broken by lexicographic triple order. Zero-variance bands
    make the index undefined and are reported by name.
    """
    _require_triples(image.n_bands)
    _require_nonempty(image)
    triples, scores = _rank_triples(image, correlation(image))
    return [OifScore(tuple(t), s) for t, s in zip(triples.tolist(), scores.tolist())]


def oif_report_dict(image: MultibandImage) -> dict:
    """OIF ranking plus the inputs it derives from, as a JSON-ready dict."""
    _require_nonempty(image)
    corr = correlation(image)
    triples, scores = _rank_triples(image, corr)
    return {
        "bands": [image.name_of(i) for i in range(image.n_bands)],
        "stddev": list(corr.stddev),
        "correlation": [
            [None if math.isnan(v) else v for v in row] for row in corr.r.tolist()
        ],
        "ranking": [
            {
                "triple": t,
                "score": None if math.isinf(s) else s,
                "infinite": math.isinf(s),
            }
            for t, s in zip(triples.tolist(), scores.tolist())
        ],
    }


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


def rois_from_json(text: str) -> list[Roi]:
    """Parse the ROI JSON document.

    Schema: ``{"classes": [{"name": str, "runs": [[row, col, length],
    ...]}, ...]}`` where each run covers ``length`` pixels rightward from
    (row, col). Class order defines class indices 1..K.
    """
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
        pixels = []
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
            pixels.extend((row, col + i) for i in range(length))
        rois.append(Roi(str(entry["name"]), np.array(pixels, dtype=np.int64).reshape(-1, 2)))
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
    rois = []
    for k in present:
        rows, cols = np.nonzero(arr == k)
        name = names[k - 1] if names else f"class {k}"
        rois.append(Roi(name, np.column_stack([rows, cols])))
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
            if lo > hi:
                raise DomainError(f"class {self.name!r}: bound lo {lo} > hi {hi}")


@dataclass(frozen=True)
class ClassificationMap:
    """Per-pixel class labels; 0 means unclassified."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise DomainError("labels must be 2-D")
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError("labels must be integers")
        if arr.size and int(arr.min()) < 0:
            raise DomainError("labels must be non-negative")
        object.__setattr__(self, "labels", _readonly(arr.astype(np.int32)))

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def classification_to_band(cmap: ClassificationMap) -> Band:
    """Store a label map in a Band (u8 when labels fit, else u16)."""
    top = int(cmap.labels.max()) if cmap.labels.size else 0
    if top > 65535:
        raise DomainError(f"label {top} does not fit a u16 band")
    dtype = np.uint8 if top <= 255 else np.uint16
    return Band(cmap.labels.astype(dtype))


def fit_classes(
    image: MultibandImage,
    rois: list[Roi],
    mode: FitMode = FitMode.MINMAX,
    k: float = 2.0,
) -> list[ClassSpec]:
    """Train one box per ROI.

    ``minmax`` uses per-band ROI extrema; ``mean_sigma`` uses mean +- k
    population stddevs, clamped to the dtype range.
    """
    mode = FitMode(mode)
    if mode == FitMode.MEAN_SIGMA and k < 0:
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
                mean, std = _mean_std(values.astype(np.float64))
                lo = max(0.0, mean - k * std)
                hi = min(float(band.dtype_max), mean + k * std)
                bounds.append((lo, hi))
        specs.append(ClassSpec(roi.name, tuple(bounds)))
    return specs


def classify(image: MultibandImage, specs: list[ClassSpec]) -> ClassificationMap:
    """Label each pixel with the first class whose box contains it.

    Pixels matching no box get label 0. The first-listed class wins when
    boxes overlap, which makes the result order-auditable.
    """
    for spec in specs:
        if len(spec.bounds) != image.n_bands:
            raise DomainError(
                f"class {spec.name!r} has {len(spec.bounds)} bounds for "
                f"{image.n_bands} bands"
            )
    labels = np.zeros((image.height, image.width), dtype=np.int32)
    for index, spec in enumerate(specs, start=1):
        inside = np.ones(labels.shape, dtype=bool)
        for band, (lo, hi) in zip(image.bands, spec.bounds):
            inside &= (band.samples >= lo) & (band.samples <= hi)
        labels[inside & (labels == 0)] = index
    return ClassificationMap(labels)


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
        if arr.size and int(arr.min()) < 0:
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
    mask = truth.labels > 0
    if not mask.any():
        raise DomainError("empty evaluation set: truth has no labeled pixels")
    t = truth.labels[mask].astype(np.int64)
    p = predicted.labels[mask].astype(np.int64)
    n_classes = int(max(t.max(), p.max()))
    side = n_classes + 1
    counts = np.bincount(t * side + p, minlength=side * side).reshape(side, side)
    return ConfusionMatrix(counts, tuple(class_names) if class_names else None)


# ---------------------------------------------------------------------------
# Operator comparison

# Magnitude histogram bin edges double per bin: bin 0 holds magnitude 0,
# bin k holds magnitudes in [2^(k-1), 2^k). 31 doubling bins cover int32.
HISTOGRAM_BINS = 32
_HISTOGRAM_EDGES = np.array([float(2**k) for k in range(HISTOGRAM_BINS)])


@dataclass(frozen=True)
class FieldSummary:
    """Response-magnitude statistics of one field."""

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
    magnitude fields (None when either is constant); ``sign_agreement`` is
    the fraction of pixels whose response signs match exactly, zeros
    included.
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


def _summarize_field(mag: np.ndarray, threshold: float) -> FieldSummary:
    mean, std = _mean_std(mag)
    density = float((mag > threshold).mean())
    bins = np.digitize(mag, _HISTOGRAM_EDGES)
    hist = np.bincount(bins.ravel(), minlength=HISTOGRAM_BINS)
    return FieldSummary(mean, std, density, tuple(int(c) for c in hist))


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
    if a.width == 0 or a.height == 0:
        raise DomainError("cannot compare empty fields")
    if not threshold > 0:
        raise DomainError(f"threshold must be > 0, got {threshold}")
    # float64 holds every int32 magnitude exactly, including |-2^31|.
    mag_a = np.abs(a.samples.astype(np.float64))
    mag_b = np.abs(b.samples.astype(np.float64))
    sum_a = _summarize_field(mag_a, threshold)
    sum_b = _summarize_field(mag_b, threshold)
    if sum_a.stddev_magnitude == 0.0 or sum_b.stddev_magnitude == 0.0:
        corr = None
    else:
        mag_a -= sum_a.mean_magnitude
        mag_b -= sum_b.mean_magnitude
        cov = float((mag_a * mag_b).mean())
        corr = cov / (sum_a.stddev_magnitude * sum_b.stddev_magnitude)
    agreement = float((np.sign(a.samples) == np.sign(b.samples)).mean())
    return ComparisonReport(
        threshold=threshold,
        a=sum_a,
        b=sum_b,
        magnitude_correlation=corr,
        sign_agreement=agreement,
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
    lo_pct: float = 2.0,
    hi_pct: float = 98.0,
) -> MultibandImage:
    """Build the feature image the classifier operates on.

    ``smoothed`` convolves each band (default kernel: the 5x5 smoothing
    template) and stretches the response magnitudes to u8 with
    percentile clipping; ``both`` appends those to the raw bands.
    """
    kind = FeatureKind(kind)
    if kind == FeatureKind.RAW:
        return image
    if kernel is None:
        kernel = smoothing_template()
    smoothed = []
    for band in image.bands:
        resp = convolve(band, kernel, boundary)
        smoothed.append(stretch(resp, StretchMode.ABS_LINEAR, lo_pct, hi_pct))
    names = [image.name_of(i) + " smoothed" for i in range(image.n_bands)]
    if kind == FeatureKind.SMOOTHED:
        return MultibandImage(tuple(smoothed), tuple(names))
    if image.dtype == "u16":
        smoothed = [Band(b.samples.astype(np.uint16)) for b in smoothed]
    raw_names = [image.name_of(i) for i in range(image.n_bands)]
    return MultibandImage(
        tuple(image.bands) + tuple(smoothed), tuple(raw_names + names)
    )
