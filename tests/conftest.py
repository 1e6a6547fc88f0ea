"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the library's vectorized code paths:
convolution is a plain quadruple loop with inline boundary folding, the
display stretch sorts magnitudes and maps pixels one by one, the PRNG
reference is pure-Python integer arithmetic, and statistics use direct
formula translations or exact Python-int sums. Tests compare the fast implementations
against these.
"""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest

from gstk import (
    Band,
    ClassSignature,
    MultibandImage,
    Placement,
    Rectangle,
    SceneSpec,
    gaussian_stream,
)
from gstk.synth import paint_labels

_MASK64 = 0xFFFFFFFFFFFFFFFF


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance criterion verdicts collected during the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# Convolution oracle


def fold_index(i: int, n: int, boundary: str) -> int | None:
    """Map an out-of-range index to a source index (None = reads zero)."""
    if 0 <= i < n:
        return i
    if boundary == "replicate":
        return min(max(i, 0), n - 1)
    if boundary == "zero":
        return None
    if boundary == "reflect":
        m = i % (2 * n)
        return m if m < n else 2 * n - 1 - m
    raise ValueError(boundary)


def oracle_convolve(
    samples: np.ndarray,
    coeffs: list[list[int]],
    anchor: tuple[int, int],
    boundary: str,
) -> np.ndarray:
    """Direct quadruple-loop stencil application, exact integer arithmetic.

    The template is applied as printed (no flipping): the output at (r, c)
    sums coeff[kr][kc] * f(r + kr - anchor_row, c + kc - anchor_col).
    """
    height, width = samples.shape
    ar, ac = anchor
    out = np.zeros((height, width), dtype=np.int64)
    for r in range(height):
        for c in range(width):
            acc = 0
            for kr, row in enumerate(coeffs):
                for kc, coeff in enumerate(row):
                    if coeff == 0:
                        continue
                    sr = fold_index(r + kr - ar, height, boundary)
                    sc = fold_index(c + kc - ac, width, boundary)
                    if sr is None or sc is None:
                        continue
                    acc += coeff * int(samples[sr, sc])
            out[r, c] = acc
    return out.astype(np.int32)


# ---------------------------------------------------------------------------
# Stretch oracle


def type7_percentile(ranked: list[int], pct: float) -> float:
    """Percentile of sorted integers, linear between closest ranks.

    Hyndman & Fan type 7 as docs/formats.md pins it: h = (n - 1) * pct/100,
    a = x[floor(h)], b = x[floor(h) + 1], t = h - floor(h), and the result
    is a + (b - a) * t, or b - (b - a) * (1 - t) when t >= 0.5. At h >= n - 1
    it is the largest value.
    """
    n = len(ranked)
    h = (n - 1) * (pct / 100)
    if h >= n - 1:
        return float(ranked[-1])
    i = math.floor(h)
    a, b, t = float(ranked[i]), float(ranked[i + 1]), h - i
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def oracle_stretch(
    samples: np.ndarray, mode: str, lo_pct: float = 2.0, hi_pct: float = 98.0
) -> np.ndarray | None:
    """Per-pixel display stretch of an int32 field in plain Python.

    ``abs_linear`` clips |x| at the type-7 percentiles of the sorted
    magnitudes; ``signed_linear`` spans [min, max]. Each value is then
    mapped as floor((clip(x) - lo) * (255 / (hi - lo)) + 0.5), capped at
    255; a window with hi <= lo maps to zeros. None means the window is
    too narrow for 255 / (hi - lo) to be finite, which stretch refuses.
    """
    values = [int(v) for v in samples.ravel()]
    if mode == "abs_linear":
        values = [abs(v) for v in values]
        ranked = sorted(values)
        lo = type7_percentile(ranked, lo_pct)
        hi = type7_percentile(ranked, hi_pct)
    else:
        lo, hi = float(min(values)), float(max(values))
    if hi <= lo:
        return np.zeros(samples.shape, dtype=np.uint8)
    scale = 255.0 / (hi - lo)
    if scale == math.inf:
        return None
    out = [
        min(math.floor((min(max(float(v), lo), hi) - lo) * scale + 0.5), 255)
        for v in values
    ]
    return np.array(out, dtype=np.uint8).reshape(samples.shape)


def eight_pass_stretch(
    samples: np.ndarray, mode: str, lo_pct: float = 2.0, hi_pct: float = 98.0
) -> np.ndarray | None:
    """The display stretch with the float64 map ``stretch`` used to apply.

    Eight passes over every sample: convert, clip to [lo, hi], subtract
    lo, multiply by 255 / (hi - lo), add 0.5, floor, cap at 255 and cast
    to u8. The clip points are numpy's percentiles of the float64
    magnitudes for ``abs_linear`` and [min, max] for ``signed_linear``. A
    window with hi <= lo maps to zeros; None means 255 / (hi - lo) is not
    finite, which stretch refuses.
    """
    x = samples.astype(np.float64)
    if mode == "abs_linear":
        np.abs(x, out=x)
        lo, hi = (float(np.percentile(x, p)) for p in (lo_pct, hi_pct))
    else:
        lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return np.zeros(samples.shape, dtype=np.uint8)
    scale = 255.0 / (hi - lo)
    if math.isinf(scale):
        return None
    np.clip(x, lo, hi, out=x)
    x -= lo
    x *= scale
    x += 0.5
    np.floor(x, out=x)
    np.minimum(x, 255.0, out=x)
    return x.astype(np.uint8)


# ---------------------------------------------------------------------------
# PRNG reference (pure Python, masked 64-bit arithmetic)


def ref_splitmix64(seed: int, index: int) -> int:
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def ref_uniform(seed: int, index: int) -> float:
    return ((ref_splitmix64(seed, index) >> 11) + 1) * 2.0**-53


def ref_gaussian(seed: int, index: int) -> float:
    u1 = ref_uniform(seed, 2 * index)
    u2 = ref_uniform(seed, 2 * index + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def ref_gaussian_numpy(seed: int, indices) -> np.ndarray:
    """ref_gaussian's Box-Muller with numpy's elementwise log, sqrt and cos.

    The uniforms come from the pure-Python stream. numpy's SIMD log is not
    always correctly rounded, so it can differ from math.log in the last
    bit; this reference pins the library's exact float64 output.
    """
    flat = [int(i) for i in np.asarray(indices).reshape(-1)]
    u1 = np.array([ref_uniform(seed, 2 * i) for i in flat], dtype=np.float64)
    u2 = np.array([ref_uniform(seed, 2 * i + 1) for i in flat], dtype=np.float64)
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    return g.reshape(np.shape(indices))


def oracle_synth_scene(spec: SceneSpec) -> list[np.ndarray]:
    """Every band of the scene from the float64 ``gaussian_stream`` alone.

    Each run of 16,384 stream indices is drawn, scaled, offset and
    rounded as floor(mean + sigma * g + 0.5), then clamped to the dtype:
    the loop synth_scene ran before it filtered with a float32 cosine.
    """
    labels = paint_labels(spec).labels.reshape(-1)
    top = 255 if spec.dtype == "u8" else 65535
    n_pixels = spec.height * spec.width
    bands = []
    for b in range(spec.n_bands):
        means = np.array([0.0] + [s.means[b] for s in spec.signatures])
        sigmas = np.array([0.0] + [s.sigmas[b] for s in spec.signatures])
        samples = np.empty(n_pixels, dtype=np.int64)
        first = b * n_pixels
        for start in range(0, n_pixels, 16384):
            stop = min(start + 16384, n_pixels)
            values = gaussian_stream(
                spec.seed, np.arange(first + start, first + stop, dtype=np.uint64)
            )
            classes = labels[start:stop]
            values *= sigmas[classes]
            values += means[classes]
            values += 0.5
            samples[start:stop] = np.clip(np.floor(values), 0, top)
        bands.append(samples.reshape(spec.height, spec.width))
    return bands


def ref_moments(planes) -> tuple[int, list[int], list[list[int]]]:
    """Pixel count, per-plane sums and all pairwise product sums, in Python ints."""
    values = [p.ravel().tolist() for p in planes]
    sums = [sum(v) for v in values]
    gram = [[sum(a * b for a, b in zip(vi, vj)) for vj in values] for vi in values]
    return len(values[0]), sums, gram


def oracle_compare(a: np.ndarray, b: np.ndarray) -> dict:
    """Exact magnitude statistics of two int32 fields, in Python ints.

    With N pixels, S = sum(|x|) and Q = sum(|x|^2) per field and
    P = sum(|a| |b|), each mean, variance and covariance is one rounded
    division of Python ints, as docs/formats.md states: mean S/N, stddev
    sqrt((N Q - S^2) / N^2), and correlation ((N P - S_a S_b) / N^2) /
    (s_a s_b), None when either N Q == S^2.

    Per field, the magnitude histogram puts |x| in bin
    ``min(|x|.bit_length(), 31)`` and the edge density counts |x| strictly
    above a threshold of 1; sign agreement counts pixels whose signs match.
    """
    ma, mb = ([abs(int(v)) for v in f.ravel()] for f in (a, b))
    histograms, edges = [], []
    for m in (ma, mb):
        hist = [0] * 32
        for v in m:
            hist[min(v.bit_length(), 31)] += 1
        histograms.append(tuple(hist))
        edges.append(sum(v > 1 for v in m) / len(m))

    def sign(v: int) -> int:
        return (v > 0) - (v < 0)

    agree = sum(sign(int(x)) == sign(int(y)) for x, y in zip(a.ravel(), b.ravel()))
    n = len(ma)
    sa, sb = sum(ma), sum(mb)
    scatter_a = n * sum(v * v for v in ma) - sa * sa
    scatter_b = n * sum(v * v for v in mb) - sb * sb
    cross = n * sum(x * y for x, y in zip(ma, mb)) - sa * sb
    std_a, std_b = math.sqrt(scatter_a / n**2), math.sqrt(scatter_b / n**2)
    corr = None
    if scatter_a and scatter_b:
        corr = cross / n**2 / (std_a * std_b)
    return {
        "mean": (sa / n, sb / n),
        "stddev": (std_a, std_b),
        "correlation": corr,
        "histogram": tuple(histograms),
        "edge_density": tuple(edges),
        "sign_agreement": agree / n,
    }


# ---------------------------------------------------------------------------
# OIF ranking oracle


def oracle_rank_triples(corr) -> tuple[np.ndarray, np.ndarray]:
    """Every triple i < j < k from the boolean (n, n, n) cube, ranked by lexsort.

    Scores are summed in the order s_i + s_j + s_k over
    |r_ij| + |r_ik| + |r_jk| (+inf on a zero denominator), and ties fall
    back to ascending (i, j, k). Triples are 1-based.
    """
    n = corr.n
    above = np.triu(np.ones((n, n), dtype=bool), 1)  # above[a, b] is a < b
    i, j, k = np.nonzero(above[:, :, None] & above)
    std = np.array(corr.stddev)
    absr = np.abs(corr.r)
    numer = std[i] + std[j] + std[k]
    denom = absr[i, j] + absr[i, k] + absr[j, k]
    scores = np.divide(numer, denom, out=np.full_like(numer, math.inf), where=denom > 0)
    order = np.lexsort((k, j, i, -scores))
    return np.column_stack((i, j, k))[order] + 1, scores[order]


# ---------------------------------------------------------------------------
# Classification oracle


def oracle_classify(image: MultibandImage, specs) -> np.ndarray:
    """Parallelepiped labels from the class boxes' float bounds as given.

    Each band is compared against the bounds in float64, and the classes
    are painted first to last, each only on pixels no earlier class took,
    so the first listed class whose closed box holds a pixel labels it.
    """
    labels = np.zeros((image.height, image.width), dtype=np.int32)
    for index, spec in enumerate(specs, start=1):
        inside = np.ones(labels.shape, dtype=bool)
        for band, (lo, hi) in zip(image.bands, spec.bounds):
            samples = band.samples.astype(np.float64)
            inside &= (samples >= float(lo)) & (samples <= float(hi))
        labels[inside & (labels == 0)] = index
    return labels


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced by ``tracemalloc`` while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# ---------------------------------------------------------------------------
# Scene fixtures


def separable_scene_spec(seed: int = 8101) -> SceneSpec:
    """Three well-separated classes: per-band mean gaps >= 10 sigma."""
    sigma = (2.0, 2.0, 2.0)
    return SceneSpec(
        width=80,
        height=80,
        dtype="u8",
        seed=seed,
        signatures=(
            ClassSignature("sea", (40.0, 60.0, 30.0), sigma),
            ClassSignature("forest", (120.0, 90.0, 80.0), sigma),
            ClassSignature("soil", (200.0, 170.0, 150.0), sigma),
        ),
        placements=(
            Placement(2, Rectangle(8, 8, 30, 40)),
            Placement(3, Rectangle(46, 30, 28, 44)),
        ),
    )


# Class mean profiles built from mutually orthogonal +-1 patterns over four
# equal-area quadrants: bands 1, 4, 5 swing +-90 on the three orthogonal
# patterns (huge stddev, near-zero pairwise correlation), while the other
# four bands share one mixed low-amplitude profile (small stddev, strongly
# correlated with each other). Every triple except (1, 4, 5) then contains
# a small-stddev or strongly correlated band and scores far lower.
_W1 = (1, 1, -1, -1)
_W2 = (1, -1, 1, -1)
_W3 = (1, -1, -1, 1)
_MIX = (3, -1, -1, -1)


def forced_oif_spec(seed: int = 20260825) -> SceneSpec:
    signatures = []
    for c in range(4):
        means = (
            128.0 + 90.0 * _W1[c],
            128.0 + 4.0 * _MIX[c],
            128.0 + 5.0 * _MIX[c],
            128.0 + 90.0 * _W2[c],
            128.0 + 90.0 * _W3[c],
            128.0 + 6.0 * _MIX[c],
            128.0 + 7.0 * _MIX[c],
        )
        signatures.append(ClassSignature(f"region {c + 1}", means, (2.0,) * 7))
    return SceneSpec(
        width=64,
        height=64,
        dtype="u8",
        seed=seed,
        signatures=tuple(signatures),
        placements=(
            Placement(2, Rectangle(0, 32, 32, 32)),
            Placement(3, Rectangle(32, 0, 32, 32)),
            Placement(4, Rectangle(32, 32, 32, 32)),
        ),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1729)


def random_band(
    rng: np.random.Generator, height: int, width: int, dtype: str = "u8"
) -> Band:
    if dtype == "u8":
        return Band(rng.integers(0, 256, (height, width), dtype=np.uint8))
    return Band(rng.integers(0, 65536, (height, width), dtype=np.uint16))


def random_image(
    rng: np.random.Generator,
    n_bands: int,
    height: int,
    width: int,
    dtype: str = "u8",
) -> MultibandImage:
    return MultibandImage(
        tuple(random_band(rng, height, width, dtype) for _ in range(n_bands))
    )
