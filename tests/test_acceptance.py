"""Acceptance gate: the nine numbered criteria, one reported line each.

Every criterion records a ``criterion N (...): PASS/FAIL/SKIP`` line; the
conftest terminal-summary hook prints them after the run so they survive
pytest's output capture. Timing budgets are asserted from measured wall
time; exactness criteria use == on integers or bit-level array
comparison, never tolerances.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from gstk import (
    Band,
    BoundaryMode,
    ClassificationMap,
    Kernel,
    accuracy,
    band_stats,
    classify,
    convolve,
    correlation,
    derive_quadrant_template,
    fit_classes,
    laplacian_template,
    oif_rank,
    read_bsq,
    read_pgm,
    rois_from_labels,
    scene_spec_to_json,
    smoothing_template,
    symmetrize,
    synth_scene,
    write_bsq,
    write_pgm,
)
from gstk.cli import main as cli_main
from conftest import (
    forced_oif_spec,
    oracle_convolve,
    random_band,
    random_image,
    separable_scene_spec,
)


REPORT: list[str] = []


def _report(line: str) -> None:
    REPORT.append(line)


@contextmanager
def criterion(number: int, title: str):
    info: dict[str, str] = {}
    try:
        yield info
    except BaseException:
        _report(f"criterion {number} ({title}): FAIL")
        raise
    note = f" [{info['note']}]" if "note" in info else ""
    _report(f"criterion {number} ({title}): PASS{note}")


def _best_of(n: int, fn) -> float:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


SMOOTH5 = (
    (0, 0, 1, 0, 0),
    (0, 2, -4, 2, 0),
    (1, -4, 4, -4, 1),
    (0, 2, -4, 2, 0),
    (0, 0, 1, 0, 0),
)
LAPLACIAN3 = ((-1, -1, -1), (-1, 8, -1), (-1, -1, -1))


def test_criterion_1_template_fidelity():
    with criterion(1, "template fidelity") as info:
        derived = symmetrize(derive_quadrant_template())
        assert derived.coeffs == SMOOTH5
        assert derived.anchor == (2, 2)
        assert smoothing_template().coeffs == SMOOTH5
        assert laplacian_template().coeffs == LAPLACIAN3
        elapsed = _best_of(5, lambda: symmetrize(derive_quadrant_template()))
        assert elapsed < 0.001, f"derivation took {elapsed * 1e3:.3f} ms"
        info["note"] = f"{elapsed * 1e6:.0f} us"


def test_criterion_2_kernel_invariants():
    with criterion(2, "kernel invariants") as info:
        k = smoothing_template()

        def check():
            total = sum(c for row in k.coeffs for c in row)
            m10 = m01 = 0
            nonzero = 0
            for r, row in enumerate(k.coeffs):
                for c, v in enumerate(row):
                    m10 += v * (c - 2)
                    m01 += v * (r - 2)
                    nonzero += v != 0
            assert total == 0
            assert m10 == 0 and m01 == 0
            assert nonzero == 13
            assert k.is_d4_symmetric()

        check()
        elapsed = _best_of(5, check)
        assert elapsed < 0.001, f"invariant checks took {elapsed * 1e3:.3f} ms"
        info["note"] = f"{elapsed * 1e6:.0f} us"


def test_criterion_3_annihilation():
    with criterion(3, "affine annihilation / quadratic response") as info:
        start = time.perf_counter()
        k = smoothing_template()
        rng = np.random.default_rng(301)
        rows, cols = np.mgrid[0:22, 0:24]

        # randomized affine fields vanish on the interior, exactly
        for _ in range(10):
            a = int(rng.integers(0, 4))
            b = int(rng.integers(0, 4))
            c = int(rng.integers(0, 61))
            band = Band((a * cols + b * rows + c).astype(np.uint8))
            for boundary in BoundaryMode:
                out = convolve(band, k, boundary).samples
                assert not out[2:-2, 2:-2].any(), (a, b, c, boundary)

        # expected quadratic responses by independent direct summation
        # over the printed grid (not via the moment helper)
        poly = {
            "xx": lambda dc, dr: dc * dc,
            "yy": lambda dc, dr: dr * dr,
            "xy": lambda dc, dr: dc * dr,
        }
        expected = {
            name: sum(
                v * f(cc - 2, rr - 2)
                for rr, row in enumerate(SMOOTH5)
                for cc, v in enumerate(row)
            )
            for name, f in poly.items()
        }
        assert expected == {"xx": 8, "yy": 8, "xy": 0}

        fields = {
            "xx": cols * cols,
            "yy": rows * rows,
            "xy": cols * rows,
        }
        for name, field in fields.items():
            band = Band(field.astype(np.uint16))
            out = convolve(band, k, BoundaryMode.ZERO).samples
            assert (out[2:-2, 2:-2] == expected[name]).all(), name

        elapsed = time.perf_counter() - start
        assert elapsed < 0.100, f"criterion took {elapsed * 1e3:.1f} ms"
        info["note"] = f"{elapsed * 1e3:.1f} ms"


def test_criterion_4_convolution_oracle_equivalence(monkeypatch):
    # A one-sample tile budget cuts one-row tiles, so every case of two or
    # more rows spans several tiles.
    monkeypatch.setattr(sys.modules["gstk.convolve"], "_TILE_SAMPLES", 1)
    with criterion(4, "convolution equals quadruple-loop oracle") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(401)
        named = [derive_quadrant_template(), smoothing_template(), laplacian_template()]
        boundaries = itertools.cycle([m.value for m in BoundaryMode])
        for case in range(200):
            if case % 4 < 3:
                kernel = named[case % 4]
            else:
                kh = int(rng.integers(1, 6))
                kw = int(rng.integers(1, 6))
                grid = rng.integers(-12, 13, (kh, kw))
                anchor = (int(rng.integers(0, kh)), int(rng.integers(0, kw)))
                kernel = Kernel(
                    tuple(tuple(int(v) for v in row) for row in grid), anchor
                )
            boundary = next(boundaries)
            dtype = "u8" if case % 2 == 0 else "u16"
            band = random_band(
                rng, int(rng.integers(1, 33)), int(rng.integers(1, 33)), dtype
            )
            expected = oracle_convolve(
                band.samples, [list(r) for r in kernel.coeffs], kernel.anchor, boundary
            )
            for workers in (1, 2, 8):
                got = convolve(
                    band, kernel, BoundaryMode(boundary), workers=workers
                ).samples
                assert got.dtype == np.int32
                assert np.array_equal(got, expected), (case, workers, boundary)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion took {elapsed:.2f} s"
        info["note"] = f"200 cases x 3 worker counts, {elapsed:.2f} s"


def test_criterion_5_oif_correctness():
    with criterion(5, "OIF ranking") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(501)

        # randomized images vs an exhaustive scorer written from the formula
        for trial in range(20):
            n = int(rng.integers(5, 8))
            img = random_image(rng, n, 12, 12, "u8" if trial % 2 else "u16")
            stats = [band_stats(b) for b in img.bands]
            r = correlation(img).r
            scored = []
            for i, j, k in combinations(range(n), 3):
                denom = abs(r[i, j]) + abs(r[i, k]) + abs(r[j, k])
                score = (
                    (stats[i].stddev + stats[j].stddev + stats[k].stddev) / denom
                    if denom > 0
                    else math.inf
                )
                scored.append(((i + 1, j + 1, k + 1), score))
            scored.sort(key=lambda t: (-t[1], t[0]))
            got = oif_rank(img)
            assert [s.triple for s in got] == [t for t, _ in scored]
            for s, (_, score) in zip(got, scored):
                if math.isinf(score):
                    assert math.isinf(s.score)
                else:
                    assert abs(s.score - score) <= 1e-9 * abs(score)

        # the constructed scene must rank bands (1, 4, 5) first
        image, _ = synth_scene(forced_oif_spec())
        ranking = oif_rank(image)
        assert ranking[0].triple == (1, 4, 5)
        assert ranking[0].score > 10 * ranking[1].score

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion took {elapsed:.2f} s"
        info["note"] = f"{elapsed:.2f} s"


def test_criterion_6_classification_accuracy():
    # The originally reported 73% overall accuracy for this workflow is
    # NOT reproducible: the scene, training regions, and class
    # definitions behind it were never released. This criterion replaces
    # it with a property on a synthetic scene whose class means sit
    # >= 10 sigma apart in every band.
    with criterion(6, "separable-scene classification") as info:
        start = time.perf_counter()
        spec = separable_scene_spec()
        sigma = 2.0
        for a in range(len(spec.signatures)):
            for b in range(a + 1, len(spec.signatures)):
                gaps = [
                    abs(x - y)
                    for x, y in zip(spec.signatures[a].means, spec.signatures[b].means)
                ]
                assert min(gaps) >= 10 * sigma

        image, truth = synth_scene(spec)
        training = np.zeros_like(truth.labels)
        training[::2, ::2] = truth.labels[::2, ::2]
        rois = rois_from_labels(training, [s.name for s in spec.signatures])
        cmap = classify(image, fit_classes(image, rois))

        heldout = truth.labels.copy()
        heldout[::2, ::2] = 0
        cm = accuracy(cmap, ClassificationMap(heldout))
        assert cm.total == 4800
        assert cm.overall_accuracy >= 0.99, cm.overall_accuracy

        self_cm = accuracy(cmap, cmap)
        assert self_cm.overall_accuracy == 1.0  # exactly

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion took {elapsed:.2f} s"
        info["note"] = f"held-out accuracy {cm.overall_accuracy:.4f}, {elapsed:.2f} s"


def test_criterion_7_pipeline_determinism(tmp_path):
    # Bit-identical artifacts across two consecutive runs. Cross-platform
    # identity rests on the same guarantees exercised here: pinned integer
    # kernels, a fixed counter-based PRNG, and byte-defined file formats.
    with criterion(7, "pipeline determinism") as info:
        start = time.perf_counter()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(scene_spec_to_json(forced_oif_spec()))
        for tag in ("run1", "run2"):
            code = cli_main(
                ["pipeline", "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / tag)]
            )
            assert code == 0
        artifacts = sorted(p.name for p in (tmp_path / "run1").iterdir())
        assert artifacts == [
            "compare.json", "confusion.json", "features.bsq", "features.hdr",
            "map.pgm", "oif.json", "scene.bsq", "scene.hdr", "truth.pgm",
        ]
        for name in artifacts:
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        top = json.loads((tmp_path / "run1" / "oif.json").read_text())["ranking"][0]
        assert top["triple"] == [1, 4, 5]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion took {elapsed:.2f} s"
        info["note"] = f"{len(artifacts)} artifacts, {elapsed:.2f} s"


def test_criterion_8_single_thread_throughput():
    # Soft performance target.
    with criterion(8, "throughput, single thread") as info:
        rng = np.random.default_rng(801)
        band = Band(rng.integers(0, 65536, (2048, 2048), dtype=np.uint16))
        k = smoothing_template()
        elapsed = _best_of(3, lambda: convolve(band, k, workers=1))
        assert elapsed < 0.250, f"single-thread run took {elapsed * 1e3:.0f} ms"
        info["note"] = f"{elapsed * 1e3:.0f} ms for 2048x2048 u16"


def test_criterion_8_parallel_speedup():
    # Soft performance target; meaningless without a second core.
    if (os.cpu_count() or 1) < 2:
        _report(
            "criterion 8 (parallel speedup): SKIP "
            f"[host has {os.cpu_count()} CPU; a 4-worker run cannot beat "
            "1 worker without parallel hardware]"
        )
        pytest.skip("parallel speedup needs >= 2 CPUs")
    with criterion(8, "parallel speedup") as info:
        rng = np.random.default_rng(802)
        band = Band(rng.integers(0, 65536, (2048, 2048), dtype=np.uint16))
        k = smoothing_template()
        t1 = _best_of(3, lambda: convolve(band, k, workers=1))
        t4 = _best_of(3, lambda: convolve(band, k, workers=4))
        assert t4 < t1, f"4 workers {t4 * 1e3:.0f} ms vs 1 worker {t1 * 1e3:.0f} ms"
        info["note"] = f"1w {t1 * 1e3:.0f} ms -> 4w {t4 * 1e3:.0f} ms"


def test_criterion_9_io_roundtrips():
    with criterion(9, "PGM/BSQ round-trips") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(901)
        for case in range(100):
            dtype = "u8" if case % 2 == 0 else "u16"
            h = int(rng.integers(1, 25))
            w = int(rng.integers(1, 25))
            n = int(rng.integers(1, 9))
            img = random_image(rng, n, h, w, dtype)

            band = img.bands[0]
            back = read_pgm(write_pgm(band))
            assert back.dtype == band.dtype
            assert np.array_equal(back.samples, band.samples)

            header, payload = write_bsq(img)
            restored = read_bsq(header, payload)
            assert restored.n_bands == n
            assert restored.dtype == dtype
            for orig, got in zip(img.bands, restored.bands):
                assert np.array_equal(orig.samples, got.samples)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion took {elapsed:.2f} s"
        info["note"] = f"100 fuzzed images, {elapsed:.2f} s"
