import sys

import numpy as np
import pytest

from gstk import (
    Band,
    BoundaryMode,
    DomainError,
    Kernel,
    MultibandImage,
    convolve,
    convolve_image,
    laplacian_template,
    parse_kernel,
    smoothing_template,
)
from conftest import oracle_convolve, random_band, traced_peak

ALL_BOUNDARIES = [m.value for m in BoundaryMode]

# The module, not the function that ``gstk.convolve`` resolves to.
CONV = sys.modules["gstk.convolve"]


def _set_tile_rows(monkeypatch, rows, width):
    """Make ``convolve`` cut ``rows``-row tiles from bands ``width`` wide."""
    monkeypatch.setattr(CONV, "_TILE_SAMPLES", rows * width)


def _engine(band, kernel, boundary, **kw):
    return convolve(band, kernel, BoundaryMode(boundary), **kw).samples


def _oracle(band, kernel, boundary):
    return oracle_convolve(
        band.samples, [list(r) for r in kernel.coeffs], kernel.anchor, boundary
    )


class TestBasics:
    def test_constant_band_zero_response(self):
        band = Band(np.full((9, 7), 201, dtype=np.uint8))
        out = _engine(band, smoothing_template(), "replicate")
        assert not out.any()

    @pytest.mark.parametrize("dtype", ["u8", "u16"])
    def test_all_zero_kernel(self, rng, monkeypatch, dtype):
        band = random_band(rng, 9, 7, dtype)
        _set_tile_rows(monkeypatch, 2, band.width)
        k = Kernel(((0, 0, 0), (0, 0, 0)), anchor=(1, 1))
        for boundary in ALL_BOUNDARIES:
            out = _engine(band, k, boundary, workers=2)
            assert out.dtype == np.int32 and not out.any()

    def test_identity_kernel_passthrough(self, rng):
        band = random_band(rng, 6, 8, "u16")
        k = Kernel(((1,),), anchor=(0, 0))
        for boundary in ALL_BOUNDARIES:
            assert np.array_equal(
                _engine(band, k, boundary), band.samples.astype(np.int32)
            )

    def test_affine_interior_annihilated(self):
        rows, cols = np.mgrid[0:15, 0:14]
        band = Band((3 * cols + 5 * rows + 7).astype(np.uint8))
        for boundary in ALL_BOUNDARIES:
            out = _engine(band, smoothing_template(), boundary)
            assert not out[2:-2, 2:-2].any()

    def test_quadratic_interior_response(self):
        rows, cols = np.mgrid[0:12, 0:12]
        for field, expected in (
            (cols * cols, 8),
            (rows * rows, 8),
            (cols * rows, 0),
        ):
            band = Band(field.astype(np.uint16))
            out = _engine(band, smoothing_template(), "zero")
            assert (out[2:-2, 2:-2] == expected).all()

    def test_output_dtype_and_shape(self, rng):
        band = random_band(rng, 5, 11)
        field = convolve(band, laplacian_template())
        assert field.samples.dtype == np.int32
        assert (field.height, field.width) == (5, 11)

    def test_no_flip_convention(self):
        # An asymmetric kernel distinguishes correlation from flipped
        # convolution: k reads one pixel to the LEFT of the output pixel.
        band = Band(np.array([[10, 20, 30]], dtype=np.uint8))
        k = Kernel(((1, 0, 0),), anchor=(0, 1))
        out = _engine(band, k, "zero")
        assert out.tolist() == [[0, 10, 20]]

    def test_quadrant_kernel_matches_oracle(self, rng):
        from gstk import derive_quadrant_template

        band = random_band(rng, 9, 9)
        q = derive_quadrant_template()
        for boundary in ALL_BOUNDARIES:
            assert np.array_equal(_engine(band, q, boundary), _oracle(band, q, boundary))


class TestBoundaries:
    def test_hand_folds_on_width_two(self):
        band = Band(np.array([[10, 20]], dtype=np.uint8))
        k = Kernel(((1, 0, 0, 0),), anchor=(0, 3))  # reads f(c - 3)
        assert _engine(band, k, "replicate").tolist() == [[10, 10]]
        assert _engine(band, k, "reflect").tolist() == [[20, 20]]
        assert _engine(band, k, "zero").tolist() == [[0, 0]]

    def test_replicate_vs_reflect_vs_zero(self):
        band = Band(np.array([[1, 2, 3, 4, 5]], dtype=np.uint8))
        k = Kernel(((1, 0, 0, 0, 0),), anchor=(0, 2))  # reads f(c - 2)
        assert _engine(band, k, "replicate").tolist() == [[1, 1, 1, 2, 3]]
        assert _engine(band, k, "reflect").tolist() == [[2, 1, 1, 2, 3]]
        assert _engine(band, k, "zero").tolist() == [[0, 0, 1, 2, 3]]

    def test_kernel_larger_than_band(self, rng):
        band = random_band(rng, 2, 2)
        k = smoothing_template()
        for boundary in ALL_BOUNDARIES:
            out = _engine(band, k, boundary)
            assert out.shape == (2, 2)
            assert np.array_equal(out, _oracle(band, k, boundary))

    def test_single_pixel_band(self):
        band = Band(np.array([[99]], dtype=np.uint8))
        assert _engine(band, smoothing_template(), "replicate").tolist() == [[0]]
        assert _engine(band, laplacian_template(), "reflect").tolist() == [[0]]
        # zero boundary: only the anchor cell reads the pixel
        assert _engine(band, smoothing_template(), "zero").tolist() == [[99 * 4]]


class TestOracleEquivalence:
    def test_randomized_kernels_and_boundaries(self, rng):
        kernels = [smoothing_template(), laplacian_template()]
        for _ in range(6):
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            grid = rng.integers(-20, 21, (h, w))
            anchor = (int(rng.integers(0, h)), int(rng.integers(0, w)))
            kernels.append(
                Kernel(tuple(tuple(int(v) for v in row) for row in grid), anchor)
            )
        for k in kernels:
            for boundary in ALL_BOUNDARIES:
                for dtype in ("u8", "u16"):
                    band = random_band(
                        rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)), dtype
                    )
                    assert np.array_equal(
                        _engine(band, k, boundary), _oracle(band, k, boundary)
                    )

    def test_linearity(self, rng):
        # convolve(2A + 3B) = 2 convolve(A) + 3 convolve(B) exactly,
        # checked on fields small enough to avoid any clamping.
        a = rng.integers(0, 20, (10, 10), dtype=np.uint8)
        b = rng.integers(0, 20, (10, 10), dtype=np.uint8)
        k = smoothing_template()
        mixed = Band((2 * a + 3 * b).astype(np.uint8))
        out = _engine(mixed, k, "reflect")
        parts = 2 * _engine(Band(a), k, "reflect") + 3 * _engine(Band(b), k, "reflect")
        assert np.array_equal(out, parts)


class TestNarrowAccumulator:
    """u8 kernels on either side of the int16 accumulation bound.

    abs_sum 128 gives a worst case of 128 * 255 = 32640 <= 2^15 - 1, so
    tiles accumulate in int16; 129 gives 32895 and int32. Single-sign
    kernels on all-255 input drive every partial sum up to that bound.
    """

    @staticmethod
    def _file_kernel(abs_sum, sign):
        # A 3x3 kernel file with an off-center anchor: 8 * 14 plus the center.
        grid = [[14, 14, 14], [14, abs_sum - 112, 14], [14, 14, 14]]
        rows = "\n".join(" ".join(str(sign * v) for v in row) for row in grid)
        return parse_kernel("anchor 1 0\n" + rows + "\n")

    @pytest.mark.parametrize("abs_sum", [128, 129])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bound_reached_matches_oracle(self, rng, monkeypatch, abs_sum, sign):
        kernel = self._file_kernel(abs_sum, sign)
        assert kernel.abs_sum() == abs_sum
        saturated = Band(np.full((9, 11), 255, dtype=np.uint8))
        mixed = random_band(rng, 9, 11)
        _set_tile_rows(monkeypatch, 2, 11)
        for band in (saturated, mixed):
            for boundary in ALL_BOUNDARIES:
                expected = _oracle(band, kernel, boundary)
                for workers in (1, 2, 8):
                    got = _engine(band, kernel, boundary, workers=workers)
                    assert got.dtype == np.int32
                    assert np.array_equal(got, expected), (boundary, workers)
        response = _engine(saturated, kernel, "replicate")
        assert (response == sign * abs_sum * 255).all()


class TestDeterminism:
    def test_workers_and_tiles_bit_identical(self, rng, monkeypatch):
        band = random_band(rng, 67, 31, "u16")
        k = smoothing_template()
        reference = _engine(band, k, "replicate")
        for workers in (1, 2, 8):
            for tile_rows in (1, 7, 64):
                _set_tile_rows(monkeypatch, tile_rows, band.width)
                out = _engine(band, k, "replicate", workers=workers)
                assert np.array_equal(out, reference), (workers, tile_rows)

    def test_more_workers_than_tiles(self, rng):
        band = random_band(rng, 4, 4)
        out = _engine(band, laplacian_template(), "zero", workers=8)
        assert np.array_equal(out, _oracle(band, laplacian_template(), "zero"))

    def test_threads_capped_at_tiles_and_cpus(self, rng, monkeypatch):
        pools = []

        class RecordingPool(CONV.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(CONV, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(CONV.os, "cpu_count", lambda: 2)
        band = random_band(rng, 12, 5)
        k = smoothing_template()
        reference = _oracle(band, k, "replicate")
        for tile_rows, n_tiles in ((12, 1), (7, 2), (1, 12)):
            _set_tile_rows(monkeypatch, tile_rows, band.width)
            for workers in (1, 2, 8):
                pools.clear()
                out = _engine(band, k, "replicate", workers=workers)
                assert np.array_equal(out, reference), (tile_rows, workers)
                expected = min(workers, n_tiles, 2)
                assert pools == ([] if expected == 1 else [expected]), (
                    tile_rows, workers, pools
                )


class TestMemory:
    def test_result_is_not_copied(self, rng, monkeypatch):
        # The padded int32 input and the int32 output are live together; a
        # copy of the output on wrapping would make three frames.
        band = random_band(rng, 512, 512, "u16")
        _set_tile_rows(monkeypatch, 16, band.width)
        field, peak = traced_peak(lambda: convolve(band, smoothing_template()))
        assert peak < 2.5 * field.samples.nbytes

    def test_int32_tile_accumulates_in_output(self, rng):
        # One tile covers the band: the padded input, the output and one
        # tap term are live; a separate accumulator would make a fourth.
        band = random_band(rng, 256, 256, "u16")
        field, peak = traced_peak(lambda: convolve(band, smoothing_template()))
        assert peak < 3.5 * field.samples.nbytes, peak / field.samples.nbytes


class TestValidation:
    def test_empty_band_rejected(self):
        band = Band(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(DomainError, match="empty"):
            convolve(band, smoothing_template())

    def test_bad_workers_rejected(self, rng):
        band = random_band(rng, 4, 4)
        with pytest.raises(DomainError):
            convolve(band, smoothing_template(), workers=0)

    def test_overflow_precheck(self):
        # abs-sum 65534 times u16 max exceeds signed 32-bit range.
        k = Kernel(((32767, 32767),), anchor=(0, 0))
        band16 = Band(np.zeros((2, 2), dtype=np.uint16))
        with pytest.raises(DomainError, match="32"):
            convolve(band16, k, BoundaryMode.ZERO)
        # the same kernel is fine on u8 input
        band8 = Band(np.zeros((2, 2), dtype=np.uint8))
        convolve(band8, k, BoundaryMode.ZERO)

    def test_response_bound(self, rng):
        k = smoothing_template()
        for dtype, top in (("u8", 255), ("u16", 65535)):
            band = random_band(rng, 16, 16, dtype)
            out = _engine(band, k, "reflect")
            assert np.abs(out).max() <= k.abs_sum() * top


class TestConvolveImage:
    def test_matches_per_band(self, rng):
        bands = tuple(random_band(rng, 12, 9) for _ in range(7))
        image = MultibandImage(bands)
        fields = convolve_image(image, smoothing_template(), BoundaryMode.REFLECT)
        assert len(fields) == 7
        for band, field in zip(bands, fields):
            solo = convolve(band, smoothing_template(), BoundaryMode.REFLECT)
            assert np.array_equal(field.samples, solo.samples)

    def test_single_band_image(self, rng):
        band = random_band(rng, 6, 6)
        fields = convolve_image(MultibandImage((band,)), laplacian_template())
        assert len(fields) == 1
        assert np.array_equal(
            fields[0].samples, convolve(band, laplacian_template()).samples
        )

    def test_laplacian_baseline_differs_from_smoothing(self, rng):
        band = random_band(rng, 10, 10)
        smooth = convolve(band, smoothing_template()).samples
        lap = convolve(band, laplacian_template()).samples
        assert not np.array_equal(smooth, lap)
