import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gstk import synth
from gstk import (
    BoundaryMode,
    ClassSignature,
    Disk,
    DomainError,
    FileFormatError,
    Placement,
    Rectangle,
    SceneSpec,
    convolve,
    gaussian_stream,
    scene_spec_from_json,
    scene_spec_to_json,
    smoothing_template,
    synth_scene,
)
from conftest import (
    oracle_synth_scene,
    ref_gaussian,
    ref_gaussian_numpy,
    ref_splitmix64,
    ref_uniform,
    separable_scene_spec,
)

_SPREAD = np.random.default_rng(2014).integers(0, 2**64 - 1, 3000, dtype=np.uint64)
# Scattered stream indices inside one chunk, like the pixels whose float64
# cosine synth_scene's exact fallback takes.
_INSIDE = np.sort(
    np.random.default_rng(2015).choice(
        np.arange(synth._CHUNK, 2 * synth._CHUNK, dtype=np.uint64), 17, replace=False
    )
)


def _uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """The library's uniforms at stream indices: its mixing, then ``_unit``."""
    idx = np.asarray(indices, dtype=np.uint64)
    golden = synth._GOLDEN
    z = synth._affine(idx, golden, seed + golden, np.empty(idx.shape, np.uint64))
    return synth._unit(synth._mix(z, np.empty_like(z)))


def _from_words(w1: int, w2: int) -> float:
    """Box-Muller of two SplitMix64 words, with numpy's log, sqrt and cos."""
    u1, u2 = (np.array([((w >> 11) + 1) * 2.0**-53]) for w in (w1, w2))
    return float((np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2))[0])


class TestSplitMix64:
    def test_published_seed_zero_vectors(self):
        # First three outputs of SplitMix64 seeded with 0, and the first
        # gaussian of seed 0, drawn from the first two.
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [ref_splitmix64(0, i) for i in range(3)] == published
        assert float(gaussian_stream(0, np.arange(1))[0]) == _from_words(*published[:2])

    def test_matches_pure_python_reference(self, rng):
        for _ in range(10):
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            indices = rng.integers(0, 2**40, 50, dtype=np.uint64)
            got = gaussian_stream(seed, indices)
            assert (got == ref_gaussian_numpy(seed, indices)).all()
            exact = [ref_gaussian(seed, int(i)) for i in indices]
            assert got.tolist() == pytest.approx(exact, rel=1e-14)

    def test_counter_based_random_access(self):
        # Any index is addressable directly; order of access is irrelevant.
        scattered = gaussian_stream(42, np.array([9, 3, 7]))
        sequential = gaussian_stream(42, np.arange(10))
        assert scattered.tolist() == sequential[[9, 3, 7]].tolist()

    def test_seed_range_validated(self):
        with pytest.raises(DomainError):
            gaussian_stream(-1, np.arange(2))
        with pytest.raises(DomainError):
            gaussian_stream(2**64, np.arange(2))

    def test_shape_preserved(self):
        out = gaussian_stream(1, np.arange(12).reshape(3, 4))
        assert out.shape == (3, 4)
        assert out.dtype == np.float64


class TestStreams:
    def test_uniform_in_half_open_unit_interval(self):
        u = _uniforms(7, np.arange(10000))
        assert (u > 0).all()
        assert (u <= 1).all()
        # The extreme words map to the ends of (0, 1].
        edges = synth._unit(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert edges.tolist() == [2.0**-53, 1.0]

    def test_uniform_matches_reference(self):
        u = _uniforms(123, np.arange(20))
        for i in range(20):
            assert float(u[i]) == ref_uniform(123, i)

    def test_gaussian_matches_reference(self):
        g = gaussian_stream(99, np.arange(30))
        for i in range(30):
            assert float(g[i]) == pytest.approx(ref_gaussian(99, i), rel=0, abs=0)

    @pytest.mark.parametrize(
        "seed,indices",
        [
            (99, np.arange(5, 2 * synth._CHUNK + 777 + 5)),  # > 2 chunks, partial last
            (99, _SPREAD),  # scattered, index * 2G wraps
            (99, np.arange(3 * synth._CHUNK)[::-7]),  # reversed, strided
            (99, np.arange(2 * synth._CHUNK + 30).reshape(2, -1)[:, 3:]),  # 2-D
            (99, np.arange(0)),
            (2**64 - 1, np.arange(2000)),  # seed + G wraps
            (99, _INSIDE[:1]),
            (99, _INSIDE[:3]),
            (99, _INSIDE[:7]),
            (99, _INSIDE),
        ],
        ids=[
            "chunks", "scattered", "reversed", "2d", "empty", "top-seed",
            "short-1", "short-3", "short-7", "short-17",
        ],
    )
    def test_gaussian_matches_reference_on_any_index_layout(self, seed, indices):
        got = gaussian_stream(seed, indices)
        assert got.shape == indices.shape and got.dtype == np.float64
        assert (got == ref_gaussian_numpy(seed, indices)).all()
        # numpy's log may differ from math.log in the last bit only.
        exact = np.array([ref_gaussian(seed, int(i)) for i in indices.reshape(-1)])
        err = np.abs(got.reshape(-1) - exact)
        assert (err <= 2 * np.spacing(np.abs(exact))).all()

    def test_float32_cosine_accuracy(self):
        # Parts 1 and 2 of the proof at synth._COS_ERR: the float32 cosine
        # of the float32-rounded angle stays within _COS_ERR / 8 of numpy's
        # float64 cosine, over 10^7 angles 2*pi*u of the uniform stream (in
        # blocks of 10^6) and the edge angles.
        worst = 0.0
        edges = np.array([2.0**-53, 0.25, 0.5, 0.75, 1.0])
        blocks = [edges] + [
            np.arange(k * 10**6, (k + 1) * 10**6, dtype=np.uint64) for k in range(10)
        ]
        for block in blocks:
            u = block if block is edges else _uniforms(2026, block)
            angle = u * (2.0 * math.pi)
            cos32 = np.cos(angle.astype(np.float32)).astype(np.float64)
            worst = max(worst, float(np.abs(cos32 - np.cos(angle)).max()))
        assert worst <= synth._COS_ERR / 8

    def test_gaussian_moments(self):
        g = gaussian_stream(5, np.arange(200000))
        assert abs(float(g.mean())) < 0.01
        assert abs(float(g.std()) - 1.0) < 0.01


def _painted(height: int, width: int, region) -> np.ndarray:
    """The pixels ``paint_labels`` gives ``region`` in a height x width scene."""
    spec = _one_class_spec(
        width=width,
        height=height,
        signatures=(ClassSignature("bg", (1.0,), (0.0,)), ClassSignature("r", (2.0,), (0.0,))),
        placements=(Placement(2, region),),
    )
    return synth.paint_labels(spec).labels == 2


class TestGeometry:
    def test_rectangle_mask(self):
        m = _painted(4, 6, Rectangle(1, 2, 2, 3))
        expected = np.zeros((4, 6), dtype=bool)
        expected[1:3, 2:5] = True
        assert np.array_equal(m, expected)

    def test_disk_masks(self):
        assert _painted(5, 5, Disk(2, 2, 0)).sum() == 1
        plus = _painted(5, 5, Disk(2, 2, 1))
        assert plus.sum() == 5  # center plus 4 neighbors
        assert plus[2, 2] and plus[1, 2] and plus[2, 1]
        assert not plus[1, 1]

    def test_masks_match_full_frame_formula(self):
        # Regions are painted inside their bounding box; that must equal the
        # formula evaluated over the whole frame, also for regions that
        # touch a scene edge. SceneSpec refuses regions reaching past one.
        rows, cols = np.indices((7, 9))
        for row, col, radius in [(3, 4, 2), (3, 4, 3), (2, 2, 2), (4, 6, 2), (3, 2, 0)]:
            expected = (rows - row) ** 2 + (cols - col) ** 2 <= radius * radius
            assert np.array_equal(_painted(7, 9, Disk(row, col, radius)), expected)
        for row, col, height, width in [
            (1, 2, 3, 4), (0, 0, 7, 9), (0, 0, 2, 3), (5, 6, 2, 3), (2, 0, 3, 9)
        ]:
            expected = (
                (rows >= row) & (rows < row + height) & (cols >= col) & (cols < col + width)
            )
            assert np.array_equal(_painted(7, 9, Rectangle(row, col, height, width)), expected)

    def test_rectangle_bounds_validation(self):
        Rectangle(0, 0, 4, 4).validate(4, 4)
        with pytest.raises(DomainError):
            Rectangle(1, 0, 4, 4).validate(4, 4)
        with pytest.raises(DomainError):
            Rectangle(0, 0, 0, 4).validate(4, 4)

    def test_disk_bounds_validation(self):
        Disk(2, 2, 2).validate(5, 5)
        with pytest.raises(DomainError):
            Disk(2, 2, 3).validate(5, 5)
        with pytest.raises(DomainError):
            Disk(0, 0, -1).validate(5, 5)


def _one_class_spec(**kw):
    defaults = dict(
        width=8,
        height=6,
        dtype="u8",
        seed=1,
        signatures=(ClassSignature("bg", (100.0,), (0.0,)),),
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


class TestSceneSpecValidation:
    def test_minimal_ok(self):
        spec = _one_class_spec()
        assert spec.n_bands == 1
        assert spec.n_classes == 1

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DomainError):
            _one_class_spec(width=0)
        with pytest.raises(DomainError):
            _one_class_spec(height=-2)

    def test_sample_budget(self):
        # width * height * bands may reach MAX_SCENE_SAMPLES, not exceed it.
        side = 2**14
        assert side * side == synth.MAX_SCENE_SAMPLES
        _one_class_spec(width=side, height=side)
        with pytest.raises(DomainError, match="budget"):
            _one_class_spec(width=side, height=side + 1)
        with pytest.raises(DomainError, match="budget"):
            _one_class_spec(
                width=side,
                height=side,
                signatures=(ClassSignature("x", (1.0, 1.0), (0.0, 0.0)),),
            )

    def test_rejects_bad_dtype_and_seed(self):
        with pytest.raises(DomainError):
            _one_class_spec(dtype="f32")
        with pytest.raises(DomainError):
            _one_class_spec(seed=2**64)

    def test_rejects_no_classes(self):
        with pytest.raises(DomainError):
            _one_class_spec(signatures=())

    @pytest.mark.parametrize("n_bands", [0, 256])
    def test_rejects_band_count_out_of_range(self, n_bands):
        sig = ClassSignature("x", (1.0,) * n_bands, (0.0,) * n_bands)
        with pytest.raises(DomainError, match=f"1..255 bands, got {n_bands}"):
            _one_class_spec(signatures=(sig,))

    def test_rejects_mean_outside_dtype(self):
        with pytest.raises(DomainError, match="mean"):
            _one_class_spec(signatures=(ClassSignature("x", (256.0,), (0.0,)),))
        _one_class_spec(
            dtype="u16", signatures=(ClassSignature("x", (256.0,), (0.0,)),)
        )

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError, match="sigma"):
            _one_class_spec(signatures=(ClassSignature("x", (1.0,), (-1.0,)),))

    def test_rejects_nan_sigma(self):
        with pytest.raises(DomainError, match="sigma nan"):
            _one_class_spec(signatures=(ClassSignature("x", (1.0,), (math.nan,)),))

    def test_accepts_infinite_sigma(self):
        _one_class_spec(signatures=(ClassSignature("x", (1.0,), (math.inf,)),))

    def test_rejects_ragged_signature(self):
        with pytest.raises(DomainError):
            _one_class_spec(signatures=(ClassSignature("x", (1.0, 2.0), (0.0,)),))

    def test_rejects_missing_signature_for_region(self):
        with pytest.raises(DomainError, match="no signature"):
            _one_class_spec(placements=(Placement(2, Rectangle(0, 0, 2, 2)),))

    def test_rejects_missing_background_signature(self):
        with pytest.raises(DomainError, match="background"):
            _one_class_spec(background_class=3)

    def test_rejects_out_of_bounds_region(self):
        with pytest.raises(DomainError, match="bounds"):
            _one_class_spec(placements=(Placement(1, Rectangle(0, 0, 7, 2)),))


class TestSynthScene:
    def test_bit_identical_reruns(self):
        spec = separable_scene_spec()
        img_a, truth_a = synth_scene(spec)
        img_b, truth_b = synth_scene(spec)
        assert np.array_equal(truth_a.labels, truth_b.labels)
        for a, b in zip(img_a.bands, img_b.bands):
            assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_pixels_not_truth(self):
        base = separable_scene_spec(seed=1)
        other = separable_scene_spec(seed=2)
        img_a, truth_a = synth_scene(base)
        img_b, truth_b = synth_scene(other)
        assert np.array_equal(truth_a.labels, truth_b.labels)
        assert not np.array_equal(img_a.bands[0].samples, img_b.bands[0].samples)

    def test_zero_noise_single_class_constant(self):
        spec = _one_class_spec(width=12, height=9)
        img, truth = synth_scene(spec)
        assert (img.bands[0].samples == 100).all()
        assert (truth.labels == 1).all()

        # and the smoothing template annihilates the constant scene
        out = convolve(img.bands[0], smoothing_template(), BoundaryMode.REPLICATE)
        assert not out.samples.any()

    def test_labels_in_the_dtype_of_the_largest_painted_label(self, monkeypatch):
        signatures = tuple(ClassSignature(f"c{k}", (1.0,), (0.0,)) for k in range(300))
        assert synth.paint_labels(_one_class_spec(signatures=signatures)).labels.dtype == np.uint8
        corner = Placement(300, Rectangle(0, 0, 1, 1))
        spec = _one_class_spec(signatures=signatures, placements=(corner,))
        labels = synth.paint_labels(spec).labels
        assert labels.dtype == np.uint16
        assert labels[0, 0] == 300 and labels[0, 1] == 1
        # A label no PGM band holds is refused before any band is rendered.
        signatures = tuple(ClassSignature(f"c{k}", (1.0,), (0.0,)) for k in range(65536))
        spec = _one_class_spec(signatures=signatures, background_class=65536)
        monkeypatch.setattr(synth, "_band_renderer", None)
        with pytest.raises(DomainError, match="^label 65536 does not fit a u16 band$"):
            synth_scene(spec)

    def test_zero_noise_truth_geometry(self):
        spec = SceneSpec(
            width=20,
            height=16,
            dtype="u8",
            seed=5,
            signatures=(
                ClassSignature("bg", (10.0,), (0.0,)),
                ClassSignature("box", (100.0,), (0.0,)),
                ClassSignature("spot", (200.0,), (0.0,)),
            ),
            placements=(
                Placement(2, Rectangle(2, 3, 5, 7)),
                Placement(3, Disk(10, 12, 3)),
            ),
        )
        img, truth = synth_scene(spec)
        rows, cols = np.indices((16, 20))
        expected = np.ones((16, 20), dtype=np.int32)
        expected[2:7, 3:10] = 2
        expected[(rows - 10) ** 2 + (cols - 12) ** 2 <= 9] = 3
        assert np.array_equal(truth.labels, expected)
        assert (img.bands[0].samples[truth.labels == 2] == 100).all()
        assert (img.bands[0].samples[truth.labels == 3] == 200).all()

    def test_later_regions_overwrite_earlier(self):
        spec = SceneSpec(
            width=6,
            height=6,
            dtype="u8",
            seed=0,
            signatures=(
                ClassSignature("bg", (0.0,), (0.0,)),
                ClassSignature("a", (50.0,), (0.0,)),
                ClassSignature("b", (99.0,), (0.0,)),
            ),
            placements=(
                Placement(2, Rectangle(0, 0, 4, 4)),
                Placement(3, Rectangle(2, 2, 4, 4)),
            ),
        )
        _, truth = synth_scene(spec)
        assert truth.labels[3, 3] == 3
        assert truth.labels[0, 0] == 2

    def test_truth_partitions_frame(self):
        _, truth = synth_scene(separable_scene_spec())
        assert (truth.labels >= 1).all()

    def test_pixel_values_match_reference_stream(self):
        # Strong oracle: recompute every pixel from the documented stream
        # layout with the pure-Python PRNG. The second scene's values fall
        # below 0 and above dtype_max before the clamp.
        clamped = SceneSpec(
            width=16,
            height=12,
            dtype="u16",
            seed=31337,
            signatures=(
                ClassSignature("dark", (40.0, 65400.0), (900.0, 900.0)),
                ClassSignature("bright", (65500.0, 30.0), (900.0, 900.0)),
            ),
            placements=(Placement(2, Rectangle(2, 3, 6, 8)),),
        )
        # Each band spans one full chunk and a partial second one.
        chunked = SceneSpec(
            width=97,
            height=synth._CHUNK // 97 + 13,
            dtype="u16",
            seed=2**64 - 5,
            signatures=(
                ClassSignature("plain", (3000.0, 41000.0), (250.0, 70.0)),
                ClassSignature("pond", (52000.0, 900.0), (400.0, 35.0)),
            ),
            placements=(
                Placement(2, Disk(120, 40, 33)),
                Placement(2, Rectangle(10, 60, 150, 20)),
            ),
        )
        n_pixels = chunked.width * chunked.height
        assert synth._CHUNK < n_pixels < 2 * synth._CHUNK
        for spec in (separable_scene_spec(seed=31337), chunked, clamped):
            img, truth = synth_scene(spec)
            h, w = spec.height, spec.width
            top = 255 if spec.dtype == "u8" else 65535
            expected = np.empty((spec.n_bands, h, w), dtype=np.int64)
            unclamped = []
            for band, row, col in np.ndindex(expected.shape):
                sig = spec.signatures[int(truth.labels[row, col]) - 1]
                g = ref_gaussian(spec.seed, band * h * w + row * w + col)
                value = sig.means[band] + sig.sigmas[band] * g
                rounded = math.floor(value + 0.5) if value >= 0 else math.ceil(value - 0.5)
                unclamped.append(rounded)
                expected[band, row, col] = min(max(rounded, 0), top)
            got = np.stack([b.samples for b in img.bands])
            assert (got == expected).all()
        assert min(unclamped) < 0 and max(unclamped) > top

    def test_peak_memory_below_one_float64_frame_over_result(self):
        # Rendering keeps no full-frame temporaries: tracemalloc's peak (it
        # counts numpy buffers) stays below the memory the result keeps plus
        # one float64 frame, 8 bytes per pixel.
        spec = SceneSpec(
            width=1024,
            height=1024,
            dtype="u8",
            seed=11,
            signatures=(
                ClassSignature("bg", (60.0, 90.0), (4.0, 4.0)),
                ClassSignature("disk", (180.0, 30.0), (6.0, 6.0)),
            ),
            placements=(Placement(2, Disk(512, 512, 300)),),
        )
        tracemalloc.start()
        try:
            image, truth = synth_scene(spec)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pixels = 1024 * 1024
        assert retained >= 3 * pixels  # u8 labels plus two u8 bands
        assert peak < retained + 8 * pixels

    def test_region_means_near_signature(self):
        spec = separable_scene_spec()
        img, truth = synth_scene(spec)
        for label, sig in enumerate(spec.signatures, start=1):
            mask = truth.labels == label
            n = int(mask.sum())
            for b in range(spec.n_bands):
                sample_mean = float(img.bands[b].samples[mask].mean())
                assert abs(sample_mean - sig.means[b]) <= 3 * sig.sigmas[b] / math.sqrt(n)

    def test_rounding_ties_away_from_zero(self):
        spec = _one_class_spec(
            signatures=(ClassSignature("half", (10.5,), (0.0,)),)
        )
        img, _ = synth_scene(spec)
        assert (img.bands[0].samples == 11).all()

    def test_clamped_to_dtype(self):
        spec = _one_class_spec(
            width=40,
            height=40,
            signatures=(ClassSignature("hot", (250.0,), (30.0,)),),
        )
        img, _ = synth_scene(spec)
        values = img.bands[0].samples
        assert values.max() == 255  # clipping engaged
        assert values.min() >= 0

    def test_u16_scene(self):
        spec = _one_class_spec(
            dtype="u16",
            signatures=(ClassSignature("deep", (40000.0, 100.0), (50.0, 3.0)),),
        )
        img, _ = synth_scene(spec)
        assert img.dtype == "u16"
        assert 39000 < float(img.bands[0].samples.mean()) < 41000


@st.composite
def _scene_specs(draw):
    dtype = draw(st.sampled_from(["u8", "u16"]))
    top = 255 if dtype == "u8" else 65535
    n_bands = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 5))
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    sigma = st.one_of(
        st.just(0.0), st.floats(0, 4), st.floats(0, 100), st.floats(0, top)
    )
    mean = st.one_of(
        st.integers(0, top).map(float),
        st.integers(0, top - 1).map(lambda v: v + 0.5),
        st.floats(0, top),
    )
    signatures = tuple(
        ClassSignature(
            f"c{c}",
            tuple(draw(mean) for _ in range(n_bands)),
            tuple(draw(sigma) for _ in range(n_bands)),
        )
        for c in range(n_classes)
    )
    placements = []
    for _ in range(draw(st.integers(0, 3))):
        row, col = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        size = (draw(st.integers(1, height - row)), draw(st.integers(1, width - col)))
        placements.append(
            Placement(draw(st.integers(1, n_classes)), Rectangle(row, col, *size))
        )
    return SceneSpec(
        width=width,
        height=height,
        dtype=dtype,
        seed=draw(st.integers(0, 2**64 - 1)),
        signatures=signatures,
        placements=tuple(placements),
    )


def _assert_equals_oracle(spec):
    image, _ = synth_scene(spec)
    for got, expected in zip(image.bands, oracle_synth_scene(spec), strict=True):
        assert np.array_equal(got.samples, expected)


# Both bands span two chunks, the second one partial, and values fall
# below 0 and above 65535 before the clamp.
_WIDE_SPEC = SceneSpec(
    width=97,
    height=181,
    dtype="u16",
    seed=2**64 - 5,
    signatures=(
        ClassSignature("plain", (3000.0, 65300.0), (250.0, 700.0)),
        ClassSignature("pond", (120.0, 900.0), (400.0, 35.0)),
    ),
    placements=(Placement(2, Disk(120, 40, 33)),),
)


class TestFilteredCosine:
    """synth_scene's float32 cosine filter gives the float64 formula's bytes."""

    @given(_scene_specs())
    @settings(max_examples=150, deadline=None)
    def test_equals_float64_oracle(self, spec):
        _assert_equals_oracle(spec)

    def test_infinite_sigma(self):
        spec = _one_class_spec(
            width=30,
            height=20,
            signatures=(
                ClassSignature("flat", (1.0, 100.0), (math.inf, 3.0)),
                ClassSignature("wild", (200.0, 7.5), (2.0, math.inf)),
            ),
            placements=(Placement(2, Rectangle(5, 5, 10, 20)),),
        )
        _assert_equals_oracle(spec)

    def test_exact_fallback_at_sigma_near_dtype_max(self):
        # A sigma of 65,000 leaves every pixel in doubt, so the exact
        # fallback renders them all. Rounding the angle to float32 there
        # moves sigma * g by up to a few hundredths, which moves 6 floors in
        # each band of this scene: only the float64 formula passes.
        spec = _one_class_spec(
            width=64,
            height=64,
            dtype="u16",
            seed=65535,
            signatures=(ClassSignature("wide", (32768.0, 30000.5), (65000.0, 65535.0)),),
        )
        _assert_equals_oracle(spec)

    @pytest.mark.parametrize("cos_err", [synth._COS_ERR, math.inf], ids=["real", "forced"])
    def test_fallback_at_real_and_forced_bound(self, monkeypatch, cos_err):
        monkeypatch.setattr(synth, "_COS_ERR", cos_err)
        redone = [0]  # pixels given the float64 cosine
        cos64 = synth._cos64

        def spy(radius, angle):
            redone[0] += len(radius)
            return cos64(radius, angle)

        monkeypatch.setattr(synth, "_cos64", spy)
        _assert_equals_oracle(_WIDE_SPEC)
        n_samples = _WIDE_SPEC.width * _WIDE_SPEC.height * _WIDE_SPEC.n_bands
        if cos_err == math.inf:
            assert redone[0] == n_samples
        else:
            # Band bounds of 0.013 and 0.023: a few percent of pixels fall back.
            assert 0 < redone[0] < n_samples // 10


# scene_spec_to_json of the spec in TestSceneSpecJson.test_writer_layout:
# top-level keys, then each class and each region (shape, class, then its
# geometry) in a fixed order, indented by two spaces.
SPEC_TEXT = """\
{
  "width": 9,
  "height": 7,
  "dtype": "u8",
  "seed": 12,
  "background_class": 2,
  "classes": [
    {
      "name": "water",
      "means": [
        10.0,
        20.5
      ],
      "sigmas": [
        1.0,
        0.0
      ]
    },
    {
      "name": "field",
      "means": [
        200.0,
        150.0
      ],
      "sigmas": [
        2.5,
        3.0
      ]
    }
  ],
  "regions": [
    {
      "shape": "rect",
      "class": 1,
      "row": 1,
      "col": 2,
      "height": 3,
      "width": 4
    },
    {
      "shape": "disk",
      "class": 2,
      "row": 3,
      "col": 4,
      "radius": 2
    }
  ]
}
"""


class TestSceneSpecJson:
    def test_roundtrip(self):
        spec = SceneSpec(
            width=10,
            height=12,
            dtype="u16",
            seed=77,
            signatures=(
                ClassSignature("bg", (5.0, 6.0), (1.0, 0.5)),
                ClassSignature("fg", (500.0, 600.0), (2.0, 2.5)),
            ),
            placements=(
                Placement(2, Rectangle(1, 1, 3, 3)),
                Placement(2, Disk(8, 5, 2)),
            ),
            background_class=1,
        )
        assert scene_spec_from_json(scene_spec_to_json(spec)) == spec

    def test_writer_layout(self):
        spec = SceneSpec(
            width=9,
            height=7,
            dtype="u8",
            seed=12,
            signatures=(
                ClassSignature("water", (10.0, 20.5), (1.0, 0.0)),
                ClassSignature("field", (200.0, 150.0), (2.5, 3.0)),
            ),
            placements=(
                Placement(1, Rectangle(1, 2, 3, 4)),
                Placement(2, Disk(3, 4, 2)),
            ),
            background_class=2,
        )
        assert scene_spec_to_json(spec) == SPEC_TEXT

    def test_background_defaults_to_one(self):
        doc = """{"width": 4, "height": 4, "dtype": "u8", "seed": 3,
                  "classes": [{"name": "x", "means": [9], "sigmas": [0]}]}"""
        assert scene_spec_from_json(doc).background_class == 1

    def test_parse_errors(self):
        with pytest.raises(FileFormatError):
            scene_spec_from_json("{nope")
        with pytest.raises(FileFormatError):
            scene_spec_from_json("[1, 2]")
        with pytest.raises(FileFormatError, match="missing"):
            scene_spec_from_json('{"width": 4}')
        with pytest.raises(FileFormatError, match="type|number"):
            scene_spec_from_json(
                '{"width": "four", "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [1], "sigmas": [0]}]}'
            )
        with pytest.raises(FileFormatError, match="shape"):
            scene_spec_from_json(
                '{"width": 4, "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [1], "sigmas": [0]}],'
                ' "regions": [{"shape": "triangle", "class": 1}]}'
            )
        with pytest.raises(FileFormatError, match="integer"):
            scene_spec_from_json(
                '{"width": 4, "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [1], "sigmas": [0]}],'
                ' "regions": [{"shape": "rect", "class": 1, "row": 0.5,'
                ' "col": 0, "height": 1, "width": 1}]}'
            )
        with pytest.raises(FileFormatError, match="regions"):
            scene_spec_from_json(
                '{"width": 4, "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [1], "sigmas": [0]}],'
                ' "regions": 5}'
            )
        with pytest.raises(FileFormatError, match="background_class"):
            scene_spec_from_json(
                '{"width": 4, "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [1], "sigmas": [0]}],'
                ' "background_class": true}'
            )

    @pytest.mark.parametrize(
        "classes, regions, message",
        [
            ([5], [], "each class must be an object"),
            ([{"name": "x", "means": [1]}], [], "class entry is missing 'sigmas'"),
            ([{"means": [1], "sigmas": [0]}], [], "class entry is missing 'name'"),
            ([{"name": "x", "means": 1, "sigmas": [0]}], [], "must be arrays"),
            ([{"name": "x", "means": [1], "sigmas": {}}], [], "must be arrays"),
            ([{"name": "x", "means": ["1"], "sigmas": [0]}], [], "must be numbers"),
            ([{"name": "x", "means": [1], "sigmas": [False]}], [], "must be numbers"),
            (None, [3], "each region needs 'shape' and 'class'"),
            (None, [{"class": 1, "row": 0}], "each region needs 'shape' and 'class'"),
            (None, [{"shape": "rect", "row": 0}], "each region needs 'shape' and 'class'"),
            (None, [{"shape": ["rect"], "class": 1}], r"unknown region shape \['rect'\]"),
            (None, [{"shape": 3, "class": 1}], "unknown region shape 3"),
            (None, [{"shape": "disk", "class": 1, "row": 1, "col": 1}],
             "region is missing integer 'radius'"),
            (None, [{"shape": "rect", "class": 1, "row": 0, "col": 0, "height": 1}],
             "region is missing integer 'width'"),
        ],
        ids=["class-not-object", "no-sigmas", "no-name", "means-not-list",
             "sigmas-not-list", "mean-not-number", "sigma-bool", "region-not-object",
             "region-no-shape", "region-no-class", "shape-list", "shape-number",
             "disk-no-radius", "rect-no-width"],
    )
    def test_malformed_class_or_region(self, classes, regions, message):
        doc = {"width": 4, "height": 4, "dtype": "u8", "seed": 0,
               "classes": classes or [{"name": "x", "means": [1], "sigmas": [0]}],
               "regions": regions}
        with pytest.raises(FileFormatError, match=message):
            scene_spec_from_json(json.dumps(doc))

    def test_semantic_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            scene_spec_from_json(
                '{"width": 4, "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [300], "sigmas": [0]}]}'
            )
