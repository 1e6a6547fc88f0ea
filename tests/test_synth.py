import math

import numpy as np
import pytest

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
    splitmix64,
    synth_scene,
    uniform_stream,
)
from conftest import ref_gaussian, ref_splitmix64, ref_uniform, separable_scene_spec


class TestSplitMix64:
    def test_published_seed_zero_vectors(self):
        # First three outputs of SplitMix64 seeded with 0.
        got = [int(v) for v in splitmix64(0, np.arange(3))]
        assert got == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_matches_pure_python_reference(self, rng):
        for _ in range(10):
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            indices = rng.integers(0, 2**40, 50, dtype=np.uint64)
            got = splitmix64(seed, indices)
            for idx, value in zip(indices, got):
                assert int(value) == ref_splitmix64(seed, int(idx))

    def test_counter_based_random_access(self):
        # Any index is addressable directly; order of access is irrelevant.
        scattered = splitmix64(42, np.array([9, 3, 7]))
        sequential = splitmix64(42, np.arange(10))
        assert int(scattered[0]) == int(sequential[9])
        assert int(scattered[1]) == int(sequential[3])
        assert int(scattered[2]) == int(sequential[7])

    def test_seed_range_validated(self):
        with pytest.raises(DomainError):
            splitmix64(-1, np.arange(2))
        with pytest.raises(DomainError):
            splitmix64(2**64, np.arange(2))

    def test_shape_preserved(self):
        out = splitmix64(1, np.arange(12).reshape(3, 4))
        assert out.shape == (3, 4)
        assert out.dtype == np.uint64


class TestStreams:
    def test_uniform_in_half_open_unit_interval(self):
        u = uniform_stream(7, np.arange(10000))
        assert (u > 0).all()
        assert (u <= 1).all()

    def test_uniform_matches_reference(self):
        u = uniform_stream(123, np.arange(20))
        for i in range(20):
            assert float(u[i]) == ref_uniform(123, i)

    def test_gaussian_matches_reference(self):
        g = gaussian_stream(99, np.arange(30))
        for i in range(30):
            assert float(g[i]) == pytest.approx(ref_gaussian(99, i), rel=0, abs=0)

    def test_gaussian_moments(self):
        g = gaussian_stream(5, np.arange(200000))
        assert abs(float(g.mean())) < 0.01
        assert abs(float(g.std()) - 1.0) < 0.01


class TestGeometry:
    def test_rectangle_mask(self):
        m = Rectangle(1, 2, 2, 3).mask(4, 6)
        expected = np.zeros((4, 6), dtype=bool)
        expected[1:3, 2:5] = True
        assert np.array_equal(m, expected)

    def test_disk_masks(self):
        assert Disk(2, 2, 0).mask(5, 5).sum() == 1
        plus = Disk(2, 2, 1).mask(5, 5)
        assert plus.sum() == 5  # center plus 4 neighbors
        assert plus[2, 2] and plus[1, 2] and plus[2, 1]
        assert not plus[1, 1]

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

    def test_rejects_bad_dtype_and_seed(self):
        with pytest.raises(DomainError):
            _one_class_spec(dtype="f32")
        with pytest.raises(DomainError):
            _one_class_spec(seed=2**64)

    def test_rejects_no_classes(self):
        with pytest.raises(DomainError):
            _one_class_spec(signatures=())

    def test_rejects_mean_outside_dtype(self):
        with pytest.raises(DomainError, match="mean"):
            _one_class_spec(signatures=(ClassSignature("x", (256.0,), (0.0,)),))
        _one_class_spec(
            dtype="u16", signatures=(ClassSignature("x", (256.0,), (0.0,)),)
        )

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError, match="sigma"):
            _one_class_spec(signatures=(ClassSignature("x", (1.0,), (-1.0,)),))

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
        rect = Rectangle(2, 3, 5, 7).mask(16, 20)
        disk = Disk(10, 12, 3).mask(16, 20)
        expected = np.ones((16, 20), dtype=np.int32)
        expected[rect] = 2
        expected[disk] = 3
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
        for spec in (separable_scene_spec(seed=31337), clamped):
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

    def test_semantic_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            scene_spec_from_json(
                '{"width": 4, "height": 4, "dtype": "u8", "seed": 0,'
                ' "classes": [{"name": "x", "means": [300], "sigmas": [0]}]}'
            )
