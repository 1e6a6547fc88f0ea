import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gstk import (
    Band,
    ClassificationMap,
    DomainError,
    FileFormatError,
    MultibandImage,
    ResponseField,
    StretchMode,
    bsq_paths,
    read_bsq,
    read_pgm,
    stretch,
    write_bsq,
    write_pgm,
)
from conftest import (
    eight_pass_stretch,
    oracle_stretch,
    random_band,
    random_image,
    traced_peak,
    type7_percentile,
)


class TestBand:
    def test_accepts_u8_and_u16(self):
        Band(np.zeros((2, 3), dtype=np.uint8))
        Band(np.zeros((2, 3), dtype=np.uint16))

    def test_rejects_other_dtypes(self):
        for dtype in (np.int32, np.float64, np.uint32, np.int8):
            with pytest.raises(DomainError):
                Band(np.zeros((2, 2), dtype=dtype))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DomainError):
            Band(np.zeros(4, dtype=np.uint8))
        with pytest.raises(DomainError):
            Band(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_properties(self):
        b = Band(np.zeros((3, 5), dtype=np.uint16))
        assert (b.width, b.height) == (5, 3)
        assert b.dtype == "u16"
        assert b.dtype_max == 65535

    def test_samples_are_immutable(self):
        b = Band(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            b.samples[0, 0] = 1

    def test_does_not_alias_caller_array(self):
        src = np.zeros((2, 2), dtype=np.uint8)
        b = Band(src)
        src[0, 0] = 9
        assert b.samples[0, 0] == 0

    def test_keeps_read_only_array(self):
        src = np.zeros((2, 2), dtype=np.uint8)
        src.setflags(write=False)
        assert Band(src).samples is src


class TestMultibandImage:
    def test_band_count_limits(self):
        b = Band(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(DomainError):
            MultibandImage(())
        MultibandImage((b,) * 255)
        with pytest.raises(DomainError):
            MultibandImage((b,) * 256)

    def test_rejects_mismatched_bands(self):
        a = Band(np.zeros((2, 2), dtype=np.uint8))
        wrong_shape = Band(np.zeros((2, 3), dtype=np.uint8))
        wrong_dtype = Band(np.zeros((2, 2), dtype=np.uint16))
        with pytest.raises(DomainError):
            MultibandImage((a, wrong_shape))
        with pytest.raises(DomainError):
            MultibandImage((a, wrong_dtype))

    def test_names(self):
        b = Band(np.zeros((2, 2), dtype=np.uint8))
        img = MultibandImage((b, b, b))
        assert [img.name_of(i) for i in range(3)] == ["band 1", "band 2", "band 3"]


class TestResponseField:
    def test_requires_int32(self):
        ResponseField(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(DomainError):
            ResponseField(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(DomainError):
            ResponseField(np.zeros((2, 2), dtype=np.uint8))

    def test_requires_2d(self):
        with pytest.raises(DomainError):
            ResponseField(np.zeros(4, dtype=np.int32))

    def test_does_not_alias_caller_array(self):
        src = np.zeros((2, 2), dtype=np.int32)
        field = ResponseField(src)
        src[0, 0] = 9
        assert field.samples[0, 0] == 0


@pytest.mark.parametrize("height, width", [(0, 3), (3, 0)])
@pytest.mark.parametrize(
    "container, dtype",
    [(Band, np.uint8), (ResponseField, np.int32), (ClassificationMap, np.int32)],
    ids=["Band", "ResponseField", "ClassificationMap"],
)
def test_containers_refuse_empty(container, dtype, height, width):
    with pytest.raises(DomainError, match=rf"empty \({width}x{height} pixels\)"):
        container(np.zeros((height, width), dtype=dtype))


class TestPgm:
    def test_minimal_u8_file(self):
        band = read_pgm(b"P5\n1 1\n255\n\x7f")
        assert band.dtype == "u8"
        assert band.samples[0, 0] == 127

    def test_u16_big_endian_golden(self):
        # Hand-assembled: samples 1, 258, 515, 65535 as big-endian pairs.
        payload = bytes([0, 1, 1, 2, 2, 3, 255, 255])
        band = read_pgm(b"P5\n2 2\n65535\n" + payload)
        assert band.dtype == "u16"
        assert band.samples.tolist() == [[1, 258], [515, 65535]]
        assert write_pgm(band) == b"P5\n2 2\n65535\n" + payload

    def test_u16_samples_converted_once(self, rng):
        band = random_band(rng, 512, 512, "u16")
        read, peak = traced_peak(read_pgm, write_pgm(band))
        assert np.array_equal(read.samples, band.samples)
        assert peak < 1.5 * band.samples.nbytes

    def test_canonical_header(self):
        band = Band(np.zeros((3, 2), dtype=np.uint8))
        assert write_pgm(band).startswith(b"P5\n2 3\n255\n")

    def test_header_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n 2\t1 # width and height\n255\n\x01\x02"
        band = read_pgm(data)
        assert band.samples.tolist() == [[1, 2]]

    def test_maxval_256_boundary(self):
        assert read_pgm(b"P5\n1 1\n255\n\xff").dtype == "u8"
        assert read_pgm(b"P5\n1 1\n256\n\x00\xff").dtype == "u16"

    def test_bad_magic(self):
        with pytest.raises(FileFormatError, match="magic"):
            read_pgm(b"P6\n1 1\n255\n\x00")
        with pytest.raises(FileFormatError, match="magic"):
            read_pgm(b"")

    def test_bad_maxval(self):
        with pytest.raises(FileFormatError, match="maxval"):
            read_pgm(b"P5\n1 1\n0\n\x00")
        with pytest.raises(FileFormatError, match="maxval"):
            read_pgm(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(FileFormatError, match="whitespace after PGM maxval"):
            read_pgm(b"P5\n1 1\n255# comment\n\x00")

    def test_truncated_header(self):
        with pytest.raises(FileFormatError):
            read_pgm(b"P5\n1 1")
        with pytest.raises(FileFormatError):
            read_pgm(b"P5\n")

    def test_non_numeric_token(self):
        with pytest.raises(FileFormatError, match="non-numeric"):
            read_pgm(b"P5\nx 1\n255\n\x00")

    def test_truncated_payload(self):
        with pytest.raises(FileFormatError, match="truncated"):
            read_pgm(b"P5\n2 2\n255\n\x00\x00\x00")

    def test_trailing_garbage(self):
        with pytest.raises(FileFormatError, match="trailing"):
            read_pgm(b"P5\n1 1\n255\n\x00\x00")

    def test_roundtrip_seeded(self, rng):
        for dtype in ("u8", "u16"):
            for _ in range(10):
                h = int(rng.integers(1, 18))
                w = int(rng.integers(1, 18))
                band = random_band(rng, h, w, dtype)
                back = read_pgm(write_pgm(band))
                assert back.dtype == band.dtype
                assert np.array_equal(back.samples, band.samples)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from(["u8", "u16"]),
        st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, h, w, dtype, seed):
        band = random_band(np.random.default_rng(seed), h, w, dtype)
        assert np.array_equal(read_pgm(write_pgm(band)).samples, band.samples)


class TestBsq:
    def test_seven_band_golden_payload(self):
        bands = tuple(
            Band(np.full((2, 2), 10 * b, dtype=np.uint8)) for b in range(7)
        )
        header, payload = write_bsq(MultibandImage(bands))
        assert len(payload) == 28
        assert payload == bytes([0] * 4 + [10] * 4 + [20] * 4 + [30] * 4
                                + [40] * 4 + [50] * 4 + [60] * 4)
        assert header == (
            "magic=GSTK1\nwidth=2\nheight=2\nbands=7\ndtype=u8\nbyteorder=le\n"
        )

    def test_u16_little_endian_golden(self):
        img = MultibandImage((Band(np.array([[1, 258]], dtype=np.uint16)),))
        _, payload = write_bsq(img)
        assert payload == b"\x01\x00\x02\x01"

    def test_roundtrip_seeded(self, rng):
        for dtype in ("u8", "u16"):
            for _ in range(8):
                img = random_image(
                    rng, int(rng.integers(1, 8)), int(rng.integers(1, 9)),
                    int(rng.integers(1, 9)), dtype,
                )
                header, payload = write_bsq(img)
                back = read_bsq(header, payload)
                assert back.n_bands == img.n_bands
                for a, b in zip(back.bands, img.bands):
                    assert np.array_equal(a.samples, b.samples)

    def test_payload_converted_once(self, rng):
        image = random_image(rng, 4, 256, 256, "u16")
        header, payload = write_bsq(image)
        read, peak = traced_peak(read_bsq, header, payload)
        assert write_bsq(read) == (header, payload)
        assert peak < 1.5 * len(payload)

    @pytest.mark.parametrize(
        "dtype",
        [
            "u8",
            pytest.param(
                "u16",
                marks=pytest.mark.skipif(
                    sys.byteorder != "little", reason="u16 payloads are little-endian"
                ),
            ),
        ],
    )
    def test_bytes_payload_is_viewed_not_copied(self, rng, dtype):
        image = random_image(rng, 4, 256, 256, dtype)
        header, payload = write_bsq(image)
        read, peak = traced_peak(read_bsq, header, payload)
        for band in read.bands:
            assert np.shares_memory(band.samples, np.frombuffer(payload, np.uint8))
        assert peak < 0.1 * len(payload)
        assert write_bsq(read) == (header, payload)

    def test_writable_payload_is_copied(self, rng):
        image = random_image(rng, 3, 5, 7, "u16")
        header, payload = write_bsq(image)
        buffer = bytearray(payload)
        read = read_bsq(header, buffer)
        buffer[:] = bytes(len(buffer))
        for got, band in zip(read.bands, image.bands):
            assert np.array_equal(got.samples, band.samples)

    def test_single_band_bsq_pgm_agree(self, rng):
        band = random_band(rng, 5, 7, "u16")
        header, payload = write_bsq(MultibandImage((band,)))
        via_bsq = read_bsq(header, payload).bands[0]
        via_pgm = read_pgm(write_pgm(band))
        assert np.array_equal(via_bsq.samples, via_pgm.samples)

    def test_header_blank_lines_ok(self):
        header = "magic=GSTK1\n\nwidth=1\nheight=1\nbands=1\ndtype=u8\nbyteorder=le\n"
        img = read_bsq(header, b"\x05")
        assert img.bands[0].samples[0, 0] == 5

    def _header(self, **overrides):
        fields = {
            "magic": "GSTK1", "width": 2, "height": 1, "bands": 1,
            "dtype": "u8", "byteorder": "le",
        }
        fields.update(overrides)
        return "".join(f"{k}={v}\n" for k, v in fields.items())

    def test_bad_magic(self):
        with pytest.raises(FileFormatError, match="magic"):
            read_bsq(self._header(magic="GSTK2"), b"\x00\x00")

    def test_unknown_key(self):
        with pytest.raises(FileFormatError, match="unknown key"):
            read_bsq(self._header() + "compression=none\n", b"\x00\x00")

    def test_duplicate_key(self):
        with pytest.raises(FileFormatError, match="duplicate"):
            read_bsq(self._header() + "width=2\n", b"\x00\x00")

    def test_missing_key(self):
        header = self._header().replace("byteorder=le\n", "")
        with pytest.raises(FileFormatError, match="missing"):
            read_bsq(header, b"\x00\x00")

    def test_not_key_value(self):
        with pytest.raises(FileFormatError, match="key=value"):
            read_bsq("magic GSTK1\n" + self._header(), b"\x00\x00")

    def test_bad_dtype(self):
        with pytest.raises(FileFormatError, match="dtype"):
            read_bsq(self._header(dtype="f32"), b"\x00\x00")

    def test_bad_byteorder(self):
        with pytest.raises(FileFormatError, match="byteorder"):
            read_bsq(self._header(byteorder="be"), b"\x00\x00")

    def test_non_integer_dimension(self):
        with pytest.raises(FileFormatError, match="integer"):
            read_bsq(self._header(width="two"), b"\x00\x00")

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_negative_dimension(self, key):
        with pytest.raises(FileFormatError, match="non-negative"):
            read_bsq(self._header(**{key: -2}), b"")

    def test_band_count_range(self):
        with pytest.raises(FileFormatError, match="band count"):
            read_bsq(self._header(bands=0), b"")
        with pytest.raises(FileFormatError, match="band count"):
            read_bsq(self._header(bands=256), b"\x00" * 512)

    def test_payload_length_mismatch(self):
        with pytest.raises(FileFormatError, match="payload length"):
            read_bsq(self._header(), b"\x00")  # short
        with pytest.raises(FileFormatError, match="payload length"):
            read_bsq(self._header(), b"\x00\x00\x00")  # long

    def test_bsq_paths(self):
        assert bsq_paths("scene.hdr") == ("scene.hdr", "scene.bsq")
        assert bsq_paths("scene.bsq") == ("scene.hdr", "scene.bsq")
        assert bsq_paths("scene") == ("scene.hdr", "scene.bsq")
        assert bsq_paths("dir/a.b") == ("dir/a.b.hdr", "dir/a.b.bsq")


# The module, not the function that ``gstk.stretch`` resolves to.
RASTER = sys.modules["gstk.raster"]

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1

# Sample ranges for stretch fields: magnitudes below 2^14 are ranked by one
# level of counts, wider ones by two.
_STRETCH_RANGES = st.sampled_from(
    [(0, 0), (-1, 1), (-7, 7), (-300, 300), (0, 70000), (_INT32_MIN, _INT32_MAX)]
)
_PERCENTILES = st.one_of(
    st.just(0.0), st.just(100.0), st.floats(0.0, 100.0, allow_nan=False)
)


@st.composite
def _stretch_cases(draw):
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    lo, hi = draw(_STRETCH_RANGES)
    elements = st.integers(lo, hi)
    if draw(st.booleans()):
        elements = st.one_of(elements, st.sampled_from([_INT32_MIN, _INT32_MAX, 0]))
    n = height * width
    samples = draw(st.lists(elements, min_size=n, max_size=n))
    p, q = sorted((draw(_PERCENTILES), draw(_PERCENTILES)))
    if p == q:
        p, q = (p, 100.0) if p < 100.0 else (0.0, q)
    return np.array(samples, dtype=np.int32).reshape(height, width), p, q


def _check_against_oracle(values, lo_pct, hi_pct):
    field = ResponseField(values)
    for mode in StretchMode:
        expected = oracle_stretch(values, mode.value, lo_pct, hi_pct)
        if expected is None:
            with pytest.raises(DomainError, match="too narrow"):
                stretch(field, mode, lo_pct, hi_pct)
            continue
        out = stretch(field, mode, lo_pct, hi_pct).samples
        assert out.tolist() == expected.tolist(), (mode, lo_pct, hi_pct)
    # The clip points, the library's and the oracle's, are numpy's
    # ``linear`` percentiles of the float64 magnitudes.
    flat = values.ravel()
    mags = np.abs(flat.astype(np.float64))
    ranked = sorted(abs(int(v)) for v in flat)
    top = max(ranked)
    clips = RASTER._magnitude_percentiles(flat, top, (float(lo_pct), float(hi_pct)))
    for pct, clip in zip((lo_pct, hi_pct), clips):
        assert clip == type7_percentile(ranked, pct) == float(np.percentile(mags, pct))


# Fields for the map: int32 extremes, constant fields, single pixels.
_MAP_VALUES = st.one_of(
    st.integers(_INT32_MIN, _INT32_MAX),
    st.integers(-300, 300),
    st.sampled_from([_INT32_MIN, _INT32_MIN + 1, _INT32_MAX - 1, _INT32_MAX, 0]),
)


@st.composite
def _map_cases(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = height * width
    if draw(st.booleans()):
        samples = [draw(_MAP_VALUES)] * n
    else:
        samples = draw(st.lists(_MAP_VALUES, min_size=n, max_size=n))
    # Wide windows, and narrow ones down to one float apart.
    p = draw(st.floats(0.0, 99.0))
    q = draw(
        st.one_of(
            st.floats(p, 100.0),
            st.just(math.nextafter(p, 100.0)),
            st.floats(p, p + 1e-6),
        )
    )
    if q <= p:
        q = math.nextafter(p, 100.0)
    return np.array(samples, dtype=np.int32).reshape(height, width), p, q


class TestStretch:
    @given(_stretch_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle(self, case):
        _check_against_oracle(*case)

    @given(_map_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_eight_pass_map(self, case):
        values, lo_pct, hi_pct = case
        field = ResponseField(values)
        for mode in StretchMode:
            expected = eight_pass_stretch(values, mode.value, lo_pct, hi_pct)
            if expected is None:
                with pytest.raises(DomainError, match="too narrow"):
                    stretch(field, mode, lo_pct, hi_pct)
                continue
            out = stretch(field, mode, lo_pct, hi_pct).samples
            assert out.tolist() == expected.tolist(), (mode, lo_pct, hi_pct)

    @pytest.mark.parametrize(
        "values",
        [
            [[5]],
            [[_INT32_MIN]],
            [[-9, 9], [9, -9]],
            [[_INT32_MIN, _INT32_MAX, 0, 1]],
            [[_INT32_MIN, _INT32_MIN + 1, -1, _INT32_MAX]],
            # magnitude range 10^6 over 6 pixels: two levels of counts
            [[0, 1, -2, 999_999, -500_000, 3]],
        ],
    )
    @pytest.mark.parametrize(
        "pcts", [(2.0, 98.0), (0.0, 100.0), (0.0, 0.5), (37.5, 62.5), (0.0, 1e-310)]
    )
    def test_edge_cases_equal_oracle(self, values, pcts):
        _check_against_oracle(np.array(values, dtype=np.int32), *pcts)

    def test_blocks_and_one_or_two_count_levels(self, rng):
        # 300 x 300 spans two 2^16-sample blocks; magnitudes below 2^14 are
        # ranked by one level of counts, wider ones by two.
        for top in (255, 2**20):
            values = rng.integers(-top, top, (300, 300)).astype(np.int32)
            _check_against_oracle(values, 2.0, 98.0)

    @pytest.mark.parametrize(
        "values, pcts",
        [
            # 0..80 in buckets of 16 magnitudes: ranks 32, 33, 36 and 37
            # share one bucket; ranks 30, 31 and 50, 51 fall in two.
            (np.arange(81).reshape(9, 9), (40.0, 45.0)),
            (np.arange(81).reshape(9, 9), (37.5, 62.5)),
            (-np.arange(81).reshape(9, 9), (0.0, 100.0)),
            (np.zeros((9, 9)), (2.0, 98.0)),  # top = 0
            (np.full((9, 9), -77), (2.0, 98.0)),
            ([[_INT32_MIN]], (2.0, 98.0)),  # n = 1, top = 2^31
            (np.full((9, 9), _INT32_MIN), (0.0, 100.0)),
            ([[_INT32_MIN, 0, 5, -6, _INT32_MAX, 2**30, -(2**30) - 1]], (2.0, 98.0)),
            ([[_INT32_MIN, _INT32_MAX, 0]], (0.0, 50.0)),
        ],
    )
    def test_two_levels_in_small_blocks(self, monkeypatch, values, pcts):
        # Blocks of 7 samples and a first level as short as the second
        # allows, so that 9 x 9 fields take two levels across several blocks.
        monkeypatch.setattr(RASTER, "_BLOCK", 7)
        monkeypatch.setattr(RASTER, "_LEVEL_BITS", 1)
        _check_against_oracle(np.array(values, dtype=np.int32), *pcts)

    @given(_stretch_cases())
    @settings(max_examples=100, deadline=None)
    def test_two_levels_equal_oracle(self, case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RASTER, "_BLOCK", 7)
            patch.setattr(RASTER, "_LEVEL_BITS", 1)
            _check_against_oracle(*case)

    def test_abs_linear_makes_no_frame_of_magnitudes(self, rng):
        # The u8 result, a quarter frame, plus blocks and counts: no uint32
        # copy of the magnitudes, even when they need two levels of counts.
        values = rng.integers(-(2**31 - 1), 2**31 - 1, (1024, 1024), dtype=np.int32)
        field = ResponseField(values)
        _, peak = traced_peak(stretch, field, StretchMode.ABS_LINEAR)
        assert peak < 0.75 * field.samples.nbytes, peak

    def test_memory_stays_below_one_and_a_half_frames(self, rng):
        # The u8 result, one float64 block and the magnitude counts; no
        # full-frame float64 copy.
        for top in (1000, 2**31 - 1):
            values = rng.integers(-top, top, (1024, 1024)).astype(np.int32)
            field = ResponseField(values)
            for mode in StretchMode:
                _, peak = traced_peak(stretch, field, mode)
                assert peak < 1.5 * field.samples.nbytes, (top, mode, peak)

    def test_all_zero_field(self):
        f = ResponseField(np.zeros((3, 3), dtype=np.int32))
        out = stretch(f, StretchMode.ABS_LINEAR)
        assert out.dtype == "u8"
        assert not out.samples.any()

    def test_constant_field_degenerate(self):
        f = ResponseField(np.full((2, 2), 41, dtype=np.int32))
        assert not stretch(f, StretchMode.SIGNED_LINEAR).samples.any()
        assert not stretch(f, StretchMode.ABS_LINEAR).samples.any()

    def test_signed_linear_three_values(self):
        # (0 - (-10)) * 255 / 20 = 127.5, and ties round away from zero.
        f = ResponseField(np.array([[-10, 0, 10]], dtype=np.int32))
        out = stretch(f, StretchMode.SIGNED_LINEAR)
        assert out.samples.tolist() == [[0, 128, 255]]

    def test_abs_linear_small_ramp(self):
        f = ResponseField(np.array([[0, -1, 2, -3, 4]], dtype=np.int32))
        out = stretch(f, StretchMode.ABS_LINEAR, 0.0, 100.0)
        # |v| in 0..4 maps to 0, 63.75, 127.5, 191.25, 255
        assert out.samples.tolist() == [[0, 64, 128, 191, 255]]

    def test_abs_linear_percentile_clip(self):
        values = np.arange(101, dtype=np.int32).reshape(1, 101)
        out = stretch(ResponseField(values), StretchMode.ABS_LINEAR, 0.0, 50.0)
        assert out.samples[0, 50] == 255
        assert out.samples[0, 100] == 255  # clipped at the hi percentile
        assert out.samples[0, 0] == 0

    def test_int32_extremes_match_formula(self):
        # |-2^31| is 2^31 exactly: an int32 abs would wrap it to -2^31 and a
        # saturating one would collapse the 0..100 window to one value.
        values = [-(2**31), 2**31 - 1]
        f = ResponseField(np.array([values], dtype=np.int32))

        def formula(xs, lo, hi):
            return [[min(math.floor((x - lo) * (255.0 / (hi - lo)) + 0.5), 255) for x in xs]]

        mags = [abs(v) for v in values]
        out = stretch(f, StretchMode.ABS_LINEAR, 0.0, 100.0)
        assert out.samples.tolist() == formula(mags, min(mags), max(mags)) == [[255, 0]]
        out = stretch(f, StretchMode.SIGNED_LINEAR)
        assert out.samples.tolist() == formula(values, min(values), max(values)) == [[0, 255]]

    def test_signed_linear_monotone(self, rng):
        values = rng.integers(-1000, 1000, (16, 16)).astype(np.int32)
        out = stretch(ResponseField(values), StretchMode.SIGNED_LINEAR)
        flat_in = values.ravel()
        flat_out = out.samples.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert (np.diff(flat_out[order].astype(int)) >= 0).all()

    def test_empty_field_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            stretch(ResponseField(np.zeros((0, 3), dtype=np.int32)))

    def test_bad_percentiles(self):
        f = ResponseField(np.zeros((2, 2), dtype=np.int32))
        for lo, hi in ((-1.0, 98.0), (2.0, 101.0), (50.0, 50.0), (90.0, 10.0)):
            with pytest.raises(DomainError):
                stretch(f, StretchMode.ABS_LINEAR, lo, hi)

    def test_unknown_mode(self):
        f = ResponseField(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(DomainError, match="unknown stretch mode 'nearest'"):
            stretch(f, "nearest")

    def test_output_shape_and_dtype(self, rng):
        values = rng.integers(-500, 500, (7, 9)).astype(np.int32)
        out = stretch(ResponseField(values), StretchMode.ABS_LINEAR)
        assert (out.height, out.width) == (7, 9)
        assert out.dtype == "u8"
