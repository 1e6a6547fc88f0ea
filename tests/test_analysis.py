import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gstk import (
    Band,
    ClassSpec,
    ClassificationMap,
    DomainError,
    FeatureKind,
    FileFormatError,
    FitMode,
    MultibandImage,
    OifReport,
    ResponseField,
    Roi,
    accuracy,
    band_stats,
    classify,
    compare_responses,
    correlation,
    features_for_classification,
    fit_classes,
    oif_rank,
    oif_report,
    oif_report_dict,
    rois_from_json,
    rois_from_labels,
    synth_scene,
)
import gstk.analysis as analysis
from gstk.analysis import classification_to_band
from gstk.cli import _Stage, _stage_oif
from conftest import (
    forced_oif_spec,
    oracle_classify,
    oracle_compare,
    oracle_rank_triples,
    random_band,
    random_image,
    ref_moments,
    traced_peak,
)


def _image(*planes, dtype=np.uint8):
    return MultibandImage(tuple(Band(np.asarray(p, dtype=dtype)) for p in planes))


class TestBandStats:
    def test_constant(self):
        s = band_stats(Band(np.full((3, 3), 9, dtype=np.uint8)))
        assert (s.mean, s.stddev) == (9.0, 0.0)
        assert (s.minimum, s.maximum) == (9, 9)

    def test_two_level(self):
        s = band_stats(Band(np.array([[0, 0], [255, 255]], dtype=np.uint8)))
        assert s.mean == 127.5
        assert s.stddev == 127.5

    def test_against_fsum_oracle(self, rng):
        for _ in range(20):
            band = random_band(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), "u16")
            values = [float(v) for v in band.samples.ravel()]
            mean = math.fsum(values) / len(values)
            var = math.fsum((v - mean) ** 2 for v in values) / len(values)
            s = band_stats(band)
            assert s.mean == pytest.approx(mean, rel=1e-9)
            assert s.stddev == pytest.approx(math.sqrt(var), rel=1e-9, abs=1e-12)
            assert s.minimum == min(values)
            assert s.maximum == max(values)

    def test_equals_exact_integer_moments(self, rng):
        # 600x500 pixels take two blocks, the second partial.
        for dtype in ("u8", "u16"):
            band = random_band(rng, 600, 500, dtype)
            n, (total,), ((squares,),) = ref_moments([band.samples])
            s = band_stats(band)
            assert s.mean == total / n
            assert s.stddev == math.sqrt((n * squares - total * total) / (n * n))

    def test_empty_band(self):
        with pytest.raises(DomainError):
            band_stats(Band(np.zeros((0, 2), dtype=np.uint8)))


class TestCorrelation:
    def test_identical_bands(self):
        img = _image([[1, 5], [9, 200]], [[1, 5], [9, 200]])
        r = correlation(img).r
        assert r[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_bands(self):
        a = np.array([[3, 80], [140, 255]], dtype=np.uint8)
        img = _image(a, 255 - a)
        r = correlation(img).r
        assert r[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_against_direct_formula(self, rng):
        for dtype in ("u8", "u16"):
            img = random_image(rng, 3, 9, 7, dtype)
            corr = correlation(img)
            assert corr.stddev == tuple(band_stats(b).stddev for b in img.bands)
            planes = [b.samples.astype(float).ravel() for b in img.bands]
            for i, j in combinations(range(3), 2):
                xi, xj = planes[i], planes[j]
                mi = math.fsum(xi) / xi.size
                mj = math.fsum(xj) / xj.size
                cov = math.fsum((a - mi) * (b - mj) for a, b in zip(xi, xj)) / xi.size
                si = math.sqrt(math.fsum((a - mi) ** 2 for a in xi) / xi.size)
                sj = math.sqrt(math.fsum((b - mj) ** 2 for b in xj) / xj.size)
                assert corr.r[i, j] == pytest.approx(cov / (si * sj), rel=1e-12)

    def test_hadamard_bands_exactly_uncorrelated(self):
        corr = correlation(MultibandImage(tuple(Band(p) for p in _hadamard_bands(4))))
        assert (corr.r[~np.eye(4, dtype=bool)] == 0.0).all()

    @pytest.mark.parametrize("block_samples", [21, 2])
    def test_blocks_do_not_change_result(self, rng, monkeypatch, block_samples):
        img = random_image(rng, 3, 10, 10, "u16")
        planes = [b.samples for b in img.bands]
        whole = analysis._moments(planes), correlation(img)
        # 3 bands: blocks of 7 pixels, the last holding 2; or of 1 pixel.
        monkeypatch.setattr(analysis, "_BLOCK_SAMPLES", block_samples)
        blocked = analysis._moments(planes), correlation(img)
        assert whole[0] == blocked[0] == ref_moments(planes)
        assert np.array_equal(whole[1].r, blocked[1].r)
        assert whole[1].stddev == blocked[1].stddev

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_moment_sums_refused_past_int64(self, dtype):
        top = int(np.iinfo(dtype).max)
        limit = (2**63 - 1) // top**2  # most pixels whose sums fit in int64
        # A zero-stride view: one pixel over the bound, no memory behind it.
        plane = np.broadcast_to(dtype(0), (limit + 1,))
        with pytest.raises(DomainError, match="exact moment budget"):
            analysis._moments([plane])

    @pytest.mark.parametrize("block_samples", [21, 2])
    def test_uint32_limbs_equal_exact_sums(self, rng, monkeypatch, block_samples):
        planes = [rng.integers(0, 2**32, (10, 10), dtype=np.uint32) for _ in range(3)]
        planes[0][0, :4] = [0, 2**32 - 1, 2**16, 2**16 - 1]
        whole = analysis._moments(planes)
        # 6 limb rows: blocks of 3 pixels, the last holding 1; or of 1 pixel.
        monkeypatch.setattr(analysis, "_BLOCK_SAMPLES", block_samples)
        assert whole == analysis._moments(planes) == ref_moments(planes)

    def test_uint32_limb_budget_refused(self):
        # The budget uses the 16-bit limb maximum, not the uint32 maximum.
        limit = (2**63 - 1) // 0xFFFF**2
        plane = np.broadcast_to(np.uint32(0), (limit + 1,))
        with pytest.raises(DomainError, match="exact moment budget"):
            analysis._moments([plane])

    def test_peak_memory_is_one_block(self):
        # The float64 block buffer is 2 MiB whatever the band count; one
        # float64 plane per band would be 2 MiB per band here.
        rng = np.random.default_rng(32)
        for n_bands in (4, 32):
            image = random_image(rng, n_bands, 512, 512, "u16")
            _, peak = traced_peak(correlation, image)
            assert peak < 3 * 2**20, f"{n_bands} bands: peak {peak} B"

    def test_matrix_shape_properties(self, rng):
        img = random_image(rng, 4, 6, 6)
        corr = correlation(img)
        r = corr.r
        assert r.shape == (4, 4)
        assert np.array_equal(r, r.T)
        assert (np.abs(r) <= 1 + 1e-12).all()
        assert (np.diag(r) == 1.0).all()
        assert corr.zero_variance_bands == ()

    def test_zero_variance_flagged_not_zeroed(self, rng):
        flat = Band(np.full((4, 4), 7, dtype=np.uint8))
        img = MultibandImage((flat, random_band(rng, 4, 4), random_band(rng, 4, 4)))
        corr = correlation(img)
        assert corr.zero_variance_bands == (0,)
        assert corr.stddev == tuple(band_stats(b).stddev for b in img.bands)
        assert math.isnan(corr.r[0, 1])
        assert corr.r[0, 0] == 1.0
        assert not math.isnan(corr.r[1, 2])

    def test_single_band_rejected(self, rng):
        with pytest.raises(DomainError):
            correlation(MultibandImage((random_band(rng, 3, 3),)))

    def test_empty_image_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            correlation(_image(np.zeros((0, 3)), np.zeros((0, 3))))


def _hadamard_bands(n_bands):
    """Bands of 0/255 columns that are exactly pairwise uncorrelated."""
    h = np.array([[1]])
    while h.shape[0] < 8:
        h = np.block([[h, h], [h, -h]])
    rows = h[1 : 1 + n_bands]  # skip the constant row
    return [(127.5 + 127.5 * r).astype(np.uint8).reshape(1, 8) for r in rows]


class TestOifRank:
    def test_three_band_formula(self, rng):
        img = random_image(rng, 3, 8, 8)
        scores = oif_rank(img)
        assert len(scores) == 1
        assert scores[0].triple == (1, 2, 3)
        stats = [band_stats(b) for b in img.bands]
        r = correlation(img).r
        expected = (stats[0].stddev + stats[1].stddev + stats[2].stddev) / (
            abs(r[0, 1]) + abs(r[0, 2]) + abs(r[1, 2])
        )
        assert scores[0].score == pytest.approx(expected, rel=1e-12)

    def test_against_brute_force(self, rng):
        for n in (5, 6, 7):
            img = random_image(rng, n, 10, 10)
            got = oif_rank(img)
            stats = [band_stats(b) for b in img.bands]
            r = correlation(img).r
            expected = []
            for i, j, k in combinations(range(n), 3):
                denom = abs(r[i, j]) + abs(r[i, k]) + abs(r[j, k])
                score = (
                    (stats[i].stddev + stats[j].stddev + stats[k].stddev) / denom
                    if denom > 0
                    else math.inf
                )
                expected.append(((i + 1, j + 1, k + 1), score))
            expected.sort(key=lambda t: (-t[1], t[0]))
            # The brute force sums in the program's order, so scores match exactly.
            assert [(s.triple, s.score) for s in got] == expected
            assert all(type(s.score) is float for s in got)
            assert all(type(b) is int for s in got for b in s.triple)
            ranking = oif_report_dict(img)["ranking"]
            assert len(ranking) == len(got)
            for entry, s in zip(ranking, got):
                assert entry["triple"] == list(s.triple)
                assert type(entry["score"]) is float and entry["score"] == s.score
                assert entry["infinite"] is False

    def test_mixed_finite_and_infinite_ranking(self, rng):
        # Triple (1, 2, 3) is exactly uncorrelated, so its score is
        # infinite; every triple with the random band 4 is finite.
        planes = _hadamard_bands(3) + [rng.integers(0, 256, (1, 8), dtype=np.uint8)]
        img = MultibandImage(tuple(Band(p) for p in planes))
        scores = oif_rank(img)
        assert scores[0].triple == (1, 2, 3) and math.isinf(scores[0].score)
        finite = [s.score for s in scores[1:]]
        assert len(finite) == 3 and all(math.isfinite(v) for v in finite)
        assert finite == sorted(finite, reverse=True)
        ranking = oif_report_dict(img)["ranking"]
        assert [e["triple"] for e in ranking] == [list(s.triple) for s in scores]
        assert [e["infinite"] for e in ranking] == [True, False, False, False]
        assert [e["score"] for e in ranking] == [None] + finite

    def test_zero_variance_band_reported_by_name(self, rng):
        img = MultibandImage(
            (
                random_band(rng, 4, 4),
                Band(np.full((4, 4), 3, dtype=np.uint8)),
                random_band(rng, 4, 4),
            ),
            ("red", "green", "blue"),
        )
        with pytest.raises(DomainError, match="green"):
            oif_rank(img)

    def test_too_few_bands(self, rng):
        with pytest.raises(DomainError, match="3 bands"):
            oif_rank(random_image(rng, 2, 4, 4))

    def test_infinite_score_and_lexicographic_ties(self):
        # Four exactly uncorrelated bands: every triple has denominator 0,
        # so every score is infinite and ties fall back to triple order.
        img = MultibandImage(tuple(Band(p) for p in _hadamard_bands(4)))
        scores = oif_rank(img)
        assert all(math.isinf(s.score) for s in scores)
        assert [s.triple for s in scores] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]

    def test_relabel_invariance(self, rng):
        img = random_image(rng, 5, 12, 12)
        base = {s.triple: s.score for s in oif_rank(img)}
        perm = [3, 0, 4, 2, 1]  # new position -> old band index
        shuffled = MultibandImage(tuple(img.bands[i] for i in perm))
        for s in oif_rank(shuffled):
            original = tuple(sorted(perm[b - 1] + 1 for b in s.triple))
            assert s.score == pytest.approx(base[original], rel=1e-12)

    def test_report_dict(self, rng):
        img = random_image(rng, 4, 6, 6)
        doc = oif_report_dict(img)
        assert doc["bands"] == ["band 1", "band 2", "band 3", "band 4"]
        assert len(doc["stddev"]) == 4
        assert len(doc["ranking"]) == 4
        assert doc["ranking"][0]["score"] >= doc["ranking"][-1]["score"]
        assert all(not e["infinite"] for e in doc["ranking"])
        json.dumps(doc)  # strictly serializable

    def test_report_dict_computes_band_moments_once(self, rng, monkeypatch):
        import gstk.analysis as analysis

        calls = {"correlation": 0, "band_stats": 0}

        def counted(name):
            real = getattr(analysis, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(analysis, name, counted(name))
        img = random_image(rng, 5, 6, 6)
        doc = oif_report_dict(img)
        assert calls == {"correlation": 1, "band_stats": 0}
        assert doc["stddev"] == [band_stats(b).stddev for b in img.bands]

    def test_report_dict_infinite_scores_are_null(self):
        img = MultibandImage(tuple(Band(p) for p in _hadamard_bands(3)))
        doc = oif_report_dict(img)
        assert doc["ranking"][0]["score"] is None
        assert doc["ranking"][0]["infinite"] is True
        json.dumps(doc, allow_nan=False)

    @pytest.mark.parametrize(
        "bands, message",
        [
            ((np.zeros((0, 3)), np.zeros((0, 3))), "empty"),
            ((np.arange(4).reshape(2, 2),), "OIF ranking needs at least 3 bands, got 1"),
            ((np.arange(4).reshape(2, 2), np.eye(2)), "at least 3 bands"),
            (
                (np.arange(4).reshape(2, 2), np.ones((2, 2)), np.eye(2)),
                "zero-variance bands: band 2",
            ),
        ],
    )
    def test_report_errors_in_order(self, bands, message):
        with pytest.raises(DomainError, match=message):
            oif_report(_image(*bands))


def _walsh_image():
    """Three 2x2 bands with exactly zero pairwise correlations."""
    return _image([[0, 1], [0, 1]], [[0, 0], [1, 1]], [[0, 1], [1, 0]])


def _json_cases():
    rng = np.random.default_rng(20261018)
    yield pytest.param(synth_scene(forced_oif_spec())[0], id="forced_oif_spec")
    for dtype in ("u8", "u16"):
        for n in (3, 4, 17):
            image = random_image(rng, n, 7, 5, dtype)
            yield pytest.param(image, id=f"random-{dtype}-{n}")
    names = ('say "hi"', "back\\slash", "Zürich ☃")
    image = MultibandImage(random_image(rng, 3, 4, 4).bands, names)
    yield pytest.param(image, id="escaped-names")
    yield pytest.param(_walsh_image(), id="all-infinite")
    planes = _hadamard_bands(3) + [rng.integers(0, 256, (1, 8), dtype=np.uint8)]
    yield pytest.param(MultibandImage(tuple(Band(p) for p in planes)), id="mixed")


def _write_oif(report, path):
    """Write ``report`` as gstk does: staged, one block at a time."""
    stage = _Stage()
    _stage_oif(stage, str(path), report)
    stage.commit()


def _streamed(report, tmp_path) -> bytes:
    _write_oif(report, tmp_path / "oif.json")
    return (tmp_path / "oif.json").read_bytes()


def _indented(report) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


class TestOifReportJson:
    @pytest.mark.parametrize("image", list(_json_cases()))
    def test_bytes_equal_indented_dumps(self, image, tmp_path):
        report = oif_report(image)
        assert report.to_json() == _indented(report)
        assert _streamed(report, tmp_path) == _indented(report).encode("ascii")

    # With blocks of 1, 2 and 3 entries, the 1-, 4-, 35- and 680-entry
    # rankings end on a block edge, one entry past it and one short of it,
    # and the null scores of the all-infinite and mixed cases open and
    # close a block.
    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("image", list(_json_cases()))
    def test_small_blocks_give_the_same_bytes(self, image, block, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "_OIF_BLOCK", block)
        report = oif_report(image)
        m = len(report.scores)
        assert len(list(report._blocks())) == 2 + -(-m // block)
        assert report.to_json() == _indented(report)
        assert _streamed(report, tmp_path) == _indented(report).encode("ascii")

    def test_ranking_longer_than_two_blocks(self, tmp_path):
        block = analysis._OIF_BLOCK
        n = 3
        while math.comb(n, 3) <= 2 * block + 1:
            n += 1
        report = oif_report(random_image(np.random.default_rng(n), n, 5, 7, "u16"))
        m = len(report.scores)
        assert len(list(report._blocks())) == 2 + -(-m // block) > 4
        assert _streamed(report, tmp_path) == _indented(report).encode("ascii")

    def test_report_arrays(self):
        report = oif_report(_walsh_image())
        assert report.bands == ("band 1", "band 2", "band 3")
        assert report.triples.tolist() == [[1, 2, 3]]
        assert report.triples.dtype == np.int64
        assert report.scores.tolist() == [math.inf]
        assert report.to_dict() == oif_report_dict(_walsh_image())
        assert '"score": null' in report.to_json()
        empty = OifReport(report.bands, report.corr, [], [])
        assert empty.to_json() == json.dumps(empty.to_dict(), indent=2) + "\n"

    def test_peak_memory_bounded_by_text(self):
        # Building one dict per triple and walking them with the pure-Python
        # indented encoder peaks above 9x the text (20.8 MiB for 2.3 MiB of
        # text); the arrays and one %-format stay under 5x.
        rng = np.random.default_rng(48)
        image = random_image(rng, 48, 64, 64, "u16")
        tracemalloc.start()
        try:
            text = oif_report(image).to_json()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) > 2 * 2**20
        assert peak < 5 * len(text), f"peak {peak} B for {len(text)} B of text"

    def test_streamed_write_peak_below_text(self, tmp_path):
        # Writing holds a few blocks at a time, never the text: its peak
        # stays under the report's own arrays plus four of its largest
        # blocks, and under a third of the text's length (to_json alone
        # peaks at twice the text).
        rng = np.random.default_rng(48)
        report = oif_report(random_image(rng, 48, 64, 64, "u16"))
        path = tmp_path / "oif.json"
        block = max(len(b) for b in report._blocks())
        _, peak = traced_peak(_write_oif, report, path)
        arrays = report.triples.nbytes + report.scores.nbytes
        text = path.stat().st_size
        assert text > 2 * 2**20
        assert peak < arrays + 4 * block, f"peak {peak} B, arrays {arrays} B"
        assert peak < text / 3, f"peak {peak} B for {text} B of text"


@st.composite
def _ranking_images(draw):
    """3-40 bands of 1x8 pixels: leading exactly uncorrelated Walsh bands
    (infinite scores), then random bands and copies of earlier bands
    (tied scores)."""
    n = draw(st.integers(3, 40))
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = [p.astype(dtype) for p in _hadamard_bands(draw(st.integers(0, 7)))]
    while len(planes) < n:
        if planes and draw(st.booleans()):
            planes.append(planes[draw(st.integers(0, len(planes) - 1))])
        else:
            planes.append(rng.integers(1, np.iinfo(dtype).max, (1, 8), dtype=dtype))
            planes[-1][0, 0] = 0  # never constant
    return _image(*planes[:n], dtype=dtype)


class TestRankTriples:
    @given(_ranking_images())
    @settings(max_examples=100, deadline=None)
    def test_equals_cube_and_lexsort_oracle(self, image):
        corr = correlation(image)
        triples, scores = analysis._rank_triples(image, corr)
        want_triples, want_scores = oracle_rank_triples(corr)
        assert np.array_equal(triples, want_triples)
        assert np.array_equal(scores, want_scores)

    def test_ties_and_infinite_scores(self):
        # Bands 5 and 6 copy bands 1 and 4, so triples that swap one for
        # the other tie; the Walsh triples among bands 1-3 score +inf.
        rng = np.random.default_rng(6)
        planes = _hadamard_bands(3) + [rng.integers(0, 256, (1, 8), dtype=np.uint8)]
        image = _image(*planes, planes[0], planes[3])
        corr = correlation(image)
        triples, scores = analysis._rank_triples(image, corr)
        finite = scores[np.isfinite(scores)]
        assert np.isinf(scores).sum() > 1
        assert len(np.unique(finite)) < len(finite)
        want_triples, want_scores = oracle_rank_triples(corr)
        assert np.array_equal(triples, want_triples)
        assert np.array_equal(scores, want_scores)


class TestRois:
    def test_from_json(self):
        text = json.dumps(
            {
                "classes": [
                    {"name": "sea", "runs": [[0, 0, 3], [1, 2, 1]]},
                    {"name": "soil", "runs": [[5, 4, 2]]},
                ]
            }
        )
        rois = rois_from_json(text, (6, 6))
        assert [r.name for r in rois] == ["sea", "soil"]
        assert rois[0].pixels.tolist() == [[0, 0], [0, 1], [0, 2], [1, 2]]
        assert rois[1].pixels.tolist() == [[5, 4], [5, 5]]

    def test_from_json_errors(self):
        with pytest.raises(FileFormatError):
            rois_from_json("not json", (4, 4))
        with pytest.raises(FileFormatError):
            rois_from_json("[]", (4, 4))
        with pytest.raises(FileFormatError):
            rois_from_json('{"classes": [{"name": "x"}]}', (4, 4))
        with pytest.raises(FileFormatError, match="run"):
            rois_from_json('{"classes": [{"name": "x", "runs": [[0, 0]]}]}', (4, 4))
        with pytest.raises(FileFormatError, match="length"):
            rois_from_json('{"classes": [{"name": "x", "runs": [[0, 0, 0]]}]}', (4, 4))
        with pytest.raises(FileFormatError, match="no classes"):
            rois_from_json('{"classes": []}', (4, 4))
        for runs in ("5", "null"):
            with pytest.raises(FileFormatError, match="runs"):
                rois_from_json('{"classes": [{"name": "x", "runs": %s}]}' % runs, (4, 4))
        with pytest.raises(FileFormatError, match="run"):
            rois_from_json('{"classes": [{"name": "x", "runs": [[true, false, true]]}]}', (4, 4))

    @pytest.mark.parametrize(
        "run", [[4, 0, 1], [-1, 0, 1], [0, -1, 2], [0, 3, 3], [3, 0, 10**9]]
    )
    def test_from_json_run_outside_image(self, run):
        text = json.dumps({"classes": [{"name": "x", "runs": [[0, 0, 1], run]}]})
        with pytest.raises(DomainError, match="outside the 4x5 image"):
            rois_from_json(text, (4, 5))

    def test_from_json_runs_to_the_image_edge(self):
        text = json.dumps({"classes": [{"name": "x", "runs": [[3, 0, 5], [0, 4, 1]]}]})
        (roi,) = rois_from_json(text, (4, 5))
        assert roi.pixels.tolist() == [[3, c] for c in range(5)] + [[0, 4]]

    def test_from_labels(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[0, :2] = 1
        labels[3, 3] = 2
        rois = rois_from_labels(labels, ["water", "rock"])
        assert rois[0].name == "water"
        assert rois[0].pixels.tolist() == [[0, 0], [0, 1]]
        assert rois[1].name == "rock"
        assert rois[1].pixels.tolist() == [[3, 3]]

    def test_from_labels_default_names(self):
        rois = rois_from_labels(np.array([[1, 2]]))
        assert [r.name for r in rois] == ["class 1", "class 2"]

    def test_from_labels_peak_memory_below_two_and_a_half_pairs(self):
        # np.nonzero's row and column arrays plus the stacked pairs the ROI
        # keeps; the stack is not copied again.
        ones = np.ones((1024, 1024), dtype=np.int32)
        (roi,), peak = traced_peak(rois_from_labels, ones)
        assert roi.pixels.nbytes == ones.size * 2 * 8
        assert peak < 2.5 * roi.pixels.nbytes, peak / roi.pixels.nbytes

    def test_from_labels_requires_contiguous(self):
        with pytest.raises(DomainError, match="contiguous"):
            rois_from_labels(np.array([[1, 3]]))
        with pytest.raises(DomainError, match="no labeled"):
            rois_from_labels(np.zeros((2, 2), dtype=int))

    def test_from_labels_requires_a_name_per_label(self):
        with pytest.raises(DomainError, match="label 3 has no name"):
            rois_from_labels(np.array([[1, 2, 3]]), ["a", "b"])


class TestFitClasses:
    def test_minmax_single_pixel(self, rng):
        img = random_image(rng, 3, 5, 5)
        roi = Roi("dot", np.array([[2, 3]]))
        (spec,) = fit_classes(img, [roi], FitMode.MINMAX)
        for b, (lo, hi) in enumerate(spec.bounds):
            v = float(img.bands[b].samples[2, 3])
            assert (lo, hi) == (v, v)

    def test_mean_sigma_hand_computed(self):
        img = _image([[10, 20, 30]])
        roi = Roi("strip", np.array([[0, 0], [0, 1], [0, 2]]))
        (spec,) = fit_classes(img, [roi], FitMode.MEAN_SIGMA, k=2.0)
        sigma = math.sqrt(200.0 / 3.0)  # population stddev of {10,20,30}
        assert sigma == pytest.approx(8.164965809277)
        lo, hi = spec.bounds[0]
        assert (lo, hi) == (20 - 2 * sigma, 20 + 2 * sigma)

    def test_mean_sigma_clamped_to_dtype(self):
        img = _image([[2, 250]])
        roi = Roi("wide", np.array([[0, 0], [0, 1]]))
        (spec,) = fit_classes(img, [roi], FitMode.MEAN_SIGMA, k=10.0)
        lo, hi = spec.bounds[0]
        assert lo == 0.0
        assert hi == 255.0

    def test_minmax_contains_all_training_pixels(self, rng):
        img = random_image(rng, 4, 10, 10, "u16")
        pix = np.array([[int(rng.integers(0, 10)), int(rng.integers(0, 10))]
                        for _ in range(25)])
        (spec,) = fit_classes(img, [Roi("r", pix)], FitMode.MINMAX)
        for b, (lo, hi) in enumerate(spec.bounds):
            values = img.bands[b].samples[pix[:, 0], pix[:, 1]]
            assert (values >= lo).all() and (values <= hi).all()

    def test_empty_roi_rejected(self, rng):
        img = random_image(rng, 2, 4, 4)
        with pytest.raises(DomainError, match="empty"):
            fit_classes(img, [Roi("none", np.empty((0, 2)))])

    def test_out_of_bounds_roi_rejected(self, rng):
        img = random_image(rng, 2, 4, 4)
        with pytest.raises(DomainError, match="out-of-bounds"):
            fit_classes(img, [Roi("oob", np.array([[0, 4]]))])
        with pytest.raises(DomainError, match="out-of-bounds"):
            fit_classes(img, [Roi("neg", np.array([[-1, 0]]))])

    def test_negative_k_rejected(self, rng):
        img = random_image(rng, 2, 4, 4)
        roi = Roi("r", np.array([[0, 0]]))
        with pytest.raises(DomainError):
            fit_classes(img, [roi], FitMode.MEAN_SIGMA, k=-1.0)

    def test_nan_k_rejected(self, rng):
        img = random_image(rng, 2, 4, 4)
        roi = Roi("r", np.array([[0, 0]]))
        with pytest.raises(DomainError, match="k must be >= 0"):
            fit_classes(img, [roi], FitMode.MEAN_SIGMA, k=math.nan)


@st.composite
def _classify_cases(draw):
    """A u8 or u16 image and 1 to 12 class boxes over it.

    Samples crowd both ends of the dtype range. A bound sits on a drawn
    sample or a fraction or one step off it, or is any fraction in range,
    infinite, below 0 or above the dtype maximum; some intervals hold no
    integer at all.
    """
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    top = int(np.iinfo(dtype).max)
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    sample = st.one_of(
        st.integers(0, 3), st.integers(top - 3, top), st.integers(0, top)
    )
    planes = [
        np.array(
            draw(st.lists(sample, min_size=height * width, max_size=height * width)),
            dtype=dtype,
        ).reshape(height, width)
        for _ in range(draw(st.integers(1, 3)))
    ]
    values = sorted({int(v) for p in planes for v in p.ravel()})
    near = st.builds(
        lambda v, d: v + d,
        st.sampled_from(values),
        st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
    )
    bound = st.one_of(
        near,
        st.floats(-2.0, top + 2.0),
        st.sampled_from(
            [-math.inf, -1e300, -1.5, -1.0, top + 1.0, top + 1.5, 1e300, math.inf]
        ),
    )

    def interval():
        if draw(st.integers(0, 4)) == 0:
            # [n + 0.25, n + 0.75] holds no integer.
            n = draw(st.one_of(st.sampled_from(values), st.integers(-2, top + 1)))
            return (n + 0.25, n + 0.75)
        return tuple(sorted((draw(bound), draw(bound))))

    specs = [
        ClassSpec(f"c{c}", tuple(interval() for _ in planes))
        for c in range(draw(st.integers(1, 12)))
    ]
    return MultibandImage(tuple(Band(p) for p in planes)), specs


class TestClassify:
    @given(_classify_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_float_bound_oracle(self, case):
        image, specs = case
        expected = oracle_classify(image, specs)
        assert np.array_equal(classify(image, specs).labels, expected)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_integer_box_edge_cases(self, dtype):
        top = int(np.iinfo(dtype).max)
        img = _image([[0, 1, 2, 3, top - 1, top]], dtype=dtype)
        cases = [
            ((2.5, 3.5), [0, 0, 0, 1, 0, 0]),  # fractional ends round inward
            ((2.25, 2.75), [0, 0, 0, 0, 0, 0]),  # no integer inside
            ((-math.inf, math.inf), [1, 1, 1, 1, 1, 1]),
            ((-math.inf, -0.5), [0, 0, 0, 0, 0, 0]),  # below 0
            ((-1.5, 0.0), [1, 0, 0, 0, 0, 0]),
            ((top - 0.5, 1e300), [0, 0, 0, 0, 0, 1]),
            ((top + 0.5, math.inf), [0, 0, 0, 0, 0, 0]),  # above dtype_max
        ]
        for bounds, expected in cases:
            specs = [ClassSpec("c", (bounds,))]
            assert classify(img, specs).labels.tolist() == [expected], bounds
            assert oracle_classify(img, specs).tolist() == [expected], bounds

    def test_more_than_eight_classes_first_wins(self):
        img = _image([list(range(12))])
        # Class c + 1 holds samples 0..c, so sample v goes to class v + 1,
        # the first listed of the classes holding it; the last class holds
        # nothing.
        specs = [ClassSpec(f"c{c}", ((-math.inf, c + 0.5),)) for c in range(12)]
        specs.append(ClassSpec("none", ((11.5, 11.9),)))
        labels = classify(img, specs).labels
        assert labels.tolist() == [list(range(1, 13))]
        assert np.array_equal(labels, oracle_classify(img, specs))

    def test_basic_boxes(self):
        img = _image([[10, 100, 200]])
        specs = [
            ClassSpec("low", ((0.0, 50.0),)),
            ClassSpec("high", ((150.0, 255.0),)),
        ]
        cmap = classify(img, specs)
        assert cmap.labels.tolist() == [[1, 0, 2]]

    def test_first_listed_class_wins_overlap(self):
        img = _image([[100]])
        specs = [
            ClassSpec("second", ((90.0, 110.0),)),
            ClassSpec("also-matches", ((0.0, 255.0),)),
        ]
        assert classify(img, specs).labels[0, 0] == 1
        # and the tie-break follows list order, not names or geometry
        assert classify(img, list(reversed(specs))).labels[0, 0] == 1

    def test_requires_all_bands_inside(self):
        img = _image([[100]], [[100]])
        inside_one = ClassSpec("half", ((0.0, 255.0), (150.0, 255.0)))
        assert classify(img, [inside_one]).labels[0, 0] == 0

    def test_closed_intervals(self):
        img = _image([[99, 100, 101]])
        spec = ClassSpec("exact", ((99.0, 101.0),))
        assert classify(img, [spec]).labels.tolist() == [[1, 1, 1]]

    def test_band_count_mismatch(self, rng):
        img = random_image(rng, 3, 4, 4)
        with pytest.raises(DomainError, match="bounds"):
            classify(img, [ClassSpec("short", ((0.0, 1.0),))])

    def test_every_pixel_gets_one_label(self, rng):
        img = random_image(rng, 2, 20, 20)
        rois = [
            Roi("a", np.array([[r, c] for r in range(10) for c in range(20)])),
            Roi("b", np.array([[r, c] for r in range(10, 20) for c in range(20)])),
        ]
        cmap = classify(img, fit_classes(img, rois))
        assert cmap.labels.shape == (20, 20)
        assert set(np.unique(cmap.labels)) <= {0, 1, 2}

    def test_bad_bounds_rejected(self):
        with pytest.raises(DomainError):
            ClassSpec("inverted", ((5.0, 1.0),))

    @pytest.mark.parametrize(
        "bounds", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_bound_rejected(self, bounds):
        with pytest.raises(DomainError, match="lo <= hi"):
            ClassSpec("x", (bounds,))

    def test_peak_memory_below_two_frames(self, rng):
        # The int32 label frame plus bool masks; the labels are not copied
        # into the map.
        img = random_image(rng, 1, 1024, 1024)
        specs = [ClassSpec("low", ((0.0, 100.0),)), ClassSpec("high", ((50.0, 255.0),))]
        cmap, peak = traced_peak(classify, img, specs)
        assert peak < 2 * cmap.labels.nbytes, peak / cmap.labels.nbytes

    def test_u8_labels_converted_with_one_copy(self):
        # The int32 conversion is the map's only copy of u8 truth labels.
        labels = np.ones((1024, 1024), dtype=np.uint8)
        cmap, peak = traced_peak(ClassificationMap, labels)
        assert peak < 1.5 * cmap.labels.nbytes, peak / cmap.labels.nbytes


class TestAccuracy:
    def test_identity_map(self, rng):
        labels = rng.integers(0, 4, (9, 9)).astype(np.int32)
        labels[0, 0] = 1  # guarantee a non-empty evaluation set
        cmap = ClassificationMap(labels)
        cm = accuracy(cmap, cmap)
        assert cm.overall_accuracy == 1.0

    def test_three_of_four(self):
        truth = ClassificationMap(np.array([[1, 1], [2, 2]], dtype=np.int32))
        pred = ClassificationMap(np.array([[1, 1], [2, 1]], dtype=np.int32))
        cm = accuracy(pred, truth)
        assert cm.overall_accuracy == 0.75
        assert cm.total == 4
        assert cm.counts[2, 1] == 1

    def test_unclassified_prediction_is_an_error(self):
        truth = ClassificationMap(np.array([[1, 1]], dtype=np.int32))
        pred = ClassificationMap(np.array([[1, 0]], dtype=np.int32))
        cm = accuracy(pred, truth)
        assert cm.overall_accuracy == 0.5
        assert cm.counts[1, 0] == 1  # truth 1 predicted "unclassified"

    def test_truth_zero_pixels_excluded(self):
        truth = ClassificationMap(np.array([[0, 1]], dtype=np.int32))
        pred = ClassificationMap(np.array([[2, 1]], dtype=np.int32))
        cm = accuracy(pred, truth)
        assert cm.counts.shape == (2, 2)  # label 2 is never evaluated
        assert cm.total == 1
        assert cm.overall_accuracy == 1.0

    def test_dimension_mismatch(self):
        a = ClassificationMap(np.ones((2, 2), dtype=np.int32))
        b = ClassificationMap(np.ones((2, 3), dtype=np.int32))
        with pytest.raises(DomainError, match="mismatch"):
            accuracy(a, b)

    def test_empty_evaluation_set(self):
        empty = ClassificationMap(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(DomainError, match="empty evaluation"):
            accuracy(empty, empty)

    def test_to_dict(self):
        truth = ClassificationMap(np.array([[1, 2]], dtype=np.int32))
        pred = ClassificationMap(np.array([[1, 1]], dtype=np.int32))
        doc = accuracy(pred, truth, ["sea", "soil"]).to_dict()
        assert doc["classes"] == ["unclassified", "sea", "soil"]
        assert doc["total"] == 2
        assert doc["overall_accuracy"] == 0.5
        assert doc["counts"][2][1] == 1
        json.dumps(doc)

    def test_negative_labels_rejected(self):
        with pytest.raises(DomainError):
            ClassificationMap(np.array([[-1]], dtype=np.int32))

    @pytest.mark.parametrize(
        "label, dtype", [(2**31, np.uint32), (2**32 + 3, np.int64)], ids=["u32", "i64"]
    )
    def test_labels_beyond_int32_rejected(self, label, dtype):
        # Converted to int32, these would read -2^31 and 3.
        with pytest.raises(DomainError, match="at most 2147483647"):
            ClassificationMap(np.array([[1, label]], dtype=dtype))
        largest = ClassificationMap(np.array([[2**31 - 1]], dtype=dtype))
        assert largest.labels[0, 0] == 2**31 - 1

    @pytest.mark.parametrize("side", [0, 2])
    def test_confusion_without_counts_rejected(self, side):
        with pytest.raises(DomainError, match="all zero"):
            analysis.ConfusionMatrix(np.zeros((side, side)))


class TestClassificationToBand:
    def test_u8_when_small(self):
        band = classification_to_band(ClassificationMap(np.array([[3]], dtype=np.int32)))
        assert band.dtype == "u8"
        assert band.samples[0, 0] == 3

    def test_u16_when_needed(self):
        band = classification_to_band(
            ClassificationMap(np.array([[300]], dtype=np.int32))
        )
        assert band.dtype == "u16"
        assert band.samples[0, 0] == 300

    def test_result_is_not_copied(self):
        cmap = ClassificationMap(np.ones((512, 512), dtype=np.int32))
        band, peak = traced_peak(classification_to_band, cmap)
        assert band.samples.nbytes == 512 * 512
        assert peak < 1.5 * band.samples.nbytes

    def test_too_large_rejected(self):
        cmap = ClassificationMap(np.array([[70000]], dtype=np.int32))
        with pytest.raises(DomainError):
            classification_to_band(cmap)


_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_COMPARE_RANGES = st.sampled_from(
    [(0, 0), (-1, 1), (-300, 300), (0, 70000), (_INT32_MIN, _INT32_MAX)]
)


@st.composite
def _compare_fields(draw, n):
    lo, hi = draw(_COMPARE_RANGES)
    elements = st.integers(lo, hi)
    if draw(st.booleans()):
        return [draw(elements)] * n
    if draw(st.booleans()):
        elements = st.one_of(elements, st.sampled_from([_INT32_MIN, _INT32_MAX, 0]))
    return draw(st.lists(elements, min_size=n, max_size=n))


@st.composite
def _compare_cases(draw):
    shape = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    a, b = (
        np.array(draw(_compare_fields(shape[0] * shape[1])), dtype=np.int32).reshape(shape)
        for _ in range(2)
    )
    # None keeps the default block; 21 and 2 split 4 limb rows into blocks
    # of 5 pixels and of 1. The histogram, edge and sign pass runs in blocks
    # of 1, 7 or 64 pixels, or the default 2^16.
    return (
        a,
        b,
        draw(st.sampled_from([None, 21, 2])),
        draw(st.sampled_from([None, 1, 7, 64])),
    )


def _check_compare_against_oracle(a, b):
    rep = compare_responses(ResponseField(a), ResponseField(b), 1.0)
    expected = oracle_compare(a, b)
    assert (rep.a.mean_magnitude, rep.b.mean_magnitude) == expected["mean"]
    assert (rep.a.stddev_magnitude, rep.b.stddev_magnitude) == expected["stddev"]
    assert rep.magnitude_correlation == expected["correlation"]
    assert (rep.a.histogram, rep.b.histogram) == expected["histogram"]
    assert (rep.a.edge_density, rep.b.edge_density) == expected["edge_density"]
    assert rep.sign_agreement == expected["sign_agreement"]


class TestCompareResponses:
    def _field(self, values):
        return ResponseField(np.asarray(values, dtype=np.int32))

    @given(_compare_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_exact_oracle(self, case):
        a, b, block_samples, block = case
        with pytest.MonkeyPatch.context() as patch:
            if block_samples is not None:
                patch.setattr(analysis, "_BLOCK_SAMPLES", block_samples)
            if block is not None:
                patch.setattr(analysis, "_BLOCK", block)
            _check_compare_against_oracle(a, b)

    def test_two_blocks_equal_exact_oracle(self, rng):
        # 300 x 300 pixels take two default blocks of 2^16, the second partial.
        a = rng.integers(_INT32_MIN, _INT32_MAX, (300, 300), dtype=np.int32)
        b = rng.integers(-5000, 5000, (300, 300), dtype=np.int32)
        a[0, :2] = [_INT32_MIN, _INT32_MAX]
        _check_compare_against_oracle(a, b)

    def test_peak_memory_below_six_frames(self, rng):
        # Two uint32 magnitude frames plus np.frexp's float64 mantissa and
        # int32 exponent; no float64 magnitude copies.
        a, b = (
            self._field(rng.integers(-(2**20), 2**20, (1024, 1024), dtype=np.int32))
            for _ in range(2)
        )
        _, peak = traced_peak(compare_responses, a, b, 8.0)
        assert peak < 6 * a.samples.nbytes, peak / a.samples.nbytes

    def test_peak_memory_below_three_frames(self, rng):
        # The two uint32 magnitude frames; the histogram exponents, the edge
        # count and the sign agreement run in blocks.
        a, b = (
            self._field(rng.integers(-(2**20), 2**20, (1024, 1024), dtype=np.int32))
            for _ in range(2)
        )
        _, peak = traced_peak(compare_responses, a, b, 8.0)
        assert peak < 3 * a.samples.nbytes, peak / a.samples.nbytes

    def test_identical_fields(self, rng):
        values = rng.integers(-200, 200, (8, 8)).astype(np.int32)
        rep = compare_responses(self._field(values), self._field(values), 10.0)
        assert rep.magnitude_correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.sign_agreement == 1.0
        assert rep.a == rep.b

    def test_scaled_field(self, rng):
        values = rng.integers(-100, 100, (8, 8)).astype(np.int32)
        rep = compare_responses(self._field(2 * values), self._field(values), 30.0)
        assert rep.magnitude_correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.a.edge_density >= rep.b.edge_density

    def test_histogram_binning(self):
        # magnitude 0 -> bin 0; magnitude m in [2^(k-1), 2^k) -> bin k
        field = self._field([[0, 1, -2, 3, 4, -8]])
        rep = compare_responses(field, field, 1.0)
        hist = list(rep.a.histogram)
        assert len(hist) == 32
        assert hist[0] == 1   # 0
        assert hist[1] == 1   # 1
        assert hist[2] == 2   # 2, 3
        assert hist[3] == 1   # 4
        assert hist[4] == 1   # 8
        assert sum(hist) == 6

    def test_histogram_int32_extremes(self):
        big = self._field([[2**31 - 1, -(2**31 - 1)]])
        rep = compare_responses(big, big, 1.0)
        assert rep.a.histogram[31] == 2
        # |-2^31| = 2^31 is folded into the last bin, [2^30, 2^31].
        low = self._field([[-(2**31), 5]])
        hist = compare_responses(low, low, 1.0).a.histogram
        assert len(hist) == 32
        assert hist[31] == 1 and hist[3] == 1 and sum(hist) == 2

    def test_edge_density_strictly_above(self):
        field = self._field([[5, -5, 6]])
        rep = compare_responses(field, field, 5.0)
        assert rep.a.edge_density == pytest.approx(1 / 3)

    def test_sign_agreement_counts_zeros(self):
        a = self._field([[-5, 0, 5]])
        b = self._field([[5, 0, 5]])
        rep = compare_responses(a, b, 1.0)
        assert rep.sign_agreement == pytest.approx(2 / 3)

    def test_constant_magnitude_gives_none_correlation(self):
        a = self._field([[7, 7], [7, 7]])
        b = self._field([[1, 2], [3, 4]])
        rep = compare_responses(a, b, 1.0)
        assert rep.magnitude_correlation is None

    def test_mean_and_stddev_of_magnitudes(self):
        rep = compare_responses(
            self._field([[3, -4]]), self._field([[0, 0]]), 1.0
        )
        assert rep.a.mean_magnitude == 3.5
        assert rep.a.stddev_magnitude == 0.5

    def test_errors(self):
        a = self._field([[1, 2]])
        b = self._field([[1], [2]])
        with pytest.raises(DomainError, match="mismatch"):
            compare_responses(a, b, 1.0)
        with pytest.raises(DomainError, match="threshold"):
            compare_responses(a, a, 0.0)
        with pytest.raises(DomainError, match="empty"):
            empty = self._field(np.zeros((0, 2)))
            compare_responses(empty, empty, 1.0)

    def test_to_dict_schema(self, rng):
        values = rng.integers(-50, 50, (4, 4)).astype(np.int32)
        doc = compare_responses(self._field(values), self._field(values), 4.0).to_dict()
        assert set(doc) == {"threshold", "fields", "cross"}
        assert set(doc["fields"]) == {"a", "b"}
        assert set(doc["fields"]["a"]) == {
            "mean_magnitude", "stddev_magnitude", "edge_density", "histogram",
        }
        assert set(doc["cross"]) == {"magnitude_correlation", "sign_agreement"}
        json.dumps(doc)


class TestFeatures:
    def test_raw_passthrough(self, rng):
        img = random_image(rng, 3, 6, 6)
        assert features_for_classification(img, FeatureKind.RAW) is img

    def test_smoothed_shape_and_dtype(self, rng):
        img = random_image(rng, 3, 8, 8, "u16")
        feats = features_for_classification(img, FeatureKind.SMOOTHED)
        assert feats.n_bands == 3
        assert feats.dtype == "u8"
        assert feats.name_of(0) == "band 1 smoothed"

    def test_both_concatenates(self, rng):
        img = random_image(rng, 2, 8, 8, "u16")
        feats = features_for_classification(img, FeatureKind.BOTH)
        assert feats.n_bands == 4
        assert feats.dtype == "u16"  # smoothed u8 upcast to match raw bands
        assert np.array_equal(feats.bands[0].samples, img.bands[0].samples)
        assert feats.name_of(3) == "band 2 smoothed"

    def test_both_on_u8_keeps_u8(self, rng):
        img = random_image(rng, 2, 8, 8, "u8")
        feats = features_for_classification(img, FeatureKind.BOTH)
        assert feats.dtype == "u8"

    def test_smoothed_matches_manual_pipeline(self, rng):
        from gstk import BoundaryMode, StretchMode, convolve, stretch, smoothing_template

        img = random_image(rng, 2, 9, 9)
        feats = features_for_classification(img, FeatureKind.SMOOTHED)
        for band, feat in zip(img.bands, feats.bands):
            resp = convolve(band, smoothing_template(), BoundaryMode.REPLICATE)
            manual = stretch(resp, StretchMode.ABS_LINEAR, 2.0, 98.0)
            assert np.array_equal(feat.samples, manual.samples)

    def test_invalid_kind_rejected(self, rng):
        img = random_image(rng, 2, 4, 4)
        with pytest.raises(ValueError):
            features_for_classification(img, "sharpened")
