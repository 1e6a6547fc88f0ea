import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gstk
from gstk import (
    Band,
    BoundaryMode,
    MultibandImage,
    StretchMode,
    convolve,
    convolve_image,
    read_pgm,
    scene_spec_to_json,
    smoothing_template,
    stretch,
    synth_scene,
    write_bsq,
    write_pgm,
)
from gstk.analysis import classification_to_band, oif_report_dict
from gstk.cli import _Stage, main
from conftest import (
    forced_oif_spec,
    random_band,
    random_image,
    separable_scene_spec,
    traced_peak,
)

SMOOTH5_TEXT = "0 0 1 0 0\n0 2 -4 2 0\n1 -4 4 -4 1\n0 2 -4 2 0\n0 0 1 0 0\n"
LAPLACIAN3_TEXT = "-1 -1 -1\n-1 8 -1\n-1 -1 -1\n"
QUADRANT_TEXT = "anchor 2 2\n0 0 1\n0 2 -4\n1 -4 4\n"


def _write_scene(tmp_path, spec):
    """Render a spec and store it the way the CLI expects inputs."""
    image, truth = synth_scene(spec)
    header, payload = write_bsq(image)
    (tmp_path / "scene.hdr").write_text(header)
    (tmp_path / "scene.bsq").write_bytes(payload)
    (tmp_path / "truth.pgm").write_bytes(write_pgm(classification_to_band(truth)))
    (tmp_path / "spec.json").write_text(scene_spec_to_json(spec))
    return image, truth


class TestDerive:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("smooth5", SMOOTH5_TEXT),
            ("laplacian3", LAPLACIAN3_TEXT),
            ("quadrant", QUADRANT_TEXT),
        ],
    )
    def test_golden_kernel_files(self, tmp_path, name, expected):
        out = tmp_path / f"{name}.txt"
        assert main(["derive", "--kernel", name, "--out", str(out)]) == 0
        assert out.read_text() == expected

    def test_unknown_kernel_is_domain_error(self, tmp_path):
        code = main(["derive", "--kernel", "gauss", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_unwritable_path_is_io_error(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "k.txt"
        assert main(["derive", "--out", str(out)]) == 2


class TestConvolve:
    def test_matches_library_byte_for_byte(self, tmp_path, rng):
        spec = separable_scene_spec()
        image, _ = _write_scene(tmp_path, spec)
        out = tmp_path / "smoothed.bsq"
        raw = tmp_path / "raw.npy"
        code = main(
            [
                "convolve",
                "--in", str(tmp_path / "scene.bsq"),
                "--out", str(out),
                "--raw-out", str(raw),
                "--boundary", "reflect",
            ]
        )
        assert code == 0
        fields = convolve_image(image, smoothing_template(), BoundaryMode.REFLECT)
        stretched = MultibandImage(
            tuple(stretch(f, StretchMode.ABS_LINEAR, 2.0, 98.0) for f in fields),
        )
        header, payload = write_bsq(stretched)
        assert (tmp_path / "smoothed.hdr").read_text() == header
        assert out.read_bytes() == payload
        stack = np.load(raw)
        assert stack.shape == (3, spec.height, spec.width)
        for field, plane in zip(fields, stack):
            assert np.array_equal(field.samples, plane)

    @pytest.mark.parametrize("dtype", ["u8", "u16"])
    @pytest.mark.parametrize("n_bands", [1, 3])
    def test_raw_out_equals_np_save(self, tmp_path, rng, n_bands, dtype):
        image = random_image(rng, n_bands, 11, 13, dtype)
        header, payload = write_bsq(image)
        (tmp_path / "in.hdr").write_text(header)
        (tmp_path / "in.bsq").write_bytes(payload)
        raw = tmp_path / "raw.npy"
        code = main(["convolve", "--in", str(tmp_path / "in.bsq"),
                     "--out", str(tmp_path / "out.bsq"), "--raw-out", str(raw)])
        assert code == 0
        fields = convolve_image(image, smoothing_template())
        expected = io.BytesIO()
        np.save(expected, np.stack([f.samples for f in fields]))
        assert raw.read_bytes() == expected.getvalue()
        if n_bands == 1:
            code = main(["compare", "--a", str(raw), "--b", str(raw),
                         "--threshold", "8", "--out", str(tmp_path / "cmp.json")])
            assert code == 0

    def test_peak_memory_below_eleven_frames(self, tmp_path, rng):
        # Input payload, padded input, four responses and the stretched
        # bands; no stacked or serialized copy of an output.
        image = random_image(rng, 4, 512, 512, "u16")
        header, payload = write_bsq(image)
        (tmp_path / "in.hdr").write_text(header)
        (tmp_path / "in.bsq").write_bytes(payload)
        argv = ["convolve", "--in", str(tmp_path / "in.bsq"),
                "--out", str(tmp_path / "out.bsq"),
                "--raw-out", str(tmp_path / "raw.npy")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        frame = 512 * 512 * 4
        assert peak < 11 * frame, peak / frame

    def test_pgm_single_band(self, tmp_path, rng):
        band = random_band(rng, 9, 9)
        (tmp_path / "in.pgm").write_bytes(write_pgm(band))
        out = tmp_path / "out.pgm"
        code = main(
            ["convolve", "--in", str(tmp_path / "in.pgm"), "--out", str(out)]
        )
        assert code == 0
        expected = stretch(
            convolve(band, smoothing_template()), StretchMode.ABS_LINEAR, 2.0, 98.0
        )
        assert out.read_bytes() == write_pgm(expected)

    def test_constant_scene_all_zero(self, tmp_path):
        band = Band(np.full((8, 8), 123, dtype=np.uint8))
        (tmp_path / "in.pgm").write_bytes(write_pgm(band))
        out = tmp_path / "out.pgm"
        assert main(["convolve", "--in", str(tmp_path / "in.pgm"), "--out", str(out)]) == 0
        assert not read_pgm(out.read_bytes()).samples.any()

    def test_kernel_from_file(self, tmp_path, rng):
        band = random_band(rng, 7, 7)
        (tmp_path / "in.pgm").write_bytes(write_pgm(band))
        (tmp_path / "k.txt").write_text(LAPLACIAN3_TEXT)
        out_file = tmp_path / "via_file.pgm"
        out_name = tmp_path / "via_name.pgm"
        kernel_arg = "file:" + str(tmp_path / "k.txt")
        assert main(["convolve", "--in", str(tmp_path / "in.pgm"),
                     "--out", str(out_file), "--kernel", kernel_arg]) == 0
        assert main(["convolve", "--in", str(tmp_path / "in.pgm"),
                     "--out", str(out_name), "--kernel", "laplacian3"]) == 0
        assert out_file.read_bytes() == out_name.read_bytes()

    @pytest.mark.parametrize("width, code", [(255, 0), (257, 3)])
    def test_kernel_side_budget(self, tmp_path, rng, capsys, width, code):
        (tmp_path / "in.pgm").write_bytes(write_pgm(random_band(rng, 6, 6)))
        row = ["0"] * width
        row[width // 2] = "1"
        (tmp_path / "k.txt").write_text(" ".join(row) + "\n")
        out = tmp_path / "out.pgm"
        assert main(["convolve", "--in", str(tmp_path / "in.pgm"), "--out", str(out),
                     "--kernel", "file:" + str(tmp_path / "k.txt")]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "domain error: kernel has more than 255" in capsys.readouterr().err

    def test_multiband_to_pgm_rejected(self, tmp_path):
        _write_scene(tmp_path, separable_scene_spec())
        code = main(
            ["convolve", "--in", str(tmp_path / "scene.bsq"),
             "--out", str(tmp_path / "out.pgm")]
        )
        assert code == 3

    def test_bad_boundary_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convolve", "--in", "x.pgm", "--out", "y.pgm",
                  "--boundary", "wrap"])
        assert exc.value.code == 1

    def test_failed_run_leaves_no_partial_output(self, tmp_path, rng):
        band = random_band(rng, 6, 6)
        (tmp_path / "in.pgm").write_bytes(write_pgm(band))
        out = tmp_path / "out.pgm"
        raw = tmp_path / "missing-dir" / "raw.npy"
        code = main(
            ["convolve", "--in", str(tmp_path / "in.pgm"),
             "--out", str(out), "--raw-out", str(raw)]
        )
        assert code == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_rename_keeps_earlier_files_replaced(
        self, tmp_path, rng, monkeypatch
    ):
        # Each file is replaced atomically, the set is not: when the second
        # rename fails, the first output already holds the new bytes.
        band = random_band(rng, 6, 6)
        (tmp_path / "in.pgm").write_bytes(write_pgm(band))
        out = tmp_path / "out.pgm"
        raw = tmp_path / "raw.npy"
        out.write_bytes(b"old")
        raw.write_bytes(b"old")
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr("gstk.cli.os.replace", replace)
        code = main(["convolve", "--in", str(tmp_path / "in.pgm"),
                     "--out", str(out), "--raw-out", str(raw)])
        assert code == 2
        assert calls == [str(out), str(raw)]
        expected = stretch(
            convolve(band, smoothing_template()), StretchMode.ABS_LINEAR, 2.0, 98.0
        )
        assert out.read_bytes() == write_pgm(expected)
        assert raw.read_bytes() == b"old"
        assert not list(tmp_path.glob("*.tmp"))


class TestStage:
    def test_failing_writer_leaves_old_files_and_no_temporaries(self, tmp_path):
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        first.write_bytes(b"old first")
        second.write_bytes(b"old second")

        def fail_part_way(f):
            f.write(b"partial")
            raise OSError("disk full")

        stage = _Stage()
        stage.add_bytes(str(first), b"new first")
        stage.add_writer(str(second), fail_part_way)
        with pytest.raises(OSError, match="disk full"):
            stage.commit()
        assert first.read_bytes() == b"old first"
        assert second.read_bytes() == b"old second"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.bin", "second.bin"]


class TestOif:
    def test_report_matches_library(self, tmp_path):
        image, _ = _write_scene(tmp_path, forced_oif_spec())
        out = tmp_path / "oif.json"
        assert main(["oif", "--in", str(tmp_path / "scene.bsq"), "--out", str(out)]) == 0
        expected = json.dumps(oif_report_dict(image), indent=2) + "\n"
        assert out.read_bytes() == expected.encode("ascii")

    def test_top_triple_on_stdout(self, tmp_path, capsys):
        _write_scene(tmp_path, forced_oif_spec())
        main(["oif", "--in", str(tmp_path / "scene.bsq"),
              "--out", str(tmp_path / "o.json")])
        assert "top triple: (1, 4, 5)" in capsys.readouterr().out

    def test_zero_variance_band_is_domain_error(self, tmp_path, capsys):
        bands = tuple(Band(np.full((4, 4), v, dtype=np.uint8)) for v in (1, 2, 3))
        header, payload = write_bsq(MultibandImage(bands))
        (tmp_path / "flat.hdr").write_text(header)
        (tmp_path / "flat.bsq").write_bytes(payload)
        code = main(["oif", "--in", str(tmp_path / "flat.bsq"),
                     "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "zero-variance" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestClassify:
    def test_with_label_raster_rois(self, tmp_path, capsys):
        image, truth = _write_scene(tmp_path, separable_scene_spec())
        out_map = tmp_path / "map.pgm"
        out_conf = tmp_path / "conf.json"
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "truth.pgm"),
             "--out-map", str(out_map),
             "--truth", str(tmp_path / "truth.pgm"),
             "--out-confusion", str(out_conf),
             "--features", "raw"]
        )
        assert code == 0
        assert "overall accuracy: 1.000000" in capsys.readouterr().out
        labels = read_pgm(out_map.read_bytes()).samples
        assert np.array_equal(labels.astype(np.int32), truth.labels)
        doc = json.loads(out_conf.read_text())
        assert doc["overall_accuracy"] == 1.0
        assert doc["classes"] == ["unclassified", "class 1", "class 2", "class 3"]

    def test_with_runs_json_rois(self, tmp_path, capsys):
        _write_scene(tmp_path, separable_scene_spec())
        rois = {
            "classes": [
                {"name": "sea", "runs": [[0, 0, 8], [1, 0, 8]]},
                {"name": "forest", "runs": [[10, 10, 8], [11, 10, 8]]},
                {"name": "soil", "runs": [[50, 35, 8], [51, 35, 8]]},
            ]
        }
        (tmp_path / "rois.json").write_text(json.dumps(rois))
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "rois.json"),
             "--out-map", str(tmp_path / "map.pgm"),
             "--features", "raw"]
        )
        assert code == 0
        assert "classified 6400 pixels into 3 classes" in capsys.readouterr().out

    def test_roi_run_outside_image_is_domain_error(self, tmp_path, capsys):
        # Checked against the image before any pixel of the run is built.
        _write_scene(tmp_path, separable_scene_spec())
        rois = {"classes": [{"name": "sea", "runs": [[0, 0, 10**9]]}]}
        (tmp_path / "rois.json").write_text(json.dumps(rois))
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "rois.json"),
             "--out-map", str(tmp_path / "map.pgm")]
        )
        assert code == 3
        assert "outside the 80x80 image" in capsys.readouterr().err
        assert not (tmp_path / "map.pgm").exists()

    def test_confusion_requires_truth(self, tmp_path):
        _write_scene(tmp_path, separable_scene_spec())
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "truth.pgm"),
             "--out-map", str(tmp_path / "map.pgm"),
             "--out-confusion", str(tmp_path / "c.json")]
        )
        assert code == 3
        assert not (tmp_path / "map.pgm").exists()

    def test_mean_sigma_mode(self, tmp_path):
        _write_scene(tmp_path, separable_scene_spec())
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "truth.pgm"),
             "--out-map", str(tmp_path / "map.pgm"),
             "--mode", "mean_sigma", "--k", "4.0",
             "--features", "raw"]
        )
        assert code == 0


class TestCompare:
    def _save_fields(self, tmp_path, rng):
        a = convolve(random_band(rng, 10, 10), smoothing_template()).samples
        np.save(tmp_path / "a.npy", a)
        np.save(tmp_path / "b.npy", a)
        return a

    def test_identical_fields_full_agreement(self, tmp_path, rng, capsys):
        self._save_fields(tmp_path, rng)
        out = tmp_path / "cmp.json"
        code = main(["compare", "--a", str(tmp_path / "a.npy"),
                     "--b", str(tmp_path / "b.npy"),
                     "--threshold", "8", "--out", str(out)])
        assert code == 0
        assert "sign agreement: 1.000000" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["cross"]["magnitude_correlation"] == pytest.approx(1.0)
        assert doc["fields"]["a"] == doc["fields"]["b"]
        assert doc["threshold"] == 8.0

    def test_rejects_wrong_dtype_array(self, tmp_path):
        np.save(tmp_path / "a.npy", np.zeros((3, 3), dtype=np.float64))
        np.save(tmp_path / "b.npy", np.zeros((3, 3), dtype=np.int32))
        code = main(["compare", "--a", str(tmp_path / "a.npy"),
                     "--b", str(tmp_path / "b.npy"),
                     "--threshold", "1", "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_accepts_raw_out_of_single_band_input(self, tmp_path, rng):
        (tmp_path / "in.pgm").write_bytes(write_pgm(random_band(rng, 9, 9)))
        code = main(["convolve", "--in", str(tmp_path / "in.pgm"),
                     "--out", str(tmp_path / "out.pgm"),
                     "--raw-out", str(tmp_path / "raw.npy")])
        assert code == 0
        assert np.load(tmp_path / "raw.npy").shape == (1, 9, 9)
        out = tmp_path / "cmp.json"
        code = main(["compare", "--a", str(tmp_path / "raw.npy"),
                     "--b", str(tmp_path / "raw.npy"),
                     "--threshold", "8", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["cross"]["sign_agreement"] == 1.0

    def test_rejects_multiband_stack(self, tmp_path):
        np.save(tmp_path / "a.npy", np.zeros((3, 4, 4), dtype=np.int32))
        np.save(tmp_path / "b.npy", np.zeros((4, 4), dtype=np.int32))
        code = main(["compare", "--a", str(tmp_path / "a.npy"),
                     "--b", str(tmp_path / "b.npy"),
                     "--threshold", "1", "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert not (tmp_path / "o.json").exists()

    def test_threshold_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--a", "a.npy", "--b", "b.npy",
                  "--threshold", "0", "--out", "o.json"])
        assert exc.value.code == 1


class TestSynth:
    def test_bit_identical_runs(self, tmp_path):
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        for tag in ("one", "two"):
            code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                         "--out-image", str(tmp_path / f"{tag}.bsq"),
                         "--out-truth", str(tmp_path / f"{tag}.pgm")])
            assert code == 0
        assert (tmp_path / "one.bsq").read_bytes() == (tmp_path / "two.bsq").read_bytes()
        assert (tmp_path / "one.hdr").read_text() == (tmp_path / "two.hdr").read_text()
        assert (tmp_path / "one.pgm").read_bytes() == (tmp_path / "two.pgm").read_bytes()

    def test_truth_matches_library(self, tmp_path):
        spec = separable_scene_spec()
        (tmp_path / "spec.json").write_text(scene_spec_to_json(spec))
        main(["synth", "--spec", str(tmp_path / "spec.json"),
              "--out-image", str(tmp_path / "img.bsq"),
              "--out-truth", str(tmp_path / "t.pgm")])
        _, truth = synth_scene(spec)
        stored = read_pgm((tmp_path / "t.pgm").read_bytes())
        assert np.array_equal(stored.samples.astype(np.int32), truth.labels)

    def test_zero_noise_piecewise_constant(self, tmp_path):
        doc = {
            "width": 10, "height": 10, "dtype": "u8", "seed": 4,
            "classes": [
                {"name": "bg", "means": [20], "sigmas": [0]},
                {"name": "fg", "means": [220], "sigmas": [0]},
            ],
            "regions": [
                {"shape": "rect", "class": 2, "row": 2, "col": 2,
                 "height": 4, "width": 4},
            ],
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        main(["synth", "--spec", str(tmp_path / "spec.json"),
              "--out-image", str(tmp_path / "img.pgm"),
              "--out-truth", str(tmp_path / "t.pgm")])
        img = read_pgm((tmp_path / "img.pgm").read_bytes())
        assert set(np.unique(img.samples)) == {20, 220}

    def test_malformed_spec_is_io_error(self, tmp_path):
        (tmp_path / "spec.json").write_text("{broken")
        code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out-image", str(tmp_path / "i.bsq"),
                     "--out-truth", str(tmp_path / "t.pgm")])
        assert code == 2

    def test_invalid_spec_is_domain_error(self, tmp_path):
        doc = {
            "width": 10, "height": 10, "dtype": "u8", "seed": 4,
            "classes": [{"name": "bg", "means": [999], "sigmas": [0]}],
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out-image", str(tmp_path / "i.bsq"),
                     "--out-truth", str(tmp_path / "t.pgm")])
        assert code == 3


    def test_oversized_spec_is_domain_error(self, tmp_path, capsys):
        doc = {
            "width": 10**6, "height": 10**6, "dtype": "u8", "seed": 4,
            "classes": [{"name": "bg", "means": [9], "sigmas": [1]}],
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out-image", str(tmp_path / "i.bsq"),
                     "--out-truth", str(tmp_path / "t.pgm")])
        assert code == 3
        assert "budget" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


class TestPipeline:
    def test_produces_all_artifacts(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        out = tmp_path / "run"
        code = main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(out), "--features", "raw"])
        assert code == 0
        for name in ("scene.hdr", "scene.bsq", "truth.pgm", "features.hdr",
                     "features.bsq", "map.pgm", "confusion.json",
                     "compare.json", "oif.json"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "overall accuracy:" in stdout
        assert "top triple:" in stdout
        doc = json.loads((out / "confusion.json").read_text())
        assert doc["overall_accuracy"] >= 0.99
        image, _ = synth_scene(separable_scene_spec())
        expected = json.dumps(oif_report_dict(image), indent=2) + "\n"
        assert (out / "oif.json").read_bytes() == expected.encode("ascii")

    def test_deterministic_across_runs(self, tmp_path):
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        for tag in ("r1", "r2"):
            assert main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                         "--out-dir", str(tmp_path / tag)]) == 0
        for name in ("scene.bsq", "truth.pgm", "features.bsq", "map.pgm",
                     "confusion.json", "compare.json", "oif.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name

    @pytest.mark.parametrize(
        "regions, message",
        [
            # A 1x1 dot at (1, 1) lies off the even-row, even-column subgrid.
            ([{"shape": "rect", "class": 2, "row": 1, "col": 1, "height": 1,
               "width": 1},
              {"shape": "rect", "class": 3, "row": 8, "col": 8, "height": 4,
               "width": 4}],
             "class 'dot' (2) has no training pixel on the even-row, "
             "even-column subgrid"),
            # Class 2 is never painted.
            ([{"shape": "rect", "class": 3, "row": 2, "col": 2, "height": 4,
               "width": 4}],
             "class 'dot' (2) has no training pixel on the even-row, "
             "even-column subgrid"),
        ],
    )
    def test_class_without_training_pixel(self, tmp_path, capsys, regions, message):
        doc = {
            "width": 16, "height": 16, "dtype": "u8", "seed": 5,
            "classes": [
                {"name": "bg", "means": [20], "sigmas": [1]},
                {"name": "dot", "means": [120], "sigmas": [1]},
                {"name": "ring", "means": [220], "sigmas": [1]},
            ],
            "regions": regions,
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        code = main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


class TestExitCodes:
    def test_no_arguments_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["resample"])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["derive", "--out", "x", "--fast"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["convolve", "--in", "i.pgm", "--out", "o.pgm", "--workers", "0"],
             "argument --workers: must be >= 1, got 0"),
            (["convolve", "--in", "i.pgm", "--out", "o.pgm", "--workers", "x"],
             "argument --workers: not an integer: 'x'"),
            (["convolve", "--in", "i.pgm", "--out", "o.pgm", "--lo-pct", "101"],
             "argument --lo-pct: percentile must be in [0, 100], got 101.0"),
            (["classify", "--in", "i.pgm", "--rois", "r.json", "--out-map", "m.pgm",
              "--k", "-1"],
             "argument --k: must be >= 0, got -1.0"),
            (["compare", "--a", "a.npy", "--b", "b.npy", "--out", "o.json",
              "--threshold", "0"],
             "argument --threshold: must be > 0, got 0.0"),
        ],
    )
    def test_bad_option_value_is_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["oif", "--in", str(tmp_path / "ghost.bsq"),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_malformed_pgm_is_io_error(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")  # truncated
        code = main(["convolve", "--in", str(tmp_path / "bad.pgm"),
                     "--out", str(tmp_path / "o.pgm")])
        assert code == 2

    def test_console_script_help(self):
        # The child must import the same gstk as this test, installed or not.
        src = os.path.dirname(os.path.dirname(gstk.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "gstk", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "COMMAND" in proc.stdout


def _fill(argv, **values):
    """``argv`` with each ``{key}`` placeholder replaced by its value."""
    for key, value in values.items():
        argv = [a.replace("{" + key + "}", value) for a in argv]
    return argv


def _tiny_pgm(directory):
    path = Path(directory) / "in.pgm"
    path.write_bytes(write_pgm(Band(np.arange(16, dtype=np.uint8).reshape(4, 4))))
    return str(path)


class TestOutputCollisions:
    @pytest.mark.parametrize(
        "argv, clash",
        [
            (["convolve", "--in", "{in}", "--out", "{d}/o.pgm",
              "--raw-out", "{d}/./o.pgm"], "o.pgm"),
            (["convolve", "--in", "{in}", "--out", "{d}/o.bsq",
              "--raw-out", "{d}/o.hdr"], "o.hdr"),
            (["classify", "--in", "{in}", "--rois", "{in}", "--truth", "{in}",
              "--features", "raw", "--out-map", "{d}/m.pgm",
              "--out-confusion", "{d}/m.pgm"], "m.pgm"),
        ],
        ids=["raw-out-on-pgm", "raw-out-on-bsq-header", "confusion-on-map"],
    )
    def test_two_outputs_one_file_is_domain_error(self, tmp_path, capsys, argv, clash):
        out = tmp_path / "out"
        out.mkdir()
        argv = _fill(argv, d=str(out), **{"in": _tiny_pgm(tmp_path)})
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "domain error" in err and clash in err
        assert list(out.iterdir()) == []


class TestMalformedInputs:
    """Undecodable or foreign input files are format errors naming the file."""

    @pytest.mark.parametrize(
        "name, data, argv",
        [
            ("f.npz", None, ["compare", "--a", "{f}", "--b", "{f}",
                             "--threshold", "1", "--out", "{d}/c.json"]),
            ("e.npy", b"", ["compare", "--a", "{f}", "--b", "{f}",
                            "--threshold", "1", "--out", "{d}/c.json"]),
            ("s.hdr", b"magic=GSTK1\nwidth=4\xe9\n",
             ["convolve", "--in", "{f}", "--out", "{d}/o.pgm"]),
            ("k.txt", b"0 1 0\n1 \xff 1\n0 1 0\n",
             ["derive", "--kernel", "file:{f}", "--out", "{d}/k.txt"]),
            ("s.json", b'{"width": "\xff"}',
             ["synth", "--spec", "{f}", "--out-image", "{d}/i.pgm",
              "--out-truth", "{d}/t.pgm"]),
            ("s.json", b'{"width": "\xff"}',
             ["pipeline", "--spec", "{f}", "--out-dir", "{d}"]),
            ("r.json", b'{"classes": "\xc3"}',
             ["classify", "--in", "{in}", "--rois", "{f}", "--out-map", "{d}/m.pgm"]),
        ],
        ids=["npz", "empty-npy", "bsq-header", "kernel", "synth-spec",
             "pipeline-spec", "roi-json"],
    )
    def test_is_file_format_error(self, tmp_path, capsys, name, data, argv):
        out = tmp_path / "out"
        out.mkdir()
        path = tmp_path / name
        if data is None:
            np.savez(path, a=np.zeros((2, 2), dtype=np.int32))
        else:
            path.write_bytes(data)
        argv = _fill(argv, f=str(path), d=str(out), **{"in": _tiny_pgm(tmp_path)})
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "file format error" in err and str(path) in err
        assert list(out.iterdir()) == []


# Per input kind: the fuzzed file, prefixes that carry the random tail past
# the first format check, and a command that reads the file.
_FUZZ = {
    "pgm": ("fuzz.pgm", [b"", b"P5\n", b"P5\n4 4\n255\n"],
            ["convolve", "--in", "{f}", "--out", "{d}/o.pgm"]),
    "hdr": ("fuzz.hdr", [b"", b"magic=GSTK1\nwidth=2\nheight=2\nbands=1\n"],
            ["convolve", "--in", "{f}", "--out", "{d}/o.hdr"]),
    "kernel": ("fuzz.txt", [b"", b"anchor 0 0\n", b"1 2\n"],
               ["convolve", "--in", "{in}", "--kernel", "file:{f}",
                "--out", "{d}/o.pgm"]),
    "rois": ("fuzz.json", [b"", b'{"classes": [{"name": "a", "runs": '],
             ["classify", "--in", "{in}", "--rois", "{f}", "--out-map", "{d}/m.pgm"]),
    "scene": ("fuzz.json", [b"", b'{"width": 4, "height": 4, "dtype": "u8", "classes": '],
              ["synth", "--spec", "{f}", "--out-image", "{d}/i.pgm",
               "--out-truth", "{d}/t.pgm"]),
    "npy": ("fuzz.npy", [b"", b"\x93NUMPY\x01\x00", b"PK\x03\x04"],
            ["compare", "--a", "{f}", "--b", "{f}", "--threshold", "1",
             "--out", "{d}/c.json"]),
}


class TestFuzz:
    @pytest.mark.parametrize("kind", sorted(_FUZZ))
    def test_random_bytes_exit_cleanly(self, kind):
        name, prefixes, template = _FUZZ[kind]

        @settings(max_examples=40, deadline=None, database=None)
        @given(st.sampled_from(prefixes), st.binary(max_size=64))
        def run(prefix, tail):
            with tempfile.TemporaryDirectory() as d:
                path = Path(d) / name
                path.write_bytes(prefix + tail)
                (Path(d) / "fuzz.bsq").write_bytes(tail[:4])  # BSQ payload
                argv = _fill(template, f=str(path), d=d, **{"in": _tiny_pgm(d)})
                assert main(argv) in (0, 2, 3)
                assert not list(Path(d).glob("*.tmp"))

        run()
