import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gstk
import gstk.analysis as analysis
from gstk import (
    Band,
    BoundaryMode,
    MultibandImage,
    StretchMode,
    convolve,
    read_pgm,
    scene_spec_to_json,
    smoothing_template,
    stretch,
    synth_scene,
    write_bsq,
    write_pgm,
)
from gstk.analysis import (
    FitMode,
    Roi,
    fit_classes,
    oif_report_dict,
    rois_from_labels,
)
from gstk.cli import _Stage, main
from gstk.convolve import _in_order
from conftest import (
    forced_oif_spec,
    oracle_classify,
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
    (tmp_path / "truth.pgm").write_bytes(write_pgm(Band(truth.labels)))
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
        fields = [convolve(b, smoothing_template(), BoundaryMode.REFLECT) for b in image.bands]
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
        fields = [convolve(b, smoothing_template()) for b in image.bands]
        expected = io.BytesIO()
        np.save(expected, np.stack([f.samples for f in fields]))
        assert raw.read_bytes() == expected.getvalue()
        if n_bands == 1:
            code = main(["compare", "--a", str(raw), "--b", str(raw),
                         "--threshold", "8", "--out", str(tmp_path / "cmp.json")])
            assert code == 0

    def test_peak_memory_below_eleven_frames(self, tmp_path, rng):
        # The bound allows the input payload, padded input, four responses
        # and the stretched bands; no stacked or serialized copy of an
        # output. The mapped input is not a traced allocation.
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_bands", [2, 8])
    def test_peak_memory_independent_of_band_count(
        self, tmp_path, rng, n_bands, workers
    ):
        # Bands are convolved, stretched and written as they finish, so at
        # most workers + 1 int32 fields are live (3 frames), plus a quarter
        # frame per stretched u8 band in flight and each running band's
        # tile or stretch buffers (about 1.5 frames per thread at 512^2),
        # whatever the band count. The input is mapped, not read, so its
        # payload is not a traced allocation. Holding one field per band,
        # as a convolve-everything-first order does, takes 10.75 frames at 8.
        image = random_image(rng, n_bands, 512, 512, "u16")
        header, payload = write_bsq(image)
        (tmp_path / "in.hdr").write_text(header)
        (tmp_path / "in.bsq").write_bytes(payload)
        argv = ["convolve", "--in", str(tmp_path / "in.bsq"),
                "--out", str(tmp_path / "out.bsq"),
                "--raw-out", str(tmp_path / "raw.npy"),
                "--workers", str(workers)]
        code, peak = traced_peak(main, argv)
        assert code == 0
        frame = 512 * 512 * 4
        assert peak < 8.5 * frame, peak / frame

    def test_edges_written_before_next_band_is_stretched(
        self, tmp_path, rng, monkeypatch
    ):
        # With --raw-out, one writer takes both files: band k's stretched
        # samples are in the edges temporary before band k + 1 is stretched.
        image = random_image(rng, 4, 12, 10, "u16")
        header, payload = write_bsq(image)
        (tmp_path / "in.hdr").write_text(header)
        (tmp_path / "in.bsq").write_bytes(payload)
        opened = []
        real_fdopen = os.fdopen

        def fdopen(*args, **kwargs):
            opened.append(real_fdopen(*args, **kwargs))
            return opened[-1]

        seen = []
        real_stretch = gstk.cli.stretch

        def stretch_after_check(field, *args):
            [temp] = tmp_path.glob("out.bsq.*.tmp")
            [edges] = [
                f for f in opened
                if not f.closed and os.path.samestat(os.fstat(f.fileno()), temp.stat())
            ]
            seen.append(edges.tell())
            return real_stretch(field, *args)

        monkeypatch.setattr(os, "fdopen", fdopen)
        monkeypatch.setattr(gstk.cli, "stretch", stretch_after_check)
        assert main(["convolve", "--in", str(tmp_path / "in.bsq"),
                     "--out", str(tmp_path / "out.bsq"),
                     "--raw-out", str(tmp_path / "raw.npy")]) == 0
        assert seen == [k * 12 * 10 for k in range(4)]

    @pytest.mark.parametrize("raw_out", [True, False], ids=["raw-out", "no-raw-out"])
    def test_output_replacing_mapped_input(self, tmp_path, rng, raw_out):
        # The input's pages stay mapped while its files are replaced.
        image = random_image(rng, 3, 40, 30, "u16")
        header, payload = write_bsq(image)
        for stem in ("x", "fresh-in"):
            (tmp_path / f"{stem}.hdr").write_text(header)
            (tmp_path / f"{stem}.bsq").write_bytes(payload)
        for stem, src in (("fresh", "fresh-in"), ("x", "x")):
            argv = ["convolve", "--in", str(tmp_path / f"{src}.hdr"),
                    "--out", str(tmp_path / f"{stem}.hdr")]
            if raw_out:
                argv += ["--raw-out", str(tmp_path / f"{stem}.npy")]
            assert main(argv) == 0
        for suffix in (".hdr", ".bsq") + ((".npy",) if raw_out else ()):
            assert (tmp_path / f"x{suffix}").read_bytes() == (
                tmp_path / f"fresh{suffix}"
            ).read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("n_bands, name", [(1, "out.pgm"), (3, "out.bsq")])
    def test_output_bytes_identical_for_any_worker_count(
        self, tmp_path, rng, monkeypatch, n_bands, name
    ):
        # Three tiles per band and eight CPUs on any host: 3 bands run as
        # band tasks, 1 band gets every worker as a tile thread.
        monkeypatch.setattr(sys.modules["gstk.convolve"], "_TILE_SAMPLES", 5 * 13)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        image = random_image(rng, n_bands, 15, 13, "u16")
        if n_bands == 1:
            (tmp_path / "in.pgm").write_bytes(write_pgm(image.bands[0]))
            src = tmp_path / "in.pgm"
        else:
            header, payload = write_bsq(image)
            (tmp_path / "in.hdr").write_text(header)
            (tmp_path / "in.bsq").write_bytes(payload)
            src = tmp_path / "in.bsq"
        outputs = []
        for workers in (1, 2, 5):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            code = main(["convolve", "--in", str(src), "--out", str(out / name),
                         "--raw-out", str(out / "raw.npy"), "--boundary", "reflect",
                         "--workers", str(workers)])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        fields = [convolve(b, smoothing_template(), BoundaryMode.REFLECT) for b in image.bands]
        stack = io.BytesIO()
        np.save(stack, np.stack([f.samples for f in fields]))
        assert outputs[0]["raw.npy"] == stack.getvalue()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("raw_out", [True, False], ids=["raw-out", "no-raw-out"])
    @pytest.mark.parametrize("fault, code", [("stretch", 3), ("write", 2)])
    def test_mid_stream_failure_leaves_targets(
        self, tmp_path, rng, monkeypatch, fault, code, raw_out, workers
    ):
        # Band 3's stretch refuses its field, or the second band payload
        # written to any file fails: either happens after some temporaries
        # hold bands, and no target may change.
        image = random_image(rng, 5, 12, 10, "u16")
        header, payload = write_bsq(image)
        (tmp_path / "in.hdr").write_text(header)
        (tmp_path / "in.bsq").write_bytes(payload)
        targets = ["out.hdr", "out.bsq"] + (["raw.npy"] if raw_out else [])
        for target in targets:
            (tmp_path / target).write_bytes(b"old " + target.encode())
        if fault == "stretch":
            doomed = convolve(image.bands[3], smoothing_template()).samples
            real_stretch = gstk.cli.stretch

            def refusing_stretch(field, *args):
                if np.array_equal(field.samples, doomed):
                    raise gstk.DomainError("band 3 refused")
                return real_stretch(field, *args)

            monkeypatch.setattr(gstk.cli, "stretch", refusing_stretch)
        else:
            payload_writes = []
            real_fdopen = os.fdopen

            class FailingFile:
                def __init__(self, f):
                    self._f = f

                def write(self, data):
                    if isinstance(data, np.ndarray):
                        payload_writes.append(data.nbytes)
                        if len(payload_writes) == 2:
                            raise OSError("disk full")
                    return self._f.write(data)

                def writelines(self, lines):
                    for line in lines:
                        self.write(line)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self._f.close()

            monkeypatch.setattr(
                os, "fdopen", lambda *a, **kw: FailingFile(real_fdopen(*a, **kw))
            )
        argv = ["convolve", "--in", str(tmp_path / "in.bsq"),
                "--out", str(tmp_path / "out.bsq"), "--workers", str(workers)]
        if raw_out:
            argv += ["--raw-out", str(tmp_path / "raw.npy")]
        assert main(argv) == code
        for target in targets:
            assert (tmp_path / target).read_bytes() == b"old " + target.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["in.hdr", "in.bsq"] + targets
        )

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
        first, second, third = (tmp_path / f"{n}.bin" for n in ("a", "b", "c"))
        for path in (first, second, third):
            path.write_bytes(b"old " + path.name.encode())

        def fail_part_way(f, g):
            # Both temporaries exist before the writer runs.
            assert len(list(tmp_path.glob("*.tmp"))) == 3
            f.write(b"partial")
            raise OSError("disk full")

        stage = _Stage()
        stage.add_bytes(str(first), b"new first")
        stage.add_writer(str(second), str(third), write=fail_part_way)
        with pytest.raises(OSError, match="disk full"):
            stage.commit()
        for path in (first, second, third):
            assert path.read_bytes() == b"old " + path.name.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.bin", "c.bin"]

    def test_one_writer_for_two_files_renames_in_add_order(self, tmp_path, monkeypatch):
        renamed = []
        real_replace = os.replace
        monkeypatch.setattr(
            "gstk.cli.os.replace", lambda src, dst: (renamed.append(dst), real_replace(src, dst))
        )

        def write(f, g):
            for k in range(3):
                f.write(b"f%d" % k)
                g.write(b"g%d" % k)

        stage = _Stage()
        stage.add_writer(str(tmp_path / "x"), str(tmp_path / "y"), write=write)
        stage.add_text(str(tmp_path / "z"), "z")
        stage.commit()
        assert renamed == [str(tmp_path / n) for n in "xyz"]
        assert (tmp_path / "x").read_bytes() == b"f0f1f2"
        assert (tmp_path / "y").read_bytes() == b"g0g1g2"

    def test_one_writer_twice_to_one_file_is_refused(self, tmp_path):
        stage = _Stage()
        with pytest.raises(gstk.DomainError, match="two outputs"):
            stage.add_writer(str(tmp_path / "x"), str(tmp_path / "x"), write=print)
        stage.add_writer(str(tmp_path / "x"), write=print)


class TestInOrder:
    def test_order_and_in_flight_bound_under_contention(self):
        # More threads than cores and a short switch interval: results come
        # back in item order, and no more than threads + 1 tasks are ever
        # running or finished but not yet taken.
        lock = threading.Lock()
        live: set[int] = set()
        most = 0

        def task(i):
            nonlocal most
            with lock:
                live.add(i)
                most = max(most, len(live))
            np.sort(np.arange(2000)[::-1])
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            taken = []
            for i in _in_order(task, range(300), 6):
                taken.append(i)
                with lock:
                    live.discard(i)
        finally:
            sys.setswitchinterval(interval)
        assert taken == list(range(300))
        assert 1 < most <= 7, most

    def test_closing_early_starts_no_further_task(self):
        # Closing cancels the queued tasks and waits for the running ones;
        # 5 results taken on 3 threads have submitted at most 5 + 3 tasks.
        started = []
        results = _in_order(lambda i: started.append(i) or i, range(100), 3)
        assert [next(results) for _ in range(5)] == list(range(5))
        results.close()
        count = len(started)
        time.sleep(0.05)
        assert len(started) == count <= 5 + 3

    @pytest.mark.parametrize("threads", [1, 3])
    def test_task_error_raised_at_its_item(self, threads):
        # Items before the failing one are yielded; its exception comes
        # where its result would have, and no task past the in-flight
        # bound after it is started, then or later.
        started = []

        def task(i):
            started.append(i)
            if i == 10:
                raise ValueError("item 10 failed")
            return i

        results = _in_order(task, range(100), threads)
        assert [next(results) for _ in range(10)] == list(range(10))
        with pytest.raises(ValueError, match="item 10 failed"):
            next(results)
        count = len(started)
        time.sleep(0.05)
        assert len(started) == count
        assert max(started) <= 10 + threads


def _fail_oif_after_first_block(monkeypatch) -> list[str]:
    """Make the OIF writer raise OSError once its first block is written.

    Returns the list of blocks handed to the file.
    """
    blocks = analysis.OifReport._blocks
    written = []

    def failing(report):
        for block in blocks(report):
            written.append(block)
            yield block
            raise OSError("disk full")

    monkeypatch.setattr(analysis.OifReport, "_blocks", failing)
    return written


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

    def test_one_band_image_blames_band_count(self, tmp_path, capsys):
        band = Band(np.arange(16, dtype=np.uint8).reshape(4, 4))
        (tmp_path / "one.pgm").write_bytes(write_pgm(band))
        code = main(["oif", "--in", str(tmp_path / "one.pgm"),
                     "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "OIF ranking needs at least 3 bands, got 1" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_failed_write_part_way_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        _write_scene(tmp_path, forced_oif_spec())
        before = sorted(p.name for p in tmp_path.iterdir())
        written = _fail_oif_after_first_block(monkeypatch)
        code = main(["oif", "--in", str(tmp_path / "scene.bsq"),
                     "--out", str(tmp_path / "oif.json")])
        assert code == 2
        assert len(written) == 1
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before


def _no_features(*args):
    raise AssertionError("features were computed")


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

    def test_roi_raster_of_another_size_is_domain_error(self, tmp_path, capsys):
        image = tmp_path / "img.pgm"
        image.write_bytes(write_pgm(Band(np.arange(64, dtype=np.uint8).reshape(8, 8))))
        rois = tmp_path / "small.pgm"
        rois.write_bytes(write_pgm(Band(np.ones((4, 4), dtype=np.uint8))))
        code = main(["classify", "--in", str(image), "--rois", str(rois),
                     "--features", "raw", "--out-map", str(tmp_path / "map.pgm")])
        assert code == 3
        err = capsys.readouterr().err
        assert "4x4" in err and "8x8" in err
        assert not (tmp_path / "map.pgm").exists()

    @pytest.mark.parametrize("label", [3, 65535])
    def test_truth_label_above_class_count_is_domain_error(
        self, tmp_path, capsys, monkeypatch, label
    ):
        # Refused before the (label + 1)^2 confusion counts are allocated,
        # and before any feature is computed.
        monkeypatch.setattr(analysis, "features_for_classification", _no_features)
        image = tmp_path / "img.pgm"
        image.write_bytes(write_pgm(Band(np.arange(64, dtype=np.uint8).reshape(8, 8))))
        rois = np.zeros((8, 8), dtype=np.uint16)
        rois[:4], rois[4:] = 1, 2
        (tmp_path / "rois.pgm").write_bytes(write_pgm(Band(rois)))
        truth = rois.copy()
        truth[7, 7] = label
        (tmp_path / "truth.pgm").write_bytes(write_pgm(Band(truth)))
        code = main(["classify", "--in", str(image),
                     "--rois", str(tmp_path / "rois.pgm"),
                     "--truth", str(tmp_path / "truth.pgm"),
                     "--features", "raw",
                     "--out-map", str(tmp_path / "map.pgm"),
                     "--out-confusion", str(tmp_path / "c.json")])
        assert code == 3
        assert f"truth label {label} exceeds the 2 classes" in capsys.readouterr().err
        assert not (tmp_path / "map.pgm").exists()
        assert not (tmp_path / "c.json").exists()

    def test_truth_raster_of_another_size_refused_before_features(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(analysis, "features_for_classification", _no_features)
        image = tmp_path / "img.pgm"
        image.write_bytes(write_pgm(Band(np.arange(64, dtype=np.uint8).reshape(8, 8))))
        (tmp_path / "truth.pgm").write_bytes(write_pgm(Band(np.ones((4, 4), np.uint8))))
        code = main(["classify", "--in", str(image), "--rois", str(image),
                     "--truth", str(tmp_path / "truth.pgm"),
                     "--out-map", str(tmp_path / "map.pgm"),
                     "--out-confusion", str(tmp_path / "c.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'truth.pgm'}: truth raster is 4x4, the image is 8x8" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.pgm", "truth.pgm"]

    def test_confusion_requires_truth(self, tmp_path, monkeypatch):
        # Refused before the image is even loaded.
        _write_scene(tmp_path, separable_scene_spec())

        def load_image(path):
            raise AssertionError(f"{path} was loaded")

        monkeypatch.setattr(gstk.cli, "_load_image", load_image)
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "truth.pgm"),
             "--out-map", str(tmp_path / "map.pgm"),
             "--out-confusion", str(tmp_path / "c.json")]
        )
        assert code == 3
        assert not (tmp_path / "map.pgm").exists()

    def test_colliding_outputs_refused_before_load(self, tmp_path, capsys, monkeypatch):
        _write_scene(tmp_path, separable_scene_spec())

        def load_image(path):
            raise AssertionError(f"{path} was loaded")

        monkeypatch.setattr(gstk.cli, "_load_image", load_image)
        code = main(
            ["classify",
             "--in", str(tmp_path / "scene.bsq"),
             "--rois", str(tmp_path / "truth.pgm"),
             "--truth", str(tmp_path / "truth.pgm"),
             "--out-map", str(tmp_path / "m.pgm"),
             "--out-confusion", str(tmp_path / "." / "m.pgm")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"two outputs would be written to {tmp_path / '.' / 'm.pgm'}" in err
        assert not (tmp_path / "m.pgm").exists()

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

    @pytest.mark.parametrize("version", [(2, 0), (3, 0)], ids=["v2", "v3"])
    def test_accepts_later_npy_versions(self, tmp_path, rng, capsys, version):
        a = self._save_fields(tmp_path, rng)
        with open(tmp_path / "later.npy", "wb") as f:
            np.lib.format.write_array(f, a, version=version)
        assert (tmp_path / "later.npy").read_bytes()[6:8] == bytes(version)
        outputs = []
        for name in ("b.npy", "later.npy"):
            code = main(["compare", "--a", str(tmp_path / "a.npy"),
                         "--b", str(tmp_path / name),
                         "--threshold", "8", "--out", str(tmp_path / "cmp.json")])
            assert code == 0
            outputs.append(((tmp_path / "cmp.json").read_bytes(), capsys.readouterr()))
        assert outputs[1] == outputs[0]
        assert "sign agreement: 1.000000" in outputs[0][1].out

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

    @pytest.mark.parametrize(
        "bands, image, message",
        [(1, "x.pgm", "two outputs would be written to"),
         (3, "i.pgm", "cannot write 3 bands to a PGM file")],
        ids=["one-path", "bands-to-pgm"],
    )
    def test_refused_outputs_before_rendering(
        self, tmp_path, capsys, monkeypatch, bands, image, message
    ):
        doc = {
            "width": 8, "height": 8, "dtype": "u8", "seed": 4,
            "classes": [{"name": "bg", "means": [9] * bands, "sigmas": [1] * bands}],
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))

        def render(spec):
            raise AssertionError("the scene was rendered")

        monkeypatch.setattr("gstk.synth.synth_scene", render)
        code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out-image", str(tmp_path / image),
                     "--out-truth", str(tmp_path / "x.pgm")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

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


    @pytest.mark.parametrize("subcommand", ["synth", "pipeline"])
    def test_nan_sigma_is_domain_error(self, tmp_path, capsys, subcommand):
        doc = {
            "width": 8, "height": 8, "dtype": "u8", "seed": 4,
            "classes": [{"name": "bg", "means": [9], "sigmas": [float("nan")]}],
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        if subcommand == "synth":
            outputs = ["--out-image", str(tmp_path / "i.bsq"),
                       "--out-truth", str(tmp_path / "t.pgm")]
        else:
            outputs = ["--out-dir", str(tmp_path / "run")]
        code = main([subcommand, "--spec", str(tmp_path / "spec.json"), *outputs])
        assert code == 3
        assert "sigma nan is not >= 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

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
    def test_map_equals_classify_on_subgrid_truth(self, tmp_path):
        # The pipeline trains on the truth's even-row, even-column subgrid;
        # gstk classify given that subgrid as a label raster must agree.
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        out = tmp_path / "run"
        assert main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(out)]) == 0
        truth = read_pgm((out / "truth.pgm").read_bytes()).samples
        training = np.zeros_like(truth)
        training[::2, ::2] = truth[::2, ::2]
        assert not np.array_equal(training, truth)
        (tmp_path / "training.pgm").write_bytes(write_pgm(Band(training)))
        code = main(["classify", "--in", str(out / "scene.hdr"),
                     "--rois", str(tmp_path / "training.pgm"),
                     "--out-map", str(tmp_path / "m.pgm"),
                     "--truth", str(out / "truth.pgm"),
                     "--out-confusion", str(tmp_path / "c.json")])
        assert code == 0
        assert (tmp_path / "m.pgm").read_bytes() == (out / "map.pgm").read_bytes()
        # Class names differ by design: the spec's against "class k".
        ours = json.loads((tmp_path / "c.json").read_text())
        theirs = json.loads((out / "confusion.json").read_text())
        assert ours["counts"] == theirs["counts"]

    def test_fractional_bounds_map_equals_float_oracle(self, tmp_path):
        # mean_sigma boxes have fractional bounds, which classify rounds
        # inward to integers; the map must equal the one the float bounds
        # give for the written features.
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        out = tmp_path / "run"
        assert main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(out), "--features", "raw",
                     "--mode", "mean_sigma"]) == 0
        features = gstk.read_bsq(
            (out / "features.hdr").read_text(), (out / "features.bsq").read_bytes()
        )
        truth = read_pgm((out / "truth.pgm").read_bytes()).samples
        rois = [Roi(r.name, 2 * r.pixels) for r in rois_from_labels(truth[::2, ::2])]
        specs = fit_classes(features, rois, FitMode.MEAN_SIGMA, 2.0)
        assert any(lo % 1 and hi % 1 for s in specs for lo, hi in s.bounds)
        labels = read_pgm((out / "map.pgm").read_bytes()).samples
        assert len(np.unique(labels)) > 2
        assert np.array_equal(labels, oracle_classify(features, specs))

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

    def test_failed_oif_write_renames_no_output(self, tmp_path, capsys, monkeypatch):
        # oif.json is written last; when its writer fails part-way, every
        # other output is still a temporary, and all of them are removed.
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        out = tmp_path / "run"
        out.mkdir()
        others = ["scene.hdr", "scene.bsq", "truth.pgm", "features.hdr",
                  "features.bsq", "map.pgm", "confusion.json", "compare.json"]
        for name in others:
            (out / name).write_bytes(b"old")
        written = _fail_oif_after_first_block(monkeypatch)
        code = main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(out)])
        assert code == 2
        assert len(written) == 1
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(others)
        assert all((out / name).read_bytes() == b"old" for name in others)

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

    def test_artifacts_independent_of_band_threads(self, tmp_path, capsys, monkeypatch):
        # The bound is lowered so that this small scene's band tasks run on
        # threads; every artifact and stdout must equal the serial run's.
        names = ("scene.hdr", "scene.bsq", "truth.pgm", "features.hdr",
                 "features.bsq", "map.pgm", "confusion.json", "compare.json",
                 "oif.json")
        in_order = gstk.cli._in_order
        used = []

        def spy(task, items, threads):
            used.append(threads)
            return in_order(task, items, threads)

        monkeypatch.setattr(gstk.cli, "_in_order", spy)

        def run(tag, argv):
            assert main(argv + ["--out-dir", str(tmp_path / tag)]) == 0
            files = [(tmp_path / tag / name).read_bytes() for name in names]
            return files, capsys.readouterr().out

        for seed in (1, 2, 3):
            spec = tmp_path / f"spec{seed}.json"
            spec.write_text(scene_spec_to_json(separable_scene_spec(seed=seed)))
            for features in ("smoothed", "raw", "both"):
                argv = ["pipeline", "--spec", str(spec), "--features", features]
                with monkeypatch.context() as patch:
                    patch.setattr(os, "cpu_count", lambda: 4)
                    expected = run("serial", argv)
                assert used.pop() == 1
                for cpus in (1, 2, 4):
                    with monkeypatch.context() as patch:
                        patch.setattr(os, "cpu_count", lambda: cpus)
                        patch.setattr(gstk.cli, "_THREADED_BAND_PIXELS", 80 * 80)
                        assert run(f"t{cpus}", argv) == expected, (seed, features, cpus)
                    assert used.pop() == min(cpus, 3)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_band_task_leaves_nothing(self, tmp_path, capsys, monkeypatch, cpus):
        # Band 2's task fails while the others run or have finished: the
        # error is mapped to its exit code, and nothing is written.
        import gstk.synth as synth

        renderer = synth._band_renderer

        def failing_renderer(spec, truth):
            render = renderer(spec, truth)

            def failing(b):
                if b == 2:
                    raise gstk.DomainError("band 2 failed")
                return render(b)

            return failing

        monkeypatch.setattr(synth, "_band_renderer", failing_renderer)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(gstk.cli, "_THREADED_BAND_PIXELS", 1)
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        out = tmp_path / "run"
        out.mkdir()
        code = main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(out)])
        assert code == 3
        assert "band 2 failed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    def test_out_dir_that_is_a_file_refused_before_rendering(
        self, tmp_path, capsys, monkeypatch
    ):
        import gstk.synth as synth

        def renderer(spec, truth):
            raise AssertionError("a band renderer was built")

        monkeypatch.setattr(synth, "_band_renderer", renderer)
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        (tmp_path / "afile").write_bytes(b"")
        code = main(["pipeline", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(tmp_path / "afile")])
        assert code == 2
        assert "File exists" in capsys.readouterr().err
        assert (tmp_path / "afile").read_bytes() == b""


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
            (["classify", "--in", "i.pgm", "--rois", "r.json", "--out-map", "m.pgm",
              "--k", "nan"],
             "argument --k: must be >= 0, got nan"),
            (["pipeline", "--spec", "s.json", "--out-dir", "run", "--k", "nan"],
             "argument --k: must be >= 0, got nan"),
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

    def test_start_does_not_import_thread_pool(self):
        # Only convolve with more than one thread needs concurrent.futures.
        src = os.path.dirname(os.path.dirname(gstk.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = "import sys, gstk.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_import_defaults_openblas_to_one_thread(self, preset, expected):
        src = os.path.dirname(os.path.dirname(gstk.__file__))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, gstk; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    def test_convolve_imports_neither_synth_nor_analysis(self, tmp_path):
        # Their names in gstk resolve on first use, and the CLI imports
        # them only in the commands that need them.
        (tmp_path / "in.pgm").write_bytes(write_pgm(Band(np.eye(4, dtype=np.uint8))))
        src = os.path.dirname(os.path.dirname(gstk.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = (
            "import sys, gstk, gstk.cli\n"
            "lazy = ('gstk.synth', 'gstk.analysis')\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "gstk.cli.main(['convolve', '--in', sys.argv[1], '--out', sys.argv[2]])\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "missing = [n for n in gstk.__all__ if getattr(gstk, n, None) is None]\n"
            "print(missing, gstk.synth_scene is gstk.synth.synth_scene,\n"
            "      gstk.classify is gstk.analysis.classify)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "in.pgm"),
             str(tmp_path / "out.pgm")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]", "convolved 1 band(s) with smooth5 (replicate)", "[]", "[] True True"
        ]

    def test_pipeline_and_classify_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique without return_counts imports numpy.ma (numpy 2.4).
        (tmp_path / "spec.json").write_text(scene_spec_to_json(separable_scene_spec()))
        src = os.path.dirname(os.path.dirname(gstk.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = (
            "import os, sys, gstk.cli\n"
            "d = sys.argv[1]\n"
            "run = os.path.join(d, 'run')\n"
            "gstk.cli.main(['pipeline', '--spec', os.path.join(d, 'spec.json'),\n"
            "               '--out-dir', run])\n"
            "print('numpy.ma' in sys.modules)\n"
            "gstk.cli.main(['classify', '--in', os.path.join(run, 'scene.hdr'),\n"
            "               '--rois', os.path.join(run, 'truth.pgm'),\n"
            "               '--out-map', os.path.join(d, 'map.pgm')])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[2:] == ["False", "classified 6400 pixels into 3 classes", "False"]

    def test_parser_choices_are_the_enum_values(self):
        assert gstk.cli._FIT_MODES == tuple(m.value for m in FitMode)
        assert gstk.cli._FEATURE_KINDS == tuple(m.value for m in analysis.FeatureKind)
        assert sorted(set(gstk.__all__) - set(dir(gstk))) == []


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


def _int32_npy(shape, payload_bytes):
    """A version 1.0 ``.npy`` int32 header for ``shape``, then zero bytes."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<i4", "fortran_order": False, "shape": shape}
    )
    return header.getvalue() + bytes(payload_bytes)


_COMPARE_F = ["compare", "--a", "{f}", "--b", "{f}", "--threshold", "1",
              "--out", "{d}/c.json"]


class TestMalformedInputs:
    """Undecodable or foreign input files are format errors naming the file."""

    @pytest.mark.parametrize(
        "name, data, argv",
        [
            ("f.npz", None, _COMPARE_F),
            ("e.npy", b"", _COMPARE_F),
            # 4 TiB declared, far above any host's memory: refused from the
            # header and the file's length, before anything is allocated.
            ("h.npy", _int32_npy((1 << 20, 1 << 20), 64), _COMPARE_F),
            ("t.npy", _int32_npy((4, 4), 60), _COMPARE_F),
            ("l.npy", _int32_npy((4, 4), 68), _COMPARE_F),
            ("v.npy", b"\x93NUMPY\x04\x00" + _int32_npy((4, 4), 64)[8:], _COMPARE_F),
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
        ids=["npz", "empty-npy", "huge-npy", "truncated-npy", "trailing-npy", "v4-npy",
             "bsq-header", "kernel", "synth-spec", "pipeline-spec", "roi-json"],
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


class TestEmptyInputs:
    """A zero-width input is refused when its raster is built (exit 3)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["convolve", "--in", "{src}/e.pgm", "--out", "{d}/o.pgm"],
            ["oif", "--in", "{src}/e.bsq", "--out", "{d}/oif.json"],
            ["classify", "--in", "{src}/e.bsq", "--rois", "{in}",
             "--out-map", "{d}/m.pgm"],
            ["compare", "--a", "{src}/e.npy", "--b", "{src}/e.npy",
             "--threshold", "1", "--out", "{d}/c.json"],
        ],
        ids=["convolve-pgm", "oif-bsq", "classify-bsq", "compare-npy"],
    )
    def test_is_domain_error(self, tmp_path, capsys, argv):
        src = tmp_path / "src"
        src.mkdir()
        (src / "e.pgm").write_bytes(b"P5\n0 4\n255\n")
        (src / "e.hdr").write_text(
            "magic=GSTK1\nwidth=0\nheight=4\nbands=3\ndtype=u8\nbyteorder=le\n"
        )
        (src / "e.bsq").write_bytes(b"")
        np.save(src / "e.npy", np.zeros((4, 0), dtype=np.int32))
        out = tmp_path / "out"
        out.mkdir()
        argv = _fill(argv, src=str(src), d=str(out), **{"in": _tiny_pgm(tmp_path)})
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "domain error" in err and "empty (0x4 pixels)" in err
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
