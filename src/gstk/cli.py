"""Command-line interface.

Every subcommand is a thin shell over the library: it loads inputs,
calls the same functions a caller would, stages its output files and
returns its report. ``main`` is the one commit point: it hands each
subcommand a fresh ``_Stage``, commits it, and prints the report once
every output is in place.
Each output file is serialized straight into a temporary sibling, with
no in-memory copy of its bytes. ``convolve`` maps its BSQ input
read-only, so every band is a view of the file's pages, runs its band
tasks through ``convolve._in_order``, the one thread runner, and writes
its temporaries while bands are still being computed: as each band
finishes, its raw responses (with ``--raw-out``) and then its stretched
band. ``pipeline`` runs one task per band through the same runner: each
task renders its band of the scene, then convolves and stretches it into
its feature band, and band 1's task also compares the chosen response
with the Laplacian's. The tasks run on threads only when the bands are
large enough to gain (see ``_THREADED_BAND_PIXELS``); every artifact has
the same bytes either way. ``synth`` and ``classify`` stage their
outputs before any work, so an output that would be refused is refused
first, and their writers read the results at commit. The other
subcommands compute their outputs first, though ``pipeline`` creates
``--out-dir`` before it renders any band, so a run that fails later may
leave that directory empty. Only when every temporary is
written are they renamed into place one by one; any failure before then
removes every temporary and touches no target. Each file is therefore
replaced atomically and no temporary file is left behind, but the set of
files is not replaced atomically: if a later rename fails, the files
already renamed stay replaced. Truncating a mapped input while gstk runs
is outside that guarantee: the process may die by SIGBUS and leave its
temporaries behind.

The ``analysis`` and ``synth`` modules are imported only by the
subcommands that use them, so ``convolve`` does not load them.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error,
3 domain error (invalid values, zero-variance bands, two outputs that
resolve to one file, and so on).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import mmap
import os
import sys
import tempfile
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, BinaryIO

import numpy as np

from .convolve import BoundaryMode, _in_order, convolve
from .errors import DomainError, FileFormatError, GstkError
from .kernels import (
    Kernel,
    derive_quadrant_template,
    format_kernel,
    laplacian_template,
    parse_kernel,
    smoothing_template,
)
from .raster import (
    Band,
    MultibandImage,
    ResponseField,
    StretchMode,
    bsq_paths,
    _bsq_header,
    _bsq_samples,
    read_bsq,
    read_pgm,
    stretch,
    write_pgm,
)

if TYPE_CHECKING:
    from . import analysis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3

# Smallest band, in pixels, whose pipeline band tasks run on threads.
# Each run a fresh process on a 2-vCPU Xeon, 16 alternating pairs, median
# wall serial against threaded, and the pairs the threads won, for 6 u8
# bands of 512^2: 0.264 / 0.265 s, 3 of 16; 1024^2: 0.574 / 0.558 s, 4;
# 1240^2: 0.752 / 0.776 s, 1; 1448^2: 1.152 / 1.082 s, 10; 1536^2:
# 1.116 / 0.959 s, 16. 96 u16 bands of 256^2: 0.726 / 0.749 s, 7. A
# probe saw this host keep a new process's two busy threads on one CPU
# for about its first second, so short runs pay for threads and gain
# nothing.
_THREADED_BAND_PIXELS = 1_600_000

# The values of analysis.FitMode and analysis.FeatureKind, spelled out so
# that building the parser does not import analysis.
_FIT_MODES = ("minmax", "mean_sigma")
_FEATURE_KINDS = ("raw", "smoothed", "both")


# ---------------------------------------------------------------------------
# Argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool documents 1."""

    def error(self, message: str) -> None:  # pragma: no cover - thin shim
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, accept, message: str):
    """An argparse type: ``convert`` the text, then require ``accept``."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "must be >= 1, got {}")
_positive_float = _checked(float, lambda v: v > 0, "must be > 0, got {}")
_nonnegative_float = _checked(float, lambda v: v >= 0, "must be >= 0, got {}")
_percentile = _checked(
    float, lambda v: 0 <= v <= 100, "percentile must be in [0, 100], got {}"
)


def _read_text(path: str, encoding: str) -> str:
    """The whole text file; bytes that do not decode are a format error."""
    try:
        with open(path, "r", encoding=encoding) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not {encoding} text: byte {exc.start} does not decode"
        ) from None


def _kernel_from_choice(choice: str) -> Kernel:
    """Resolve {smooth5 | laplacian3 | quadrant | file:<path>}."""
    if choice == "smooth5":
        return smoothing_template()
    if choice == "laplacian3":
        return laplacian_template()
    if choice == "quadrant":
        return derive_quadrant_template()
    if choice.startswith("file:"):
        return parse_kernel(_read_text(choice[len("file:") :], "ascii"))
    raise DomainError(
        f"unknown kernel {choice!r}: expected smooth5, laplacian3, quadrant, "
        "or file:<path>"
    )


# ---------------------------------------------------------------------------
# Staged output


class _Stage:
    """Collects output files, then commits each one via temp + rename.

    Each output is a writer, ``write(*files)``, that serializes values into
    the open temporary files of its paths during ``commit``; every one of
    them is created before the writer runs. A writer may pull values that
    are still being computed, such as convolved bands, and write each to
    all of its files as it comes, so no value waits for a later writer.
    Writers run in the order they were added, and targets are replaced,
    path by path in the order they were added, only after every temporary
    is written; a failure before then removes every temporary. Everything
    that can refuse an output is checked when it is added, before anything
    is written: two outputs that resolve to one file are refused there,
    since the later rename would otherwise silently replace the earlier
    output.
    """

    def __init__(self) -> None:
        self._keys: set[str] = set()
        self._writers: list[tuple[tuple[str, ...], Callable[..., object]]] = []

    def add_writer(self, *paths: str, write: Callable[..., object]) -> None:
        keys = [os.path.realpath(path) for path in paths]
        for path, key in zip(paths, keys):
            if key in self._keys or keys.count(key) > 1:
                raise DomainError(f"two outputs would be written to {path}")
        self._keys.update(keys)
        self._writers.append((paths, write))

    def add_bytes(self, path: str, data: bytes) -> None:
        self.add_writer(path, write=lambda f: f.write(data))

    def add_text(self, path: str, text: str) -> None:
        self.add_bytes(path, text.encode("utf-8"))

    def commit(self) -> None:
        """Run every writer, then rename each temporary into place in add order."""
        temps: dict[str, str] = {}
        try:
            for paths, write in self._writers:
                with contextlib.ExitStack() as stack:
                    files = []
                    for path in paths:
                        directory = os.path.dirname(os.path.abspath(path))
                        fd, tmp = tempfile.mkstemp(
                            dir=directory,
                            prefix=os.path.basename(path) + ".",
                            suffix=".tmp",
                        )
                        # Listed before writing, so a writer that fails
                        # part-way still has its temporaries removed.
                        temps[path] = tmp
                        files.append(stack.enter_context(os.fdopen(fd, "wb")))
                    write(*files)
            for path in temps:
                os.replace(temps[path], path)
        except BaseException:
            for tmp in temps.values():
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise


# ---------------------------------------------------------------------------
# Image and field I/O helpers


def _load_pgm(path: str, image: MultibandImage | None = None, what: str = "") -> Band:
    """A PGM file's band; given ``image``, a ``what`` raster of its size."""
    with open(path, "rb") as f:
        band = read_pgm(f.read())
    if image is not None and (band.width, band.height) != (image.width, image.height):
        raise DomainError(
            f"{path}: {what} raster is {band.width}x{band.height}, "
            f"the image is {image.width}x{image.height}"
        )
    return band


def _load_image(path: str) -> MultibandImage:
    """PGM for single-band input, BSQ header/payload pair otherwise.

    A BSQ payload is mapped read-only, not read: the bands are views of
    the file's pages. mmap refuses an empty file, which is passed as
    ``b""``.
    """
    if path.endswith(".pgm"):
        return MultibandImage((_load_pgm(path),))
    header_path, payload_path = bsq_paths(path)
    header = _read_text(header_path, "ascii")
    with open(payload_path, "rb") as f:
        payload = b""
        if os.fstat(f.fileno()).st_size:
            payload = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return read_bsq(header, payload)


def _stage_image(stage: _Stage, path: str, image: MultibandImage) -> None:
    """Stage an image as a PGM file or a BSQ header/payload pair."""
    shape = (image.n_bands, image.height, image.width)
    payload_path, encode = _band_payload(stage, path, shape, image.dtype)
    stage.add_writer(
        payload_path, write=lambda f: f.writelines(map(encode, image.bands))
    )


def _band_payload(
    stage: _Stage, path: str, shape: tuple[int, int, int], dtype: str
) -> tuple[str, Callable[[Band], Any]]:
    """Stage what a (bands, height, width) image needs besides its bands.

    Returns the file the bands are written to, a PGM file or a BSQ
    payload whose header is staged here, and the encoding of one band
    there: the whole PGM file, or the band's BSQ samples.
    """
    count, height, width = shape
    if path.endswith(".pgm"):
        if count != 1:
            raise DomainError(
                f"cannot write {count} bands to a PGM file; use a BSQ path instead"
            )
        return path, write_pgm
    header_path, payload_path = bsq_paths(path)
    stage.add_text(header_path, _bsq_header(width, height, count, dtype))
    return payload_path, _bsq_samples


def _stage_labels(
    stage: _Stage, path: str, cmap: Callable[[], analysis.ClassificationMap]
) -> None:
    """Stage a label map as PGM, taken from ``cmap()`` when the stage commits."""
    stage.add_writer(path, write=lambda f: f.write(write_pgm(Band(cmap().labels))))


def _write_stack_header(f: BinaryIO, shape: tuple[int, int, int]) -> None:
    """The ``.npy`` header of a (bands, height, width) int32 stack.

    Followed by each field's samples in turn, the bytes equal ``np.save``
    of the stacked array: a version 1.0 header, with no stacked copy.
    """
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.int32)),
        "fortran_order": False,
        "shape": shape,
    }
    np.lib.format.write_array_header_1_0(f, header)


def _stage_oif(stage: _Stage, path: str, report: analysis.OifReport) -> None:
    """Stage the OIF report, encoded and written one block at a time."""
    stage.add_writer(
        path, write=lambda f: f.writelines(b.encode("utf-8") for b in report._blocks())
    )


def _load_field(path: str) -> ResponseField:
    """A response field from a ``.npy`` file, its header checked first.

    The shape, dtype and payload length are checked before the array is
    allocated, so a header that declares more samples than the file holds
    is refused whatever size it declares.
    """
    npy = np.lib.format
    with open(path, "rb") as f:
        try:
            # Only the .npy format: np.load would also open .npz archives
            # and pickles, which are not response fields.
            version = npy.read_magic(f)
            if version not in ((1, 0), (2, 0), (3, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            # 3.0 is 2.0 with a UTF-8 header, which reads the same as
            # Latin-1 while it is ASCII, as every int32 header is.
            if version == (1, 0):
                shape, _, dtype = npy.read_array_header_1_0(f)
            else:
                shape, _, dtype = npy.read_array_header_2_0(f)
        except ValueError as exc:
            raise FileFormatError(f"{path}: not a valid array file: {exc}") from None
        if len(shape) == 3 and shape[0] != 1:
            raise FileFormatError(
                f"{path}: stack has {shape[0]} bands; "
                "compare takes single response fields"
            )
        if len(shape) not in (2, 3) or dtype != np.int32:
            raise FileFormatError(
                f"{path}: expected a 2-D int32 response field, got "
                f"{dtype} with {len(shape)} axes"
            )
        expected = math.prod(shape) * dtype.itemsize
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if min(shape) < 0 or payload != expected:
            raise FileFormatError(
                f"{path}: payload length {payload} != expected {expected} "
                f"for shape {shape}"
            )
        f.seek(0)
        array = npy.read_array(f, allow_pickle=False)
    # a single-band stack from convolve --raw-out is one field
    return ResponseField(array.reshape(shape[-2:]))


def _load_rois(path: str, image: MultibandImage) -> list[analysis.Roi]:
    """ROI JSON by extension, otherwise a PGM label raster."""
    from . import analysis

    if path.endswith(".json"):
        text = _read_text(path, "utf-8")
        return analysis.rois_from_json(text, (image.height, image.width))
    return analysis.rois_from_labels(_load_pgm(path, image, "ROI").samples)


def _load_truth(
    path: str, image: MultibandImage, n_classes: int
) -> analysis.ClassificationMap:
    """A truth label raster the size of ``image`` whose labels are 0..``n_classes``."""
    from . import analysis

    labels = _load_pgm(path, image, "truth").samples
    top = int(labels.max())
    if top > n_classes:
        raise DomainError(f"{path}: truth label {top} exceeds the {n_classes} classes")
    return analysis.ClassificationMap(labels)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _top_triple_line(report: analysis.OifReport) -> str:
    triple = tuple(report.triples[0].tolist())
    score = float(report.scores[0])
    score_text = "infinite" if math.isinf(score) else f"{score:.6f}"
    return f"top triple: {triple} score {score_text}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_derive(args: argparse.Namespace, stage: _Stage) -> str:
    stage.add_text(args.out, format_kernel(_kernel_from_choice(args.kernel)))
    return f"wrote {args.kernel} kernel to {args.out}"


def cmd_convolve(args: argparse.Namespace, stage: _Stage) -> str:
    image = _load_image(getattr(args, "in"))
    kernel = _kernel_from_choice(args.kernel)
    boundary = BoundaryMode(args.boundary)
    mode = StretchMode(args.stretch)
    n_bands = image.n_bands
    tile_workers = max(1, args.workers // n_bands)

    def task(band: Band) -> tuple[Band, ResponseField | None]:
        field = convolve(band, kernel, boundary, workers=tile_workers)
        edge = stretch(field, mode, args.lo_pct, args.hi_pct)
        return edge, (field if args.raw_out else None)

    threads = min(args.workers, n_bands, os.cpu_count() or 1)
    results = _in_order(task, image.bands, threads)
    shape = (n_bands, image.height, image.width)
    edges_path, encode = _band_payload(stage, args.out, shape, "u8")

    # One writer for both files, so each band is written, its field (with
    # --raw-out) and then its stretched band, as soon as it finishes.
    # Closing ``results`` stops the band threads if a band or write fails.
    def write(edges: BinaryIO, stack: BinaryIO | None = None) -> None:
        with contextlib.closing(results):
            if stack is not None:
                _write_stack_header(stack, shape)
            for edge, field in results:
                if stack is not None:
                    stack.write(field.samples)
                edges.write(encode(edge))
                del edge, field  # not held while the next band is awaited

    raw_paths = [args.raw_out] if args.raw_out else []
    stage.add_writer(edges_path, *raw_paths, write=write)
    return f"convolved {n_bands} band(s) with {args.kernel} ({args.boundary})"


def cmd_oif(args: argparse.Namespace, stage: _Stage) -> str:
    from . import analysis

    report = analysis.oif_report(_load_image(getattr(args, "in")))
    _stage_oif(stage, args.out, report)
    return _top_triple_line(report)


def cmd_classify(args: argparse.Namespace, stage: _Stage) -> str:
    from . import analysis

    if args.out_confusion and not args.truth:
        raise DomainError("--out-confusion requires --truth")
    # Both outputs are staged before the image is loaded, so two that
    # resolve to one file are refused first; their writers read ``cmap``
    # and ``confusion`` when the stage commits.
    _stage_labels(stage, args.out_map, lambda: cmap)
    if args.out_confusion:
        stage.add_writer(
            args.out_confusion,
            write=lambda f: f.write(_json_text(confusion.to_dict()).encode("utf-8")),
        )
    image = _load_image(getattr(args, "in"))
    rois = _load_rois(args.rois, image)
    truth = _load_truth(args.truth, image, len(rois)) if args.truth else None
    features = analysis.features_for_classification(
        image,
        analysis.FeatureKind(args.features),
        _kernel_from_choice(args.kernel),
        BoundaryMode(args.boundary),
    )
    specs = analysis.fit_classes(features, rois, analysis.FitMode(args.mode), args.k)
    cmap = analysis.classify(features, specs)
    lines = [f"classified {cmap.width * cmap.height} pixels into {len(specs)} classes"]
    if truth is not None:
        confusion = analysis.accuracy(cmap, truth, [r.name for r in rois])
        lines.append(f"overall accuracy: {confusion.overall_accuracy:.6f}")
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace, stage: _Stage) -> str:
    from . import analysis

    field_a = _load_field(args.a)
    field_b = _load_field(args.b)
    report = analysis.compare_responses(field_a, field_b, args.threshold)
    stage.add_text(args.out, _json_text(report.to_dict()))
    corr = report.magnitude_correlation
    corr_text = "undefined" if corr is None else f"{corr:.6f}"
    return (
        f"magnitude correlation: {corr_text}\n"
        f"sign agreement: {report.sign_agreement:.6f}\n"
        f"edge density: a {report.a.edge_density:.6f}, b {report.b.edge_density:.6f}"
    )


def cmd_synth(args: argparse.Namespace, stage: _Stage) -> str:
    from . import synth

    spec = synth.scene_spec_from_json(_read_text(args.spec, "utf-8"))
    # Staged from the spec, so a refused output is refused before rendering.
    shape = (spec.n_bands, spec.height, spec.width)
    payload_path, encode = _band_payload(stage, args.out_image, shape, spec.dtype)
    stage.add_writer(
        payload_path, write=lambda f: f.writelines(map(encode, image.bands))
    )
    _stage_labels(stage, args.out_truth, lambda: truth)
    image, truth = synth.synth_scene(spec)
    return (
        f"scene {spec.width}x{spec.height} {spec.dtype}: "
        f"{spec.n_bands} band(s), {spec.n_classes} class(es)"
    )


def cmd_pipeline(args: argparse.Namespace, stage: _Stage) -> str:
    from . import analysis, synth

    spec = synth.scene_spec_from_json(_read_text(args.spec, "utf-8"))
    kernel = _kernel_from_choice(args.kernel)
    boundary = BoundaryMode(args.boundary)
    kind = analysis.FeatureKind(args.features)

    truth = synth.paint_labels(spec)
    # Training set: the even-coordinate subgrid of the truth map. Held-out
    # pixels are everything else; accuracy below is over all labeled pixels.
    names = [sig.name for sig in spec.signatures]
    subgrid = truth.labels[::2, ::2]
    counts = np.bincount(subgrid.ravel(), minlength=len(names) + 1)
    untrained = [
        f"class {name!r} ({k}) has no training pixel on the even-row, "
        "even-column subgrid"
        for k, name in enumerate(names, 1)
        if not counts[k]
    ]
    if untrained:
        raise DomainError("; ".join(untrained))
    # Made before any band is rendered, so a file in its way is refused first.
    out = args.out_dir
    os.makedirs(out, exist_ok=True)

    render = synth._band_renderer(spec, truth)

    def task(b: int) -> tuple[Band, Band | None, analysis.ComparisonReport | None]:
        band = render(b)
        feature = resp = compare = None
        if kind != analysis.FeatureKind.RAW:
            feature, resp = analysis._smoothed(band, kind, kernel, boundary)
        if b == 0:
            # Compared here, so that no int32 response outlives its task.
            if resp is None:
                resp = convolve(band, kernel, boundary)
            baseline = convolve(band, laplacian_template(), boundary)
            compare = analysis.compare_responses(resp, baseline, args.threshold)
        return band, feature, compare

    threads = 1
    if spec.width * spec.height >= _THREADED_BAND_PIXELS:
        threads = min(os.cpu_count() or 1, spec.n_bands)
    bands, smoothed, reports = zip(*_in_order(task, range(spec.n_bands), threads))
    image = MultibandImage(bands)
    features = analysis._features(image, kind, smoothed)
    compare = reports[0]
    # Fit on the features' matching subgrid. The compact copy and the ROIs
    # are dropped before the full frame is classified, to keep peak memory.
    compact = MultibandImage(tuple(Band(b.samples[::2, ::2]) for b in features.bands))
    rois = analysis.rois_from_labels(subgrid, names)
    specs = analysis.fit_classes(compact, rois, analysis.FitMode(args.mode), args.k)
    del compact, rois
    cmap = analysis.classify(features, specs)
    confusion = analysis.accuracy(cmap, truth, names)

    oif_report = None
    if image.n_bands >= 3:
        oif_report = analysis.oif_report(image)

    _stage_image(stage, os.path.join(out, "scene.bsq"), image)
    _stage_labels(stage, os.path.join(out, "truth.pgm"), lambda: truth)
    _stage_image(stage, os.path.join(out, "features.bsq"), features)
    _stage_labels(stage, os.path.join(out, "map.pgm"), lambda: cmap)
    stage.add_text(os.path.join(out, "confusion.json"), _json_text(confusion.to_dict()))
    stage.add_text(os.path.join(out, "compare.json"), _json_text(compare.to_dict()))
    lines = [f"overall accuracy: {confusion.overall_accuracy:.6f}"]
    if oif_report is not None:
        _stage_oif(stage, os.path.join(out, "oif.json"), oif_report)
        lines.insert(0, _top_triple_line(oif_report))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gstk",
        description="Gradient-minimizing smoothing templates for multiband rasters.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    def add_kernel(p: argparse.ArgumentParser, default: str = "smooth5") -> None:
        p.add_argument(
            "--kernel",
            default=default,
            help=f"smooth5, laplacian3, quadrant, or file:<path> (default: {default})",
        )

    def add_boundary(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--boundary",
            choices=[m.value for m in BoundaryMode],
            default=BoundaryMode.REPLICATE.value,
            help="out-of-range pixel policy (default: replicate)",
        )

    def add_classifier(p: argparse.ArgumentParser, features_help: str) -> None:
        p.add_argument(
            "--mode",
            choices=_FIT_MODES,
            default="minmax",
            help="box training rule (default: minmax)",
        )
        p.add_argument(
            "--k",
            type=_nonnegative_float,
            default=2.0,
            help="sigma multiplier for mean_sigma (default: 2)",
        )
        p.add_argument(
            "--features",
            choices=_FEATURE_KINDS,
            default="smoothed",
            help=f"{features_help} (default: smoothed)",
        )

    p = sub.add_parser("derive", help="write a built-in kernel as text")
    add_kernel(p)
    p.add_argument("--out", required=True, help="output kernel text file")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("convolve", help="convolve every band, write stretched u8")
    p.add_argument("--in", required=True, help="input image (.pgm or BSQ)")
    p.add_argument("--out", required=True, help="output image (.pgm or BSQ)")
    add_kernel(p)
    add_boundary(p)
    p.add_argument(
        "--stretch",
        choices=[m.value for m in StretchMode],
        default=StretchMode.ABS_LINEAR.value,
        help="display mapping for signed responses (default: abs_linear)",
    )
    p.add_argument(
        "--lo-pct", type=_percentile, default=2.0, help="lower clip percentile (default: 2)"
    )
    p.add_argument(
        "--hi-pct", type=_percentile, default=98.0, help="upper clip percentile (default: 98)"
    )
    p.add_argument(
        "--raw-out", default=None, help="also save raw int32 responses (.npy stack)"
    )
    p.add_argument(
        "--workers", type=_positive_int, default=1, help="worker threads (default: 1)"
    )
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("oif", help="rank band triples by the Optimum Index Factor")
    p.add_argument("--in", required=True, help="input image (.pgm or BSQ)")
    p.add_argument("--out", required=True, help="output JSON report")
    p.set_defaults(func=cmd_oif)

    p = sub.add_parser("classify", help="parallelepiped classification")
    p.add_argument("--in", required=True, help="input image (.pgm or BSQ)")
    p.add_argument(
        "--rois", required=True, help="training regions (.json runs or .pgm labels)"
    )
    p.add_argument("--out-map", required=True, help="output label map (.pgm)")
    p.add_argument("--truth", default=None, help="ground-truth label map (.pgm)")
    p.add_argument(
        "--out-confusion", default=None, help="confusion matrix JSON (needs --truth)"
    )
    add_classifier(p, "classify raw bands, smoothed magnitudes, or both")
    add_kernel(p)
    add_boundary(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare", help="compare two raw response fields")
    p.add_argument("--a", required=True, help="first response field (.npy)")
    p.add_argument("--b", required=True, help="second response field (.npy)")
    p.add_argument(
        "--threshold",
        type=_positive_float,
        required=True,
        help="edge-density magnitude threshold",
    )
    p.add_argument("--out", required=True, help="output JSON report")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="render a synthetic scene from a JSON spec")
    p.add_argument("--spec", required=True, help="scene spec (.json)")
    p.add_argument("--out-image", required=True, help="output image (.pgm or BSQ)")
    p.add_argument("--out-truth", required=True, help="output truth labels (.pgm)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "pipeline", help="synth, convolve, classify, and score in one run"
    )
    p.add_argument("--spec", required=True, help="scene spec (.json)")
    p.add_argument("--out-dir", required=True, help="directory for all artifacts")
    add_kernel(p)
    add_boundary(p)
    add_classifier(p, "classifier input")
    p.add_argument(
        "--threshold",
        type=_positive_float,
        default=8.0,
        help="edge threshold for the comparison report (default: 8)",
    )
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        stage = _Stage()
        report = args.func(args, stage)
        stage.commit()
        print(report)
        return EXIT_OK
    except FileFormatError as exc:
        print(f"gstk: file format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"gstk: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"gstk: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except GstkError as exc:  # pragma: no cover - safety net
        print(f"gstk: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
