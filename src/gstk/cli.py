"""Command-line interface.

Every subcommand is a thin shell over the library: it loads inputs,
calls the same functions a caller would, and serializes the results.
Outputs are computed fully before anything is written. Each file is then
serialized straight into a temporary sibling, with no in-memory copy of
its bytes, and only when every temporary is written are they renamed into
place one by one. Each file is therefore replaced atomically and no
temporary file is left behind, but the set of files is not replaced
atomically: if a later rename fails, the files already renamed stay
replaced.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error,
3 domain error (invalid values, zero-variance bands, two outputs that
resolve to one file, and so on).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from typing import BinaryIO

import numpy as np

from . import analysis, synth
from .convolve import BoundaryMode, convolve, convolve_image
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
    MultibandImage,
    ResponseField,
    StretchMode,
    bsq_paths,
    _bsq_parts,
    read_bsq,
    read_pgm,
    stretch,
    write_pgm,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3


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
_nonnegative_float = _checked(float, lambda v: not v < 0, "must be >= 0, got {}")
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

    Each output is a writer, ``write(f)``, that serializes values already
    computed into the open temporary file during ``commit``. Everything
    that can refuse an output is checked when it is added, before anything
    is written: two outputs that resolve to one file are refused there,
    since the later rename would otherwise silently replace the earlier
    output.
    """

    def __init__(self) -> None:
        self._items: dict[str, tuple[str, Callable[[BinaryIO], object]]] = {}

    def add_writer(self, path: str, write: Callable[[BinaryIO], object]) -> None:
        key = os.path.realpath(path)
        if key in self._items:
            raise DomainError(f"two outputs would be written to {path}")
        self._items[key] = (path, write)

    def add_bytes(self, path: str, data: bytes) -> None:
        self.add_writer(path, lambda f: f.write(data))

    def add_text(self, path: str, text: str) -> None:
        self.add_bytes(path, text.encode("utf-8"))

    def commit(self) -> None:
        temps: list[tuple[str, str]] = []
        try:
            for path, write in self._items.values():
                directory = os.path.dirname(os.path.abspath(path))
                fd, tmp = tempfile.mkstemp(
                    dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
                )
                # Listed before writing, so a writer that fails part-way
                # still has its temporary removed.
                temps.append((tmp, path))
                with os.fdopen(fd, "wb") as f:
                    write(f)
            for tmp, path in temps:
                os.replace(tmp, path)
        except BaseException:
            for tmp, _ in temps:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise


# ---------------------------------------------------------------------------
# Image and field I/O helpers


def _load_image(path: str) -> MultibandImage:
    """PGM for single-band input, BSQ header/payload pair otherwise."""
    if path.endswith(".pgm"):
        with open(path, "rb") as f:
            return MultibandImage((read_pgm(f.read()),))
    header_path, payload_path = bsq_paths(path)
    header = _read_text(header_path, "ascii")
    with open(payload_path, "rb") as f:
        payload = f.read()
    return read_bsq(header, payload)


def _stage_image(stage: _Stage, path: str, image: MultibandImage) -> None:
    if path.endswith(".pgm"):
        if image.n_bands != 1:
            raise DomainError(
                f"cannot write {image.n_bands} bands to a PGM file; "
                "use a BSQ path instead"
            )
        stage.add_bytes(path, write_pgm(image.bands[0]))
        return
    header_path, payload_path = bsq_paths(path)
    header, bands = _bsq_parts(image)
    stage.add_text(header_path, header)
    stage.add_writer(payload_path, lambda f: f.writelines(bands))


def _stage_stack(stage: _Stage, path: str, fields: list[ResponseField]) -> None:
    """Stage the fields as one (bands, height, width) int32 ``.npy`` stack.

    The bytes equal ``np.save`` of the stacked array: a version 1.0 header,
    then each field's samples in turn, with no stacked copy.
    """
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.int32)),
        "fortran_order": False,
        "shape": (len(fields), fields[0].height, fields[0].width),
    }

    def write(f: BinaryIO) -> None:
        np.lib.format.write_array_header_1_0(f, header)
        f.writelines(field.samples for field in fields)

    stage.add_writer(path, write)


def _load_field(path: str) -> ResponseField:
    with open(path, "rb") as f:
        try:
            # Only the .npy format: np.load would also open .npz archives
            # and pickles, which are not response fields.
            array = np.lib.format.read_array(f, allow_pickle=False)
        except ValueError as exc:
            raise FileFormatError(f"{path}: not a valid array file: {exc}") from None
    if array.ndim == 3:
        # a single-band stack from convolve --raw-out is one field
        if array.shape[0] == 1:
            array = array[0]
        else:
            raise FileFormatError(
                f"{path}: stack has {array.shape[0]} bands; "
                "compare takes single response fields"
            )
    if array.ndim != 2 or array.dtype != np.int32:
        raise FileFormatError(
            f"{path}: expected a 2-D int32 response field, got "
            f"{array.dtype} with {array.ndim} axes"
        )
    return ResponseField(array)


def _load_rois(path: str, image: MultibandImage) -> list[analysis.Roi]:
    """ROI JSON by extension, otherwise a PGM label raster."""
    if path.endswith(".json"):
        text = _read_text(path, "utf-8")
        return analysis.rois_from_json(text, (image.height, image.width))
    with open(path, "rb") as f:
        band = read_pgm(f.read())
    return analysis.rois_from_labels(band.samples)


def _load_truth(path: str) -> analysis.ClassificationMap:
    with open(path, "rb") as f:
        band = read_pgm(f.read())
    return analysis.ClassificationMap(band.samples.astype(np.int32))


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _top_triple_line(report: analysis.OifReport) -> str:
    triple = tuple(report.triples[0].tolist())
    score = float(report.scores[0])
    score_text = "infinite" if math.isinf(score) else f"{score:.6f}"
    return f"top triple: {triple} score {score_text}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_derive(args: argparse.Namespace) -> int:
    kernel = _kernel_from_choice(args.kernel)
    stage = _Stage()
    stage.add_text(args.out, format_kernel(kernel))
    stage.commit()
    print(f"wrote {args.kernel} kernel to {args.out}")
    return EXIT_OK


def cmd_convolve(args: argparse.Namespace) -> int:
    image = _load_image(getattr(args, "in"))
    kernel = _kernel_from_choice(args.kernel)
    boundary = BoundaryMode(args.boundary)
    fields = convolve_image(image, kernel, boundary, workers=args.workers)
    mode = StretchMode(args.stretch)
    stretched = [stretch(f, mode, args.lo_pct, args.hi_pct) for f in fields]
    names = tuple(image.name_of(i) for i in range(image.n_bands))
    out_image = MultibandImage(tuple(stretched), names)
    stage = _Stage()
    _stage_image(stage, args.out, out_image)
    if args.raw_out:
        _stage_stack(stage, args.raw_out, fields)
    stage.commit()
    print(f"convolved {image.n_bands} band(s) with {args.kernel} ({args.boundary})")
    return EXIT_OK


def cmd_oif(args: argparse.Namespace) -> int:
    image = _load_image(getattr(args, "in"))
    report = analysis.oif_report(image)
    stage = _Stage()
    stage.add_text(args.out, report.to_json())
    stage.commit()
    print(_top_triple_line(report))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    image = _load_image(getattr(args, "in"))
    rois = _load_rois(args.rois, image)
    features = analysis.features_for_classification(
        image,
        analysis.FeatureKind(args.features),
        _kernel_from_choice(args.kernel),
        BoundaryMode(args.boundary),
    )
    specs = analysis.fit_classes(features, rois, analysis.FitMode(args.mode), args.k)
    cmap = analysis.classify(features, specs)
    stage = _Stage()
    stage.add_bytes(args.out_map, write_pgm(analysis.classification_to_band(cmap)))
    lines = [f"classified {cmap.width * cmap.height} pixels into {len(specs)} classes"]
    if args.truth:
        truth = _load_truth(args.truth)
        confusion = analysis.accuracy(cmap, truth, [r.name for r in rois])
        if args.out_confusion:
            stage.add_text(args.out_confusion, _json_text(confusion.to_dict()))
        lines.append(f"overall accuracy: {confusion.overall_accuracy:.6f}")
    elif args.out_confusion:
        raise DomainError("--out-confusion requires --truth")
    stage.commit()
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    field_a = _load_field(args.a)
    field_b = _load_field(args.b)
    report = analysis.compare_responses(field_a, field_b, args.threshold)
    stage = _Stage()
    stage.add_text(args.out, _json_text(report.to_dict()))
    stage.commit()
    corr = report.magnitude_correlation
    corr_text = "undefined" if corr is None else f"{corr:.6f}"
    print(f"magnitude correlation: {corr_text}")
    print(f"sign agreement: {report.sign_agreement:.6f}")
    print(
        f"edge density: a {report.a.edge_density:.6f}, b {report.b.edge_density:.6f}"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = synth.scene_spec_from_json(_read_text(args.spec, "utf-8"))
    image, truth = synth.synth_scene(spec)
    stage = _Stage()
    _stage_image(stage, args.out_image, image)
    stage.add_bytes(
        args.out_truth, write_pgm(analysis.classification_to_band(truth))
    )
    stage.commit()
    print(
        f"scene {spec.width}x{spec.height} {spec.dtype}: "
        f"{spec.n_bands} band(s), {spec.n_classes} class(es)"
    )
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    spec = synth.scene_spec_from_json(_read_text(args.spec, "utf-8"))
    kernel = _kernel_from_choice(args.kernel)
    boundary = BoundaryMode(args.boundary)

    image, truth = synth.synth_scene(spec)
    # Training set: the even-coordinate subgrid of the truth map. Held-out
    # pixels are everything else; accuracy below is over all labeled pixels.
    names = [sig.name for sig in spec.signatures]
    counts = np.bincount(truth.labels[::2, ::2].ravel(), minlength=len(names) + 1)
    untrained = [
        f"class {name!r} ({k}) has no training pixel on the even-row, "
        "even-column subgrid"
        for k, name in enumerate(names, 1)
        if not counts[k]
    ]
    if untrained:
        raise DomainError("; ".join(untrained))
    training = np.zeros_like(truth.labels)
    training[::2, ::2] = truth.labels[::2, ::2]

    features, resp_chosen = analysis._features(
        image, analysis.FeatureKind(args.features), kernel, boundary
    )
    rois = analysis.rois_from_labels(training, names)
    specs = analysis.fit_classes(features, rois, analysis.FitMode(args.mode), args.k)
    cmap = analysis.classify(features, specs)
    confusion = analysis.accuracy(cmap, truth, names)

    first = image.bands[0]
    if resp_chosen is None:
        resp_chosen = convolve(first, kernel, boundary)
    resp_baseline = convolve(first, laplacian_template(), boundary)
    compare = analysis.compare_responses(resp_chosen, resp_baseline, args.threshold)

    oif_report = None
    if image.n_bands >= 3:
        oif_report = analysis.oif_report(image)

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    stage = _Stage()
    _stage_image(stage, os.path.join(out, "scene.bsq"), image)
    stage.add_bytes(
        os.path.join(out, "truth.pgm"),
        write_pgm(analysis.classification_to_band(truth)),
    )
    _stage_image(stage, os.path.join(out, "features.bsq"), features)
    stage.add_bytes(
        os.path.join(out, "map.pgm"),
        write_pgm(analysis.classification_to_band(cmap)),
    )
    stage.add_text(os.path.join(out, "confusion.json"), _json_text(confusion.to_dict()))
    stage.add_text(os.path.join(out, "compare.json"), _json_text(compare.to_dict()))
    if oif_report is not None:
        stage.add_text(os.path.join(out, "oif.json"), oif_report.to_json())
    stage.commit()

    if oif_report is not None:
        print(_top_triple_line(oif_report))
    print(f"overall accuracy: {confusion.overall_accuracy:.6f}")
    return EXIT_OK


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
            choices=[m.value for m in analysis.FitMode],
            default=analysis.FitMode.MINMAX.value,
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
            choices=[m.value for m in analysis.FeatureKind],
            default=analysis.FeatureKind.SMOOTHED.value,
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
        return args.func(args)
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
