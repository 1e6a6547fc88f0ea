"""Gradient-minimizing smoothing templates for multiband raster imagery.

The package derives an integer 5x5 smoothing stencil from a
finite-difference minimization of the image gradient, applies it (or any
small integer kernel) to multispectral images with exact int32
arithmetic, and provides the surrounding workflow: OIF band selection,
parallelepiped classification with confusion-matrix scoring, operator
comparison reports, and a deterministic synthetic scene generator.
"""

from .errors import DomainError, FileFormatError, GstkError
from .kernels import (
    Kernel,
    derive_quadrant_template,
    format_kernel,
    laplacian_template,
    moment,
    parse_kernel,
    smoothing_template,
    symmetrize,
)
from .raster import (
    Band,
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
from .convolve import BoundaryMode, convolve, convolve_image

# The analysis and synth names resolve on first use (PEP 562), so that
# importing gstk, or running a command that needs neither, loads neither.
_LAZY = {
    "analysis": "analysis",
    "synth": "synth",
    **dict.fromkeys(
        (
            "BandStats",
            "ClassSpec",
            "ClassificationMap",
            "ComparisonReport",
            "ConfusionMatrix",
            "CorrelationMatrix",
            "FeatureKind",
            "FitMode",
            "OifReport",
            "OifScore",
            "Roi",
            "accuracy",
            "band_stats",
            "classify",
            "compare_responses",
            "correlation",
            "features_for_classification",
            "fit_classes",
            "oif_rank",
            "oif_report",
            "oif_report_dict",
            "rois_from_json",
            "rois_from_labels",
        ),
        "analysis",
    ),
    **dict.fromkeys(
        (
            "ClassSignature",
            "Disk",
            "Placement",
            "Rectangle",
            "SceneSpec",
            "gaussian_stream",
            "scene_spec_from_json",
            "scene_spec_to_json",
            "splitmix64",
            "synth_scene",
            "uniform_stream",
        ),
        "synth",
    ),
}


def __getattr__(name: str):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    imported = import_module(f"{__name__}.{module}")
    value = imported if name == module else getattr(imported, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "Band",
    "BandStats",
    "BoundaryMode",
    "ClassSignature",
    "ClassSpec",
    "ClassificationMap",
    "ComparisonReport",
    "ConfusionMatrix",
    "CorrelationMatrix",
    "Disk",
    "DomainError",
    "FeatureKind",
    "FileFormatError",
    "FitMode",
    "GstkError",
    "Kernel",
    "MultibandImage",
    "OifReport",
    "OifScore",
    "Placement",
    "Rectangle",
    "ResponseField",
    "Roi",
    "SceneSpec",
    "StretchMode",
    "accuracy",
    "band_stats",
    "bsq_paths",
    "classify",
    "compare_responses",
    "convolve",
    "convolve_image",
    "correlation",
    "derive_quadrant_template",
    "features_for_classification",
    "fit_classes",
    "format_kernel",
    "gaussian_stream",
    "laplacian_template",
    "moment",
    "oif_rank",
    "oif_report",
    "oif_report_dict",
    "parse_kernel",
    "read_bsq",
    "read_pgm",
    "rois_from_json",
    "rois_from_labels",
    "scene_spec_from_json",
    "scene_spec_to_json",
    "smoothing_template",
    "splitmix64",
    "stretch",
    "symmetrize",
    "synth_scene",
    "uniform_stream",
    "write_bsq",
    "write_pgm",
]
