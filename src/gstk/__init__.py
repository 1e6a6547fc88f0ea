"""Gradient-minimizing smoothing templates for multiband raster imagery.

The package derives an integer 5x5 smoothing stencil from a
finite-difference minimization of the image gradient, applies it (or any
small integer kernel) to multispectral images with exact int32
arithmetic, and provides the surrounding workflow: OIF band selection,
parallelepiped classification with confusion-matrix scoring, operator
comparison reports, and a deterministic synthetic scene generator.
"""

import os as _os

# numpy's bundled OpenBLAS starts a pool of worker threads when it loads,
# and they spin for a while after loading and after each call, taking CPU
# time from gstk's own band and tile threads: importing numpy 2.4.6 with
# OpenBLAS 0.3.31 cost 0.18-0.29 s of CPU with the pool against 0.11 s
# with one thread, on a 2-vCPU Xeon. gstk's one BLAS call, the Gram
# matrix in analysis._moments, is exact for any thread count. This has to
# run before numpy is first imported, and a value the caller set is kept.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
from .convolve import BoundaryMode, convolve

# The modules whose public names resolve on first use (PEP 562), so that
# importing gstk, or running a command that needs neither, loads neither.
# A name is looked up in analysis first; synth imports analysis anyway.
_LAZY_MODULES = ("analysis", "synth")


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name in __all__:
        for module in _LAZY_MODULES:
            imported = import_module(f"{__name__}.{module}")
            if hasattr(imported, name):
                value = globals()[name] = getattr(imported, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(__all__))


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
    "stretch",
    "symmetrize",
    "synth_scene",
    "write_bsq",
    "write_pgm",
]
