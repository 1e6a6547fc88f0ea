"""Run ``gstk.cli.main`` once with spans around the public layer functions.

Usage: python3 traced.py SPANS_OUT SRC_DIR -- GSTK_ARGS...

The wrappers live here, not in the program: every binding of a wrapped
function in any loaded ``gstk`` module is replaced (``convolve``, for
instance, is bound in gstk.convolve, gstk.cli, gstk.analysis and gstk),
so calls made through any import site are seen. A wrapped name missing
from its module is an error, so a rename cannot silently drop a layer.

Spans are (id, name, start_ns, end_ns, parent_id, thread_id, counters),
kept in memory and written as JSON after main returns. The parent is the
innermost open span on the same thread (-1 for none).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import types

# ---------------------------------------------------------------------------
# Counters


def _count_synth(call, result):
    image = result[0]
    return {"pixels": image.n_bands * image.width * image.height}


def _count_convolve(call, result):
    band = call.arguments["band"]
    kernel = call.arguments["kernel"]
    pixels = band.width * band.height
    taps = sum(1 for row in kernel.coeffs for v in row if v != 0)
    # The band's buffer address identifies it: the CLI keeps every input
    # band alive for the whole run, so equal addresses mean the same band.
    ident = (
        band.samples.__array_interface__["data"][0],
        band.samples.shape,
        band.dtype,
        kernel.coeffs,
        kernel.anchor,
        str(call.arguments["boundary"]),
    )
    return {
        "pixels": pixels,
        "tap_ops": taps * pixels,
        "bytes": pixels * (band.samples.itemsize + result.samples.itemsize),
        "key": repr(ident),
    }


def _count_stretch(call, result):
    field = call.arguments["field"]
    return {"pixels": field.width * field.height}


def _count_read_bsq(call, result):
    return {"bytes": len(call.arguments["header_text"]) + len(call.arguments["payload"])}


def _count_read_pgm(call, result):
    return {"bytes": len(call.arguments["data"])}


def _count_write_bsq(call, result):
    header, payload = result
    return {"bytes": len(header) + len(payload)}


def _count_write_pgm(call, result):
    return {"bytes": len(result)}


def _count_oif_rank(call, result):
    return {"triples": len(result)}


def _count_classify(call, result):
    labels = result.labels
    return {"pixels": int(labels.size), "unclassified": int((labels == 0).sum())}


def _count_json(call, result):
    return {"bytes": len(result)}


# (module, attribute, span name, counter function or None). Counter
# functions see the bound call arguments and the result, and return a dict
# of numbers kept with the span.
TARGETS = [
    ("gstk.synth", "synth_scene", "synth.synth_scene", _count_synth),
    ("gstk.synth", "gaussian_stream", "synth.gaussian_stream", None),
    ("gstk.synth", "paint_labels", "synth.paint_labels", None),
    ("gstk.convolve", "convolve", "convolve", _count_convolve),
    ("gstk.raster", "stretch", "raster.stretch", _count_stretch),
    ("gstk.raster", "read_bsq", "raster.read_bsq", _count_read_bsq),
    ("gstk.raster", "read_pgm", "raster.read_pgm", _count_read_pgm),
    ("gstk.raster", "write_bsq", "raster.write_bsq", _count_write_bsq),
    ("gstk.raster", "write_pgm", "raster.write_pgm", _count_write_pgm),
    ("gstk.analysis", "band_stats", "analysis.band_stats", None),
    ("gstk.analysis", "correlation", "analysis.correlation", None),
    ("gstk.analysis", "oif_rank", "analysis.oif_rank", _count_oif_rank),
    ("gstk.analysis", "oif_report_dict", "analysis.oif_report_dict", None),
    ("gstk.analysis", "features_for_classification", "analysis.features", None),
    ("gstk.analysis", "rois_from_labels", "analysis.rois_from_labels", None),
    ("gstk.analysis", "fit_classes", "analysis.fit_classes", None),
    ("gstk.analysis", "classify", "analysis.classify", _count_classify),
    ("gstk.analysis", "accuracy", "analysis.accuracy", None),
    ("gstk.analysis", "compare_responses", "analysis.compare_responses", None),
    ("gstk.cli", "main", "cli.main", None),
]


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            counters = None
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                counters = counter(call, result)
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), counters)
            )
            return result

        return wrapper


def _gstk_modules() -> list[types.ModuleType]:
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "gstk" or n.startswith("gstk."))
    ]


def _rebind(original, replacement) -> int:
    """Replace every binding of ``original`` in loaded gstk modules."""
    sites = 0
    for module in _gstk_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites += 1
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every target; exit if one has no binding to replace."""
    sites: dict[str, int] = {}
    for module_name, attr, span, counter in TARGETS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise SystemExit(f"traced: {module_name} has no {attr!r}; update TARGETS")
        original = getattr(module, attr)
        sites[span] = _rebind(original, tracer.wrap(span, original, counter))
    # json.dumps as the CLI sees it: through its ``json`` module binding
    # or a direct ``dumps`` import.
    cli = importlib.import_module("gstk.cli")
    encode = tracer.wrap("cli.json_encode", json.dumps, _count_json)
    sites["cli.json_encode"] = 0
    for attr, value in list(vars(cli).items()):
        if value is json:
            shim = types.ModuleType("json")
            shim.__dict__.update(vars(json))
            shim.dumps = encode
            setattr(cli, attr, shim)
            sites["cli.json_encode"] += 1
        elif value is json.dumps:
            setattr(cli, attr, encode)
            sites["cli.json_encode"] += 1
    missing = [span for span, n in sites.items() if n == 0]
    if missing:
        raise SystemExit(f"traced: no binding found for {', '.join(missing)}")


def main() -> int:
    spans_out, src_dir, sep, *gstk_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_OUT SRC_DIR -- GSTK_ARGS...")
    sys.path.insert(0, src_dir)
    import gstk.cli

    if not os.path.abspath(gstk.cli.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"traced: imported gstk from {gstk.cli.__file__}, not {src_dir}")
    tracer = Tracer()
    install(tracer)
    main_thread = threading.get_ident()
    try:
        code = gstk.cli.main(gstk_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as f:
            json.dump({"main_thread": main_thread, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
