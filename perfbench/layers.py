"""Per-layer metrics from the spans a traced run writes (see traced.py)."""

from __future__ import annotations

from collections import defaultdict

NS = 1e-9

# Per-layer metric name -> unit, in report order. Every name is reported
# for every workload; a layer a workload never enters reports 0.
UNITS = {
    "synth.synth_scene.self_s": "s",
    "synth.gaussian_stream.s": "s",
    "synth.paint_labels.s": "s",
    "synth.mpix_per_s": "Mpix/s",
    "convolve.s": "s",
    "convolve.calls": "count",
    "convolve.mpix_per_s": "Mpix/s",
    "convolve.tap_ops": "count",
    "convolve.bytes_computed": "B",
    "convolve.useful_ratio": "ratio",
    "raster.stretch.s": "s",
    "raster.stretch.calls": "count",
    "raster.stretch.mpix_per_s": "Mpix/s",
    "raster.read_bsq.s": "s",
    "raster.write_bsq.s": "s",
    "raster.write_pgm.s": "s",
    "raster.bytes_read": "B",
    "raster.bytes_written": "B",
    "analysis.band_stats.s": "s",
    "analysis.band_stats.calls": "count",
    "analysis.correlation.s": "s",
    "analysis.correlation.calls": "count",
    "analysis.oif_rank.self_s": "s",
    "analysis.oif_report_dict.self_s": "s",
    "analysis.oif_triples": "count",
    "analysis.features.self_s": "s",
    "analysis.rois_from_labels.s": "s",
    "analysis.fit_classes.s": "s",
    "analysis.classify.s": "s",
    "analysis.accuracy.s": "s",
    "analysis.compare_responses.s": "s",
    "analysis.unclassified_frac": "frac",
    "cli.main.s": "s",
    "cli.json_encode_s": "s",
    "cli.unattributed_s": "s",
    "trace.outside_main_s": "s",
    "trace.overhead_frac": "frac",
}

# Counts that must repeat exactly from one traced run of a seed to the next.
EXACT = (
    "convolve.calls",
    "convolve.tap_ops",
    "convolve.useful_ratio",
    "analysis.correlation.calls",
    "analysis.oif_triples",
    "raster.bytes_written",
)


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(doc: dict) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _, _ in doc["spans"]:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children[sid])
        for sid, _, start, end, _, _, _ in doc["spans"]
    }


def layer_metrics(doc: dict, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, except trace.overhead_frac.

    Also returns "trace.accounted_frac": the summed self times of the
    main-thread spans plus the time outside cli.main, over the traced
    wall. It is 1 up to rounding whenever spans nest properly.
    """
    spans = doc["spans"]
    own = self_times(doc)
    total_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    keys: set[str] = set()
    main_thread_self = 0
    for sid, name, start, end, _, thread, counters in spans:
        total_s[name] += (end - start) * NS
        self_s[name] += own[sid] * NS
        calls[name] += 1
        if thread == doc["main_thread"]:
            main_thread_self += own[sid]
        for key, value in (counters or {}).items():
            if key == "key":
                keys.add(value)
            else:
                counts[name][key] += value

    def rate(name: str) -> float:
        seconds = total_s[name]
        return counts[name]["pixels"] / seconds / 1e6 if seconds else 0.0

    unclassified = counts["analysis.classify"]
    outside_main = traced_wall_s - total_s["cli.main"]
    return {
        "synth.synth_scene.self_s": self_s["synth.synth_scene"],
        "synth.gaussian_stream.s": total_s["synth.gaussian_stream"],
        "synth.paint_labels.s": total_s["synth.paint_labels"],
        "synth.mpix_per_s": rate("synth.synth_scene"),
        "convolve.s": total_s["convolve"],
        "convolve.calls": calls["convolve"],
        "convolve.mpix_per_s": rate("convolve"),
        "convolve.tap_ops": counts["convolve"]["tap_ops"],
        "convolve.bytes_computed": counts["convolve"]["bytes"],
        "convolve.useful_ratio": len(keys) / calls["convolve"] if calls["convolve"] else 0.0,
        "raster.stretch.s": total_s["raster.stretch"],
        "raster.stretch.calls": calls["raster.stretch"],
        "raster.stretch.mpix_per_s": rate("raster.stretch"),
        "raster.read_bsq.s": total_s["raster.read_bsq"],
        "raster.write_bsq.s": total_s["raster.write_bsq"],
        "raster.write_pgm.s": total_s["raster.write_pgm"],
        "raster.bytes_read": counts["raster.read_bsq"]["bytes"] + counts["raster.read_pgm"]["bytes"],
        "raster.bytes_written": counts["raster.write_bsq"]["bytes"] + counts["raster.write_pgm"]["bytes"],
        "analysis.band_stats.s": total_s["analysis.band_stats"],
        "analysis.band_stats.calls": calls["analysis.band_stats"],
        "analysis.correlation.s": total_s["analysis.correlation"],
        "analysis.correlation.calls": calls["analysis.correlation"],
        "analysis.oif_rank.self_s": self_s["analysis.oif_rank"],
        "analysis.oif_report_dict.self_s": self_s["analysis.oif_report_dict"],
        "analysis.oif_triples": counts["analysis.oif_rank"]["triples"],
        "analysis.features.self_s": self_s["analysis.features"],
        "analysis.rois_from_labels.s": total_s["analysis.rois_from_labels"],
        "analysis.fit_classes.s": total_s["analysis.fit_classes"],
        "analysis.classify.s": total_s["analysis.classify"],
        "analysis.accuracy.s": total_s["analysis.accuracy"],
        "analysis.compare_responses.s": total_s["analysis.compare_responses"],
        "analysis.unclassified_frac": (
            unclassified["unclassified"] / unclassified["pixels"] if unclassified["pixels"] else 0.0
        ),
        "cli.main.s": total_s["cli.main"],
        "cli.json_encode_s": total_s["cli.json_encode"],
        "cli.unattributed_s": self_s["cli.main"],
        "trace.outside_main_s": outside_main,
        "trace.accounted_frac": (main_thread_self * NS + outside_main) / traced_wall_s,
    }


def dominant(metrics: dict[str, float], n: int = 5) -> list[tuple[str, float]]:
    """The largest non-overlapping time figures of one traced run."""
    # Self times and leaf totals that do not contain one another.
    leaves = [
        "synth.synth_scene.self_s",
        "synth.gaussian_stream.s",
        "synth.paint_labels.s",
        "convolve.s",
        "raster.stretch.s",
        "raster.read_bsq.s",
        "raster.write_bsq.s",
        "raster.write_pgm.s",
        "analysis.band_stats.s",
        "analysis.correlation.s",
        "analysis.oif_rank.self_s",
        "analysis.oif_report_dict.self_s",
        "analysis.features.self_s",
        "analysis.rois_from_labels.s",
        "analysis.fit_classes.s",
        "analysis.classify.s",
        "analysis.accuracy.s",
        "analysis.compare_responses.s",
        "cli.json_encode_s",
        "cli.unattributed_s",
        "trace.outside_main_s",
    ]
    return sorted(((k, metrics[k]) for k in leaves), key=lambda kv: -kv[1])[:n]
