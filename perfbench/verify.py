"""Output checks: pinned references for the default seed, repeatability
for every seed, and a structural check of each seed's first run.

Binary artifacts (BSQ, PGM, .npy) must match byte for byte, checked by
SHA-256. A JSON report whose bytes differ from the reference still passes
when integers, strings and rankings match exactly and every float is
within 1e-9 relative of the reference (acceptance criterion 5's
tolerance). The OIF report is pinned in compact form: its ranking as a
digest of the triple order, and its scores recomputed from the pinned
standard deviations and correlations with the program's formula.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import specs

REL_TOL = 1e-9


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_dir(directory: str) -> dict[str, str]:
    return {
        name: sha256_file(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
    }


def _ranking_digest(ranking: list[dict]) -> str:
    order = [[e["triple"], e["infinite"]] for e in ranking]
    return hashlib.sha256(json.dumps(order).encode()).hexdigest()


def compact_report(name: str, doc: dict) -> dict:
    """What the reference keeps of one JSON report."""
    if name != "oif.json":
        return doc
    return {
        "bands": doc["bands"],
        "stddev": doc["stddev"],
        "correlation": doc["correlation"],
        "ranking_len": len(doc["ranking"]),
        "ranking_sha256": _ranking_digest(doc["ranking"]),
    }


def _close(a, b, where: str, problems: list[str]) -> None:
    if isinstance(b, bool) or b is None or isinstance(b, (int, str)):
        if type(a) is not type(b) or a != b:
            problems.append(f"{where}: {a!r} != {b!r}")
    elif isinstance(b, float):
        if not isinstance(a, float) or abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            problems.append(f"{where}: {a!r} differs from {b!r} by more than {REL_TOL:g} relative")
    elif isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            problems.append(f"{where}: length or type differs")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                _close(x, y, f"{where}[{i}]", problems)
    elif isinstance(b, dict):
        if not isinstance(a, dict) or set(a) != set(b):
            problems.append(f"{where}: keys differ")
        else:
            for k in b:
                _close(a[k], b[k], f"{where}.{k}", problems)
    else:
        raise TypeError(f"unexpected reference value at {where}: {b!r}")


def _oif_scores(triples: np.ndarray, stddev: list, corr: list) -> np.ndarray:
    """Scores by the program's formula, summed in its order."""
    s = np.asarray(stddev, dtype=np.float64)
    r = np.abs(np.asarray([[np.nan if v is None else v for v in row] for row in corr]))
    i, j, k = (triples - 1).T
    numer = s[i] + s[j] + s[k]
    denom = r[i, j] + r[i, k] + r[j, k]
    with np.errstate(divide="ignore"):
        return np.where(denom > 0, numer / denom, np.inf)


def check_report(name: str, doc: dict, ref: dict) -> list[str]:
    problems: list[str] = []
    if name != "oif.json":
        _close(doc, ref, name, problems)
        return problems
    if set(doc) != {"bands", "stddev", "correlation", "ranking"}:
        return [f"{name}: unexpected keys {sorted(doc)}"]
    for key in ("bands", "stddev", "correlation"):
        _close(doc[key], ref[key], f"{name}.{key}", problems)
    ranking = doc["ranking"]
    if len(ranking) != ref["ranking_len"] or _ranking_digest(ranking) != ref["ranking_sha256"]:
        problems.append(f"{name}: ranking order differs from the reference")
        return problems
    expected = _oif_scores(
        np.array([e["triple"] for e in ranking], dtype=np.int64), ref["stddev"], ref["correlation"]
    )
    for n, (entry, want) in enumerate(zip(ranking, expected.tolist())):
        _close(entry["score"], None if math.isinf(want) else want, f"{name}.ranking[{n}].score", problems)
        if len(problems) > 5:
            break
    return problems


def check_outputs(directory: str, files: dict[str, str], reports: dict | None) -> list[str]:
    """Compare a directory with expected digests; ``reports`` (reference
    runs only) lets a JSON report pass on tolerance instead of bytes."""
    actual = digest_dir(directory)
    problems = [
        f"{name}: {'missing' if name in files else 'unexpected file'}"
        for name in sorted(set(actual) ^ set(files))
    ]
    for name in sorted(set(actual) & set(files)):
        if actual[name] == files[name]:
            continue
        if reports is not None and name in reports:
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                problems += check_report(name, json.load(f), reports[name])
        else:
            problems.append(f"{name}: bytes differ from the expected output")
    return problems


# ---------------------------------------------------------------------------
# Structural check of a seed's first run (no reference needed)


def _check_bsq(directory: str, base: str, shape, bands: int, dtype: str, problems: list[str]) -> None:
    with open(os.path.join(directory, base + ".hdr"), encoding="ascii") as f:
        if f.read() != specs.bsq_header(shape.width, shape.height, bands, dtype):
            problems.append(f"{base}.hdr: unexpected header")
    size = shape.width * shape.height * bands * (1 if dtype == "u8" else 2)
    if os.path.getsize(os.path.join(directory, base + ".bsq")) != size:
        problems.append(f"{base}.bsq: payload is not {size} bytes")


def _check_pgm(directory: str, name: str, shape, problems: list[str]) -> None:
    header = f"P5\n{shape.width} {shape.height}\n255\n".encode()
    with open(os.path.join(directory, name), "rb") as f:
        data = f.read()
    if not data.startswith(header) or len(data) != len(header) + shape.width * shape.height:
        problems.append(f"{name}: not a {shape.width}x{shape.height} u8 PGM")


def sanity(subcommand: str, shape, directory: str) -> list[str]:
    """Shape checks of one run's outputs against the workload's scene."""
    problems: list[str] = []
    pixels = shape.width * shape.height
    if subcommand == "convolve":
        _check_bsq(directory, "edges", shape, shape.bands, "u8", problems)
        with open(os.path.join(directory, "raw.npy"), "rb") as f:
            fmt = np.lib.format
            if fmt.read_magic(f) == (1, 0):
                header = fmt.read_array_header_1_0(f)
            else:
                header = fmt.read_array_header_2_0(f)
        if header[0] != (shape.bands, shape.height, shape.width) or header[2] != np.dtype(np.int32):
            problems.append(f"raw.npy: unexpected array header {header}")
        return problems
    _check_bsq(directory, "scene", shape, shape.bands, shape.dtype, problems)
    _check_bsq(directory, "features", shape, shape.bands, "u8", problems)
    for name in ("truth.pgm", "map.pgm"):
        _check_pgm(directory, name, shape, problems)
    with open(os.path.join(directory, "confusion.json"), encoding="utf-8") as f:
        confusion = json.load(f)
    if confusion["total"] != pixels or sum(map(sum, confusion["counts"])) != pixels:
        problems.append("confusion.json: counts do not cover the scene")
    with open(os.path.join(directory, "compare.json"), encoding="utf-8") as f:
        fields = json.load(f)["fields"]
    if any(sum(fields[k]["histogram"]) != pixels for k in ("a", "b")):
        problems.append("compare.json: histograms do not cover the scene")
    with open(os.path.join(directory, "oif.json"), encoding="utf-8") as f:
        ranking = json.load(f)["ranking"]
    n = shape.bands
    triples = {tuple(e["triple"]) for e in ranking}
    if len(ranking) != n * (n - 1) * (n - 2) // 6 or len(triples) != len(ranking):
        problems.append("oif.json: ranking does not list every triple once")
    scores = [math.inf if e["infinite"] else e["score"] for e in ranking]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("oif.json: ranking is not best first")
    return problems
