"""gstk benchmark: drive the gstk CLI on one pinned workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-u8 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32   # every workload

The program runs from this checkout's ``src`` as ``python3 -m gstk``, one
child process at a time (a closed loop with one client). Each iteration
is a fresh process writing into a fresh output directory, and its outputs
are checked (see verify.py) before the next starts.

--trace 0 reports the end-to-end metrics: median wall time from spawn to
exit, band-pixels per second at that median, the child's user+sys CPU
time and peak RSS from ``os.wait4``, the median set-up time of
SETUP_REPS set-ups, and the share of iterations that passed.

--trace 1 alternates untraced iterations with traced ones (traced.py
wraps the public layer functions from outside the program) and reports
the per-layer metrics of layers.py as medians over the traced runs, plus
the tracing overhead against the untraced median.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import layers
import specs
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

# Set-up repeats at least SETUP_REPS times and for at least SETUP_MIN_S,
# and reports the median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
CHILD_TIMEOUT_S = 120

E2E_UNITS = {
    "wall_s": "s",
    "mpix_per_s": "Mpix/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "frac",
}


class SetupError(Exception):
    pass


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd: list[str], log_path: str) -> Child:
    """Run one process to completion; wall time spans spawn to exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
    )


def _log_tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as f:
        return " | ".join(f.read().strip().splitlines()[-lines:])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Host


def _read(path: str) -> str:
    # Read-only host descriptions; absent on some systems.
    try:
        with open(path, encoding="ascii", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def host_info() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        size = _read(f"{base}/{index}/size").strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def working_set(workload: specs.Workload) -> dict:
    """Computed (not measured) array sizes, to set beside the LLC size."""
    s = workload.scene
    frame = s.width * s.height
    mib = 1 / 2**20
    return {
        "scene_MiB": s.band_pixels * s.bytes_per_sample * mib,
        "int32_response_per_band_MiB": frame * 4 * mib,
        "float64_temp_per_band_MiB": frame * 8 * mib,
    }


# ---------------------------------------------------------------------------
# One workload


class Runner:
    def __init__(self, workload: specs.Workload, seed: int, pinned: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = pinned  # check against reference.json
        self.work = os.path.join(WORK_ROOT, workload.name)
        self.inputs = os.path.join(self.work, "in")
        self.out = os.path.join(self.work, "out")
        self.log = os.path.join(self.work, "child.log")
        self.spans = os.path.join(self.work, "spans.json")
        self.expected: dict[str, str] | None = None
        self.reports: dict | None = None
        self.from_spec: dict[str, str] = {}  # output digests known from the spec
        self.first_checked = False

    def setup_once(self) -> tuple[float, dict[str, str]]:
        """Write the inputs (rendering the scene they describe) and load the
        references; return the time taken and the inputs' digests."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.inputs)
        start = time.perf_counter()
        self.from_spec = specs.write_inputs(self.workload, self.seed, self.inputs)
        if self.pinned:
            with open(REFERENCE, encoding="utf-8") as f:
                reference = json.load(f)["workloads"][self.workload.name]
        elapsed = time.perf_counter() - start
        if self.pinned:
            self.expected = reference["outputs"]
            self.reports = reference["reports"]
            problems = verify.check_outputs(self.inputs, reference["inputs"], None) + [
                f"{name}: reference differs from the spec's rendering"
                for name, digest in self.from_spec.items()
                if self.expected[name] != digest
            ]
            if problems:
                raise SetupError("inputs differ from the reference: " + "; ".join(problems))
        return elapsed, verify.digest_dir(self.inputs)

    def setup(self) -> list[float]:
        """Set up SETUP_REPS times, and more until SETUP_MIN_S has passed."""
        times, digests = [], []
        start = time.perf_counter()
        while len(times) < SETUP_REPS or time.perf_counter() - start < SETUP_MIN_S:
            elapsed, digest = self.setup_once()
            times.append(elapsed)
            digests.append(digest)
        if any(d != digests[0] for d in digests):
            raise SetupError("repeated set-ups produced different inputs")
        return times

    def iterate(self, traced: bool) -> tuple[Child, list[str]]:
        """One run of the workload command, with its output checks."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        args = specs.argv(self.workload, self.inputs, self.out)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced.py"), self.spans, SRC, "--", *args]
        else:
            cmd = [sys.executable, "-m", "gstk", *args]
        child = run_child(cmd, self.log)
        if child.code != 0:
            return child, [f"exit code {child.code}: {_log_tail(self.log)}"]
        if not self.first_checked:
            # Shape and spec checks on the first good run; without a
            # reference its bytes become what every later run must reproduce.
            problems = verify.sanity(self.workload.subcommand, self.workload.scene, self.out) + [
                f"{name}: differs from the scene its spec describes"
                for name, digest in self.from_spec.items()
                if verify.sha256_file(os.path.join(self.out, name)) != digest
            ]
            if problems:
                return child, problems
            self.first_checked = True
            if self.expected is None:
                self.expected = verify.digest_dir(self.out)
                return child, []
        return child, verify.check_outputs(self.out, self.expected, self.reports)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _measure(runner: Runner, seconds: float, trace: bool) -> dict:
    setup_times = runner.setup()
    plain: list[Child] = []
    traced: list[tuple[Child, dict]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        is_traced = trace and attempted % 2 == 1
        child, problems = runner.iterate(is_traced)
        attempted += 1
        if not problems and is_traced:
            with open(runner.spans, encoding="utf-8") as f:
                m = layers.layer_metrics(json.load(f), child.wall_s)
            accounted = m.pop("trace.accounted_frac")
            if abs(accounted - 1) > 0.005:
                problems = [f"self times account for {accounted:.4f} of the traced wall"]
        if problems:
            failed += 1
            print(f"iteration {attempted} failed: " + "; ".join(problems[:3]), file=sys.stderr)
        elif is_traced:
            traced.append((child, m))
        else:
            plain.append(child)
        # Stop before an iteration that would end past the deadline, once
        # the minimum samples are in (one untraced; two traced with --trace).
        enough = len(plain) >= 1 and (not trace or len(traced) >= 2)
        typical = statistics.median(c.wall_s for c in plain) if plain else child.wall_s
        if time.perf_counter() - start + typical > seconds and (enough or attempted >= 6):
            break
    return {
        "setup_times": setup_times,
        "plain": plain,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end(workload: specs.Workload, r: dict) -> dict[str, float]:
    plain = r["plain"]
    m = dict.fromkeys(E2E_UNITS, 0.0)  # stays 0 when every iteration failed
    if plain:
        wall = statistics.median(c.wall_s for c in plain)
        m["wall_s"] = wall
        m["mpix_per_s"] = workload.scene.band_pixels / wall / 1e6
        m["cpu_s"] = statistics.median(c.cpu_s for c in plain)
        m["peak_rss_mb"] = statistics.median(c.rss_mb for c in plain)
    m["setup_s"] = statistics.median(r["setup_times"])
    m["ok_frac"] = 1 - r["failed"] / r["attempted"]
    return m


def per_layer(r: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced runs, and the exact-repeat violations."""
    runs = [m for _, m in r["traced"]]
    if not runs or not r["plain"]:
        return dict.fromkeys(layers.UNITS, 0.0), ["no traced and untraced pair passed"]
    problems = [
        f"{k} did not repeat: {[m[k] for m in runs]}"
        for k in layers.EXACT
        if any(m[k] != runs[0][k] for m in runs)
    ]
    out = {k: statistics.median(m[k] for m in runs) for k in layers.UNITS if k in runs[0]}
    untraced = statistics.median(c.wall_s for c in r["plain"])
    out["trace.overhead_frac"] = statistics.median(c.wall_s for c, _ in r["traced"]) / untraced - 1
    return out, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, llc: str) -> dict:
    workload = specs.WORKLOADS[name]
    runner = Runner(workload, seed, pinned=seed == specs.DEFAULT_SEED)
    try:
        r = _measure(runner, seconds, trace)
    finally:
        runner.cleanup()
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    print("   working set (computed): " + ", ".join(
        f"{k} {v:.1f}" for k, v in working_set(workload).items()) + f"; last-level cache {llc}")
    walls = [c.wall_s for c in r["plain"]]
    if walls:
        q1, q2, q3 = _quartiles(walls)
        print(f"   wall_s median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, n={len(walls)}")
    print("   setup_s samples: " + ", ".join(f"{t:.4f}" for t in r["setup_times"]))
    print(f"   failed_frac {r['failed'] / r['attempted']:.4f} ({r['failed']} of {r['attempted']})")
    correct = r["failed"] == 0 and bool(walls)
    if not trace:
        metrics = end_to_end(workload, r)
        units = E2E_UNITS
    else:
        metrics, problems = per_layer(r)
        for p in problems:
            print(f"   check failed: {p}", file=sys.stderr)
        correct = correct and not problems
        units = layers.UNITS
        rss = [c.rss_mb for c, _ in r["traced"]]
        print(f"   traced peak RSS MiB: {', '.join(f'{x:.1f}' for x in rss)}"
              f" ({'repeats exactly' if len(set(rss)) == 1 else 'varies'})")
        if not problems:
            print("   dominant layers: " + ", ".join(
                f"{k} {v:.3f}" for k, v in layers.dominant(metrics)))
    for k, v in metrics.items():
        print(f"   {k} = {v:.6g} {units[k]}")
    return {
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*specs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gstk", "__main__.py")):
        print(f"perfbench: no gstk sources under {SRC}", file=sys.stderr)
        return 2
    host = host_info()
    print("host: " + json.dumps(host))
    llc = max(host["caches_per_cpu0"].items(), default=("", "unknown"))[1]
    names = list(specs.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), llc) for n in names}
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
