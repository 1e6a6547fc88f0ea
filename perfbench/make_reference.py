"""Write reference.json: the pinned inputs and outputs of every workload
at the default seed, from two runs of the current program that must agree.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; run.py then
holds every later commit to these bytes (and to the report tolerances
in verify.py).
"""

from __future__ import annotations

import json
import os
import sys

import run
import specs
import verify


def main() -> int:
    doc = {"seed": specs.DEFAULT_SEED, "workloads": {}}
    for name, workload in specs.WORKLOADS.items():
        runner = run.Runner(workload, specs.DEFAULT_SEED, pinned=False)
        try:
            runner.setup()
            for _ in range(2):
                _, problems = runner.iterate(traced=False)
                if problems:
                    print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
            reports = {}
            for report in sorted(runner.expected):
                if report.endswith(".json"):
                    with open(os.path.join(runner.out, report), encoding="utf-8") as f:
                        reports[report] = verify.compact_report(report, json.load(f))
            doc["workloads"][name] = {
                "inputs": verify.digest_dir(runner.inputs),
                "outputs": runner.expected,
                "reports": reports,
            }
        finally:
            runner.cleanup()
        print(f"{name}: pinned {len(runner.expected)} outputs")
    os.rmdir(run.WORK_ROOT)
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
