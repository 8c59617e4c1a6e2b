"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload power --seed 1 --seconds 24 --trace 0

Workloads: ``power``, ``throughput``, ``service`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json``).  ``--trace 0``
reports the end-to-end metrics from an untraced run; ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans to
``.perfbench/trace-<workload>-<seed>.json``.

Every answer is checked against the committed goldens.  The human
readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git
    ("unknown" outside a git checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale_factor": workloads.SF,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(workloads.ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("power", "throughput", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads.prepare_imports()

    info = stamp(args)
    print("stamp " + json.dumps(info, sort_keys=True))
    out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    for name, value in sorted(out.detail.items()):
        print(f"{name:<28} {value:>14.6g} {workloads.DETAIL_UNITS[name]}")
    for problem in out.problems:
        print(f"MISMATCH {problem}")
    units = workloads.LAYER if args.trace else workloads.E2E
    if args.trace:
        path = os.path.join(workloads.WORK_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stamp": info, "metrics": out.metrics,
                       "spans": out.trace}, handle)
        print(f"spans written to {path}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(out.metrics[name]),
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
