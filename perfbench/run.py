"""End-to-end benchmark of the Dissenter reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crawl_faults --seed 2020 --seconds 18 --trace 0

Workloads: ``reproduce``, ``crawl_faults``, ``serve_mix`` (see
README.md).  ``--trace 0`` prints the end-to-end metrics, timed in reference
seconds (hostspeed.py); ``--trace 1`` runs the workload untraced and
traced and prints the per-layer metrics plus the tracing overhead, in
wall seconds.  Earlier stdout lines carry provenance and
diagnostics; the last line is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for spilled stores; inside the checkout, removed on exit.
WORKDIR = ROOT / ".perfbench_tmp"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(settings, outcome) -> dict:
    import numpy
    import scipy

    return {
        "workload": settings.workload,
        "seed": settings.seed,
        "scale_override": settings.scale,
        "seconds": settings.seconds,
        "trace": settings.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "sizes": outcome.sizes,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "crawl_faults", "serve_mix"))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override every world scale (smoke tests only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Settings

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        settings = Settings(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), workdir=workdir, scale=args.scale,
        )
        outcome = WORKLOADS[args.workload](settings, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    print(json.dumps({"provenance": provenance(settings, outcome)}))
    print(json.dumps({"diagnostics": outcome.diagnostics}))
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name:36s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
