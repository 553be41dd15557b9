"""Smoke test: every workload runs through the harness at a tiny scale.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs once untraced and twice traced with the same non-default
seed; the checks are that every metric ``BENCHMARK.json`` names is
emitted with its unit, that every output check passes, and that the
per-layer counts repeat exactly.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_SLICE_S, HostProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the harness runs, registered in BENCHMARK.json or not.
WORKLOADS = ("reproduce", "crawl_faults", "serve_mix")
SEED = 7
TINY = ("--scale", "0.0005", "--seconds", "0.1")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, attempt: int = 0) -> dict:
    """One run's result line, cached; ``attempt`` asks for a fresh run."""
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    outcome = result(workload, trace)
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in outcome["metrics"].items()}
    assert emitted == expected
    for metric in outcome["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_per_layer_counts(workload):
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first, second = result(workload, 1), result(workload, 1, attempt=1)
    assert {n: first["metrics"][n]["value"] for n in counted} == {
        n: second["metrics"][n]["value"] for n in counted
    }


def test_host_probe_scales_work_by_slice_time():
    with HostProbe() as probe:
        _, span = probe.measure(lambda: time.sleep(0.3))
    assert span.slices >= 5
    mean_slice = span.slice_s / span.slices
    expected = (span.wall - span.slice_s) * NOMINAL_SLICE_S / mean_slice
    assert probe.reference_s(span) == pytest.approx(expected)
    off = HostProbe(enabled=False)
    with off:
        _, span = off.measure(lambda: time.sleep(0.05))
    assert span.slices == 0 and off.reference_s(span) == span.wall


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "reproduce", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
