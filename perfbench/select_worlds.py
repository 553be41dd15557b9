"""Regenerate ``golden/worlds.json``: world seeds of a fixed corpus size.

Per-user comment activity is Pareto(0.8), so at the benchmark's scales
one world seed's corpus can hold five times the comments of another's,
and every timing follows the corpus size.  The world-building workloads
therefore run only worlds whose comment count lies within ``--band`` of
the median over world seeds ``1..--candidates``.  With
``--request-band``, a world's faulted crawl pass (as ``crawl_faults``
runs it) must also make a request count within that share of the
median.  This script lists the worlds and rewrites the given scales'
entries of ``golden/worlds.json``.  Run from the repository root (about
five seconds per candidate at scale 0.005, plus three for the crawl;
ten at 0.01)::

    python3 perfbench/select_worlds.py 0.005 --band 0.03 --request-band 0.01 --candidates 80
    python3 perfbench/select_worlds.py 0.01 --band 0.07 --candidates 40
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "golden" / "worlds.json"
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.pipeline import ReproductionPipeline  # noqa: E402
from repro.platform.config import WorldConfig  # noqa: E402
from repro.platform.world import build_world  # noqa: E402

DEFAULT_SEED = 2020


def sizes(scale: float, seed: int, crawl: bool) -> tuple[int, int]:
    """(comments, requests of one faulted crawl pass or 0) of a world."""
    world = build_world(WorldConfig(scale=scale, seed=seed))
    requests = 0
    if crawl:
        with tempfile.TemporaryDirectory() as store_dir:
            pipeline = ReproductionPipeline(
                world=world, with_faults=True, store_dir=store_dir)
            pipeline.stage_crawl()
            pipeline.close_pools()
            requests = pipeline.client.stats.requests
    comments = len(world.dissenter.comments)
    print(f"scale {scale} seed {seed}: {comments} comments, {requests} requests",
          file=sys.stderr)
    return comments, requests


def select(scale: float, band: float, candidates: int,
           request_band: float | None = None) -> dict:
    counts = {seed: sizes(scale, seed, request_band is not None)
              for seed in (DEFAULT_SEED, *range(1, candidates + 1))}
    pool = range(1, candidates + 1)
    comments = statistics.median(counts[seed][0] for seed in pool)
    requests = statistics.median(counts[seed][1] for seed in pool)
    seeds = [seed for seed, (c, r) in counts.items()
             if abs(c - comments) <= band * comments
             and (request_band is None or abs(r - requests) <= request_band * requests)]
    entry = {"median_comments": comments, "band": band, "candidates": candidates}
    if request_band is not None:
        entry.update(median_requests=requests, request_band=request_band)
    return {**entry, "seeds": seeds}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scales", type=float, nargs="+")
    parser.add_argument("--band", type=float, default=0.07)
    parser.add_argument("--request-band", type=float, default=None)
    parser.add_argument("--candidates", type=int, default=40)
    args = parser.parse_args()
    table = json.loads(TABLE.read_text()) if TABLE.is_file() else {}
    for scale in args.scales:
        table[str(float(scale))] = select(scale, args.band, args.candidates,
                                          args.request_band)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
