"""Crawl bytes pinned across commits.

``data/crawl_dump_faults.sha256`` holds the sha256 of the corpus dump a
faulted CI-scale crawl writes::

    PYTHONPATH=src python -m repro crawl --scale 0.002 --seed 7 \\
        --with-faults --out dump.json

Any change to the crawler, the HTTP stack, the origins or the store that
moves one byte of that dump fails here.  Regenerate the hash only for a
change that is meant to alter crawl output, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[2]
GOLDEN = Path(__file__).parent / "data" / "crawl_dump_faults.sha256"


def test_faulted_crawl_dump_matches_golden_hash(tmp_path):
    out = tmp_path / "dump.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [
            sys.executable, "-m", "repro", "crawl",
            "--scale", "0.002", "--seed", "7", "--with-faults",
            "--out", str(out),
        ],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN.read_text().strip()
