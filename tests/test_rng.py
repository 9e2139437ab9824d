"""Seed derivation: the substream seeds and what computing them loads."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from extrout.rng import child_seed

SRC = Path(__file__).resolve().parent.parent / "src"


def test_child_seed_is_the_big_endian_sha256_prefix():
    for seed in (0, 1, 7, 2**63 + 5, -3):
        for label in ("placement", "links", "rep-0", "attack-17", "é"):
            digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
            assert child_seed(seed, label) == int.from_bytes(digest[:8], "big")


def test_the_command_line_does_not_load_hashlib():
    # hashlib loads OpenSSL; the seeds need only the built-in SHA-256.
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, extrout.expcli; print('hashlib' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, encoding="utf-8", check=True)
    assert result.stdout.strip() == "False"
