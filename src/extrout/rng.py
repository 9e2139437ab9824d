"""Named deterministic randomness streams.

One experiment owns one root seed; every consumer (placement, links,
protocol choices, attacker guesses, repetition k) derives its own stream
from the root seed plus a label, so adding a consumer never shifts the
draws of another.
"""

from __future__ import annotations

import random

# The built-in SHA-256, taken as random.py takes its SHA-512: hashlib loads
# OpenSSL (about 3.7 MB resident) to hash one short label per substream.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def child_seed(seed: int, label: str) -> int:
    """Stable 64-bit seed for the sub-stream `label` of root `seed`."""
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, label: str) -> random.Random:
    return random.Random(child_seed(seed, label))
