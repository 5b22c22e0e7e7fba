"""Deterministic RNG stream derivation.

A root seed plus a tuple of stream labels (strings or ints) maps to an
independent numpy Generator, so toggling one consumer never shifts the
draws of another.
"""

import hashlib

import numpy as np


def _key_int(k):
    if isinstance(k, (int, np.integer)):
        return int(k)
    digest = hashlib.sha256(str(k).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed, *key):
    """Independent Generator for the stream named by (seed, *key); a negative seed raises."""
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [int(seed)] + [_key_int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))
