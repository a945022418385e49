"""Seeded random-number helpers.

All stochastic behaviour in the library (dataset generation, simulated
evaluators, random OS sampling) flows through :func:`derive_rng` so that
every experiment is reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(seed: int, *labels: object) -> np.random.Generator:
    """Derive an independent, reproducible Generator from a seed and labels.

    The labels (e.g. ``("evaluator", 3)``) are hashed together with the seed,
    so distinct subsystems never share a stream and adding a new consumer
    cannot perturb existing ones.
    """
    digest = hashlib.sha256()
    digest.update(str(seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode("utf-8"))
    child_seed = int.from_bytes(digest.digest()[:8], "big")
    return np.random.default_rng(child_seed)
