"""Module-level sweep workers used by the engine's own test suite.

They live in the package (not under ``tests/``) so that process-pool
workers can unpickle them by qualified name in any child process.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np


def square_worker(item: Any, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Deterministic arithmetic worker: ``value**2`` plus a param offset."""
    return {"value": item["value"] ** 2 + params.get("offset", 0)}


def seeded_draw_worker(item: Any, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Worker whose randomness follows the per-item seeding contract."""
    rng = np.random.default_rng([seed, item["index"]])
    return {"draw": float(rng.uniform()), "index": item["index"]}


def failing_worker(item: Any, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Worker that fails on a marked item (failure-propagation tests)."""
    if item.get("explode"):
        raise ValueError(f"worker exploded on item {item!r}")
    return {"ok": True}


def pool_crashing_worker(
    item: Any, params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Worker that kills its own process on marked items -- but only
    inside a pool worker, so the in-process failover recomputation
    succeeds deterministically (crash-containment tests).
    """
    from repro.exec import in_worker

    if item.get("boom") and in_worker():
        import os

        os._exit(17)
    return {"value": item["index"] * 3, "index": item["index"]}


def sentinel_string_worker(
    item: Any, params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Worker emitting sentinel-colliding strings *and* real non-finites.

    Exercises the escape rule of :mod:`repro.sweep.result` end to end:
    ``label``/``tilded`` are genuine strings that must survive cache and
    artifact round trips as strings, while ``margin`` is a real ``nan``.
    """
    return {
        "index": item["index"],
        "label": "NaN",
        "tilded": "~Infinity",
        "margin": float("nan"),
        "cost": float("inf"),
    }
