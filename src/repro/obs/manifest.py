"""Run manifests: provenance attached to results and experiment artifacts.

A manifest pins everything needed to attribute a number to the exact
configuration that produced it: a stable digest of the system config, the
topology shape, the strategy and engine names, the package version and the
numerics stack.  ``Simulator.run`` attaches one to every ``RunResult``;
``repro profile`` and ``repro servebench`` embed them in their JSON
artifacts.

Digests here are **canonical**: they must be byte-identical across
processes, dict insertion orders and platforms, because the serving layer
(:mod:`repro.serve`) and the persistent result store
(:mod:`repro.engine.result_store`) use them as cross-process cache keys.
Canonicalisation rules (:func:`canonical_payload`):

* mapping keys are sorted (after coercion to ``str``), so insertion order
  never leaks into the digest;
* floats are rendered with ``float.hex()`` -- an exact, locale-free
  encoding with no shortest-repr ambiguity (and total over nan/inf);
* enums collapse to their ``.value``, dataclasses to sorted field maps,
  numpy scalars/arrays to Python scalars/lists;
* separators are fixed (``,``/``:``) and the text is UTF-8 encoded.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import platform
from typing import Optional

import numpy as np

from repro.version import __version__

__all__ = [
    "canonical_payload",
    "canonical_digest",
    "config_digest",
    "build_manifest",
    "MANIFEST_SCHEMA",
]

MANIFEST_SCHEMA = "repro-manifest-v1"


def _canonical(value):
    """Coerce ``value`` into the canonical JSON-safe form (see module doc)."""
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # float.hex() is exact and locale-free; shortest-repr formatting is
        # also round-trip safe in CPython but hex makes the stability
        # obvious and covers inf/nan uniformly.
        v = float(value)
        if math.isnan(v):
            return "float:nan"
        if math.isinf(v):
            return "float:inf" if v > 0 else "float:-inf"
        return f"float:{v.hex()}"
    if value is None or isinstance(value, str):
        return value
    return str(value)


def canonical_payload(value) -> bytes:
    """Canonical UTF-8 JSON bytes of ``value`` (sorted keys, exact floats).

    Two structurally-equal values produce identical bytes regardless of
    dict insertion order, process, platform or ``PYTHONHASHSEED`` -- the
    property that makes digests of these bytes safe as cross-process cache
    keys.
    """
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def canonical_digest(value, length: int = 64) -> str:
    """Hex SHA-256 of :func:`canonical_payload`, truncated to ``length``."""
    return hashlib.sha256(canonical_payload(value)).hexdigest()[:length]


def config_digest(config, engine: Optional[str] = None, seed=None) -> str:
    """Stable short digest of a :class:`SystemConfig` (field-order free).

    ``engine`` and ``seed`` fold the two run parameters that change results
    without changing the config into the digest; omitted (None) keeps the
    digest a pure config fingerprint.  Either way the digest is canonical
    across processes and dict orderings (see :func:`canonical_payload`).
    """
    doc = {"config": _canonical(config)}
    if engine is not None:
        doc["engine"] = engine
    if seed is not None:
        doc["seed"] = int(seed)
    return canonical_digest(doc, length=16)


def build_manifest(
    config=None,
    strategy: Optional[str] = None,
    engine: Optional[str] = None,
    program: Optional[str] = None,
    seed: Optional[int] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble one provenance record; every field JSON-safe."""
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "program": program,
        "strategy": strategy,
        "engine": engine,
        "seed": seed,
    }
    if config is not None:
        manifest["config"] = {
            "name": config.name,
            "kind": config.kind.value,
            "num_gpus": config.num_gpus,
            "chiplets_per_gpu": config.chiplets_per_gpu,
            "num_nodes": config.num_nodes,
            "page_size": config.page_size,
            "digest": config_digest(config, engine=engine, seed=seed),
        }
    if extra:
        manifest.update(extra)
    return manifest
