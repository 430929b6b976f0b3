"""Canonical fingerprinting of simulation tasks.

A *fingerprint* is a stable content address for one unit of
deterministic work: the SHA-256 of a canonical JSON document that
captures the task's full identity — worker function, every input
(:class:`~repro.core.params.NetworkParameters`, protocol/mobility
configuration objects, seeds), the engine schema version and the
package version.  Two tasks share a fingerprint iff re-running one
would reproduce the other's result bit-for-bit, so the fingerprint is
the key of the :mod:`repro.store.disk` result store.

Canonicalization is *one-way* (hash input, not a serialization format;
:mod:`repro.store.codec` is the reversible counterpart for results)
and dataclass-aware: dataclasses and plain objects are tagged with
their import path so ``LowestIdClustering()`` and
``HighestConnectivityClustering()`` never collide even when their
configuration dicts match.  Dict keys are sorted and JSON is emitted
with fixed separators, so the byte stream — and therefore the hash —
is independent of insertion order and platform.

What invalidates a fingerprint (and therefore the cache):

* any task input changing, including defaults threaded through the
  task tuple (duration, warmup, epoch, seed, message sizes…);
* :data:`repro.sim.engine.ENGINE_SCHEMA_VERSION` being bumped — the
  declaration that engine semantics changed;
* :data:`repro.__version__` changing — the coarse guard for everything
  the schema version does not capture.

Objects that cannot be canonicalized (open files, RNG instances…)
raise :class:`FingerprintError`; callers treat such tasks as
uncacheable and simply run them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

__all__ = [
    "FingerprintError",
    "canonicalize",
    "canonical_json",
    "fingerprint",
    "task_identity",
]


class FingerprintError(TypeError):
    """A value has no canonical form (the task is uncacheable)."""


def _import_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-able structure.

    Supported: JSON scalars, lists/tuples (both become lists — a task
    built from a list is the same task built from a tuple), dicts with
    string keys, objects that define ``canonical_form()`` (reduced
    through it, as :class:`~repro.run_spec.RunSpec` is), dataclasses,
    NumPy scalars and arrays, module-level functions/classes (by import
    path), and plain objects via their ``__dict__`` tagged with their
    import path.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise FingerprintError(
                    f"dict keys must be strings to fingerprint, got {key!r}"
                )
            out[key] = canonicalize(value[key])
        return out
    canonical_form = getattr(type(value), "canonical_form", None)
    if canonical_form is not None:
        return canonicalize(canonical_form(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": _import_path(type(value)), **fields}
    # NumPy without importing it eagerly: scalars have .item(), arrays
    # have .tolist() + dtype/shape.
    if hasattr(value, "dtype") and hasattr(value, "tolist"):
        dtype = str(value.dtype)
        if getattr(value, "shape", ()) == ():
            return {"__scalar__": dtype, "value": value.item()}
        return {
            "__array__": dtype,
            "shape": list(value.shape),
            "data": value.tolist(),
        }
    if isinstance(value, type) or callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            raise FingerprintError(
                f"cannot fingerprint non-importable callable {value!r}"
            )
        return {"__callable__": f"{module}:{qualname}"}
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__object__": _import_path(type(value)),
            "state": canonicalize(state),
        }
    raise FingerprintError(
        f"cannot fingerprint {type(value).__name__!r} value {value!r}"
    )


def canonical_json(doc: Any) -> str:
    """Serialize a canonical structure with a stable byte layout."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _engine_schema_version() -> int:
    # Looked up at call time (not import time) so a bumped version —
    # including one monkeypatched by the invalidation tests — is always
    # reflected in fresh fingerprints.
    from ..sim import engine

    return engine.ENGINE_SCHEMA_VERSION


def task_identity(fn: Any, task: Any) -> dict:
    """The canonical identity document of one ``run_tasks`` task."""
    from .. import __version__

    return {
        "kind": "task",
        "fn": canonicalize(fn)["__callable__"],
        "task": canonicalize(task),
        "engine_schema": _engine_schema_version(),
        "version": __version__,
    }


def fingerprint(doc: dict) -> str:
    """SHA-256 content address of a canonical identity document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
