"""Content-addressed on-disk result store.

Layout (default root ``~/.cache/repro-manet``, overridable with the
``REPRO_MANET_STORE`` environment variable or ``--store PATH``)::

    <root>/
      objects/<kk>/<key>.json     # one record per task fingerprint
      manifests/<key>.json        # one record per completed sweep
      quarantine/<name>           # records that failed to load/verify

Every record is a single JSON document with a ``schema`` version, the
full ``fingerprint`` identity document it was keyed by, and the
:mod:`repro.store.codec`-encoded ``result``.  Writes go through a
``tmp + os.replace`` rename, so records are always either absent or
complete — concurrent writers (``--jobs`` workers, or two independent
processes) racing on the same key each write the identical content and
the last atomic rename wins.  Reads are corruption-tolerant: a record
that is unparseable, has the wrong schema, or mismatches its key is
moved into ``quarantine/`` with a warning and treated as a miss — a
damaged cache can slow a run down, never break it.

The store object itself is a picklable value (paths and flags, no open
handles): ``run_tasks`` ships it to worker processes so *workers write
records* as soon as their task completes and the parent only merges
telemetry — an interrupted ``--jobs 8`` sweep keeps every finished
task.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .codec import CodecError, decode, encode
from .fingerprint import fingerprint

__all__ = [
    "MISS",
    "STORE_SCHEMA_VERSION",
    "STORE_ENV_VAR",
    "ResultStore",
    "default_store_root",
    "resolve_store_root",
]

logger = logging.getLogger(__name__)

#: Bump when the record layout changes incompatibly; mismatching
#: records are quarantined on read.
STORE_SCHEMA_VERSION = 1

#: Environment variable naming the store root (and enabling the store
#: by default for CLI runs unless ``--no-store`` is passed).
STORE_ENV_VAR = "REPRO_MANET_STORE"


class _Miss:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<MISS>"


#: Sentinel distinguishing "no record" from a stored ``None`` result.
MISS = _Miss()


def default_store_root() -> Path:
    """``$XDG_CACHE_HOME/repro-manet`` or ``~/.cache/repro-manet``."""
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro-manet"


def resolve_store_root(path: str | os.PathLike | None = None) -> Path:
    """An explicit path, else ``$REPRO_MANET_STORE``, else the default."""
    if path:
        return Path(path)
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    return default_store_root()


@dataclass
class ResultStore:
    """Content-addressed store rooted at ``root``.

    ``refresh=True`` skips lookups (every task recomputes) while still
    writing records back — the ``--store-refresh`` semantics.  The
    ``hits``/``misses``/``writes`` counters track this process's view
    for the CLI summary line; the durable counters live in the ambient
    metrics registry (see :mod:`repro.analysis.parallel`).
    """

    root: Path
    refresh: bool = False
    hits: int = field(default=0, compare=False)
    misses: int = field(default=0, compare=False)
    writes: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def manifests_dir(self) -> Path:
        return self.root / "manifests"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def record_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    def manifest_path(self, key: str) -> Path:
        return self.manifests_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # Atomic write machinery
    # ------------------------------------------------------------------
    def _write_atomic(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, sort_keys=True) + "\n"
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                tmp.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged record out of the lookup path, keeping it."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_dir / f"{path.name}.{suffix}"
        try:
            os.replace(path, target)
        except OSError:
            return  # a concurrent reader already moved it
        logger.warning(
            "store: quarantined corrupt record %s -> %s (%s)",
            path,
            target,
            reason,
        )

    # ------------------------------------------------------------------
    # Task records
    # ------------------------------------------------------------------
    def load_record(self, path: Path) -> dict:
        """Parse and validate one record file; raises ``ValueError``."""
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable record: {error}")
        if not isinstance(record, dict):
            raise ValueError("record is not a JSON object")
        if record.get("schema") != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported record schema {record.get('schema')!r} "
                f"(supported: {STORE_SCHEMA_VERSION})"
            )
        for required in ("key", "fingerprint", "result"):
            if required not in record:
                raise ValueError(f"record lacks the {required!r} field")
        return record

    def get(self, key: str):
        """The stored result for ``key``, or :data:`MISS`.

        Corrupt records are quarantined and reported as a miss.
        """
        path = self.record_path(key)
        if not path.exists():
            return MISS
        try:
            record = self.load_record(path)
            if record["key"] != key:
                raise ValueError(
                    f"record key {record['key']!r} does not match its "
                    f"address {key!r}"
                )
            return decode(record["result"])
        except (ValueError, CodecError) as error:
            self.quarantine(path, str(error))
            return MISS

    def put(self, key: str, identity: dict, result, elapsed: float) -> None:
        """Write one task record atomically (last writer wins)."""
        self._write_atomic(
            self.record_path(key),
            {
                "schema": STORE_SCHEMA_VERSION,
                "key": key,
                "fingerprint": identity,
                "result": encode(result),
                "created": time.time(),
                "elapsed": elapsed,
            },
        )

    # ------------------------------------------------------------------
    # Sweep manifests
    # ------------------------------------------------------------------
    def put_manifest(self, key: str, identity: dict, payload: dict) -> None:
        """Write one sweep-level manifest atomically."""
        self._write_atomic(
            self.manifest_path(key),
            {
                "schema": STORE_SCHEMA_VERSION,
                "key": key,
                "fingerprint": identity,
                "created": time.time(),
                **payload,
            },
        )

    # ------------------------------------------------------------------
    # Maintenance: stats / ls / gc / verify
    # ------------------------------------------------------------------
    def iter_record_paths(self):
        """All task record paths, sorted for stable output."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.json")):
            yield path

    def stats(self) -> dict:
        """Counts and byte sizes of everything under the root."""
        records = list(self.iter_record_paths())
        manifests = (
            sorted(self.manifests_dir.glob("*.json"))
            if self.manifests_dir.is_dir()
            else []
        )
        quarantined = (
            sorted(p for p in self.quarantine_dir.iterdir() if p.is_file())
            if self.quarantine_dir.is_dir()
            else []
        )
        elapsed = 0.0
        for path in records:
            try:
                elapsed += float(
                    json.loads(path.read_text(encoding="utf-8")).get(
                        "elapsed", 0.0
                    )
                )
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                pass
        return {
            "root": str(self.root),
            "records": len(records),
            "record_bytes": sum(p.stat().st_size for p in records),
            "manifests": len(manifests),
            "manifest_bytes": sum(p.stat().st_size for p in manifests),
            "quarantined": len(quarantined),
            "stored_elapsed": elapsed,
        }

    def ls(self, limit: int | None = None) -> list[dict]:
        """One summary row per record (newest first)."""
        rows = []
        for path in self.iter_record_paths():
            stat = path.stat()
            row = {
                "key": path.stem,
                "bytes": stat.st_size,
                "mtime": stat.st_mtime,
                "fn": "?",
            }
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                row["fn"] = record.get("fingerprint", {}).get("fn", "?")
                row["elapsed"] = record.get("elapsed")
            except (OSError, json.JSONDecodeError):
                row["fn"] = "<corrupt>"
            rows.append(row)
        rows.sort(key=lambda r: (-r["mtime"], r["key"]))
        return rows[:limit] if limit else rows

    def gc(
        self,
        max_size: int | None = None,
        max_age_days: float | None = None,
        dry_run: bool = False,
    ) -> tuple[int, int]:
        """Evict records by age and total size; returns (removed, freed).

        Age eviction drops records older than ``max_age_days``; size
        eviction then drops oldest-first until the object tree fits in
        ``max_size`` bytes.  Quarantined files are always eligible.
        """
        removed = 0
        freed = 0

        def drop(path: Path) -> None:
            nonlocal removed, freed
            freed += path.stat().st_size
            removed += 1
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass

        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                if path.is_file():
                    drop(path)
        entries = [(p.stat().st_mtime, p) for p in self.iter_record_paths()]
        entries.sort()
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            keep = []
            for mtime, path in entries:
                if mtime < cutoff:
                    drop(path)
                else:
                    keep.append((mtime, path))
            entries = keep
        if max_size is not None:
            total = sum(path.stat().st_size for _, path in entries)
            while entries and total > max_size:
                mtime, path = entries.pop(0)
                total -= path.stat().st_size
                drop(path)
        return removed, freed

    def verify(self, quarantine: bool = False) -> list[tuple[Path, str]]:
        """Re-hash every record; returns ``(path, problem)`` pairs.

        A record is healthy iff it parses, carries the supported
        schema, its fingerprint re-hashes to both its stored key and
        its on-disk address, and its result decodes.  With
        ``quarantine=True`` broken records are also moved aside.
        """
        problems: list[tuple[Path, str]] = []
        for path in self.iter_record_paths():
            problem = None
            try:
                record = self.load_record(path)
                rehash = fingerprint(record["fingerprint"])
                if rehash != record["key"]:
                    problem = (
                        f"fingerprint re-hashes to {rehash[:12]}…, record "
                        f"claims {record['key'][:12]}…"
                    )
                elif path.stem != record["key"]:
                    problem = (
                        f"record stored at {path.stem[:12]}… but keyed "
                        f"{record['key'][:12]}…"
                    )
                else:
                    decode(record["result"])
            except (ValueError, CodecError) as error:
                problem = str(error)
            if problem is not None:
                problems.append((path, problem))
                if quarantine:
                    self.quarantine(path, problem)
        return problems

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary for CLI output."""
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (
            f"store: {self.hits} hit(s), {self.misses} miss(es) "
            f"({rate:.1f}% hit rate), {self.writes} record(s) written "
            f"-> {self.root}"
        )
