"""On-disk result store with content-hash cache keys.

Each completed sweep point is one JSON record under
``<root>/<scenario>/<cache_key>.json``.  The cache key hashes the
scenario name, the code version (the package version plus a digest of
the package source, see :func:`package_code_version`), the resolved
params and the derived seed -- so re-running an unchanged sweep serves
every point from cache, while editing any source file invalidates stale
results.  Records are plain files, so ``cp -rn`` merges two stores.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

import repro
from repro.experiments.sweep import canonical_json

DEFAULT_STORE = Path("experiment-results")

logger = logging.getLogger(__name__)


def atomic_write_text(path: Path, text: str) -> None:
    """Write via tmp-file + rename: a crash never leaves a truncated file
    that later poisons a cache."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache
def package_code_version() -> str:
    """``repro.__version__`` plus 12 hex digits of a digest of the source.

    The digest is a sha256 over the sorted (relative path, bytes) pairs of
    every ``.py`` file in the package, computed once per process.  Cache
    keys hash it, so an algorithm edit without a version bump never serves
    records the old code computed.
    """
    root = Path(repro.__file__).resolve().parent
    files = sorted((path.relative_to(root).as_posix(), path) for path in root.rglob("*.py"))
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return f"{repro.__version__}+{digest.hexdigest()[:12]}"


def cache_key(
    scenario_name: str,
    params: dict[str, Any],
    seed: int,
    code_version: str | None = None,
) -> str:
    """Content hash identifying one experiment task."""
    payload = canonical_json(
        {
            "scenario": scenario_name,
            "code_version": code_version if code_version is not None else package_code_version(),
            "params": params,
            "seed": seed,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass
class ResultRecord:
    """One persisted experiment result (or captured failure)."""

    key: str
    scenario: str
    params: dict[str, Any]
    seed: int
    replicate: int
    status: str  # "ok" | "error"
    result: dict | None = None
    error: str | None = None
    duration_s: float = 0.0
    code_version: str = ""
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to the stored JSON form (sorted keys, indented)."""
        # Strict by design: a `default=repr` fallback would silently
        # stringify a non-serializable result, so a cached replay would
        # return a different payload than the fresh run.  Backends validate
        # serializability when the result is produced (`execute_point`)
        # and fail the point with a clear error instead.
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        """Parse a stored record, ignoring unknown fields (forward compat).

        Raises ``ValueError`` for text that is not a JSON object and
        ``TypeError`` for an object missing required fields.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class ResultStore:
    """Directory-backed store: write-once JSON records keyed by cache key."""

    def __init__(self, root: str | os.PathLike = DEFAULT_STORE):
        self.root = Path(root)

    def _path(self, scenario_name: str, key: str) -> Path:
        return self.root / scenario_name / f"{key}.json"

    def get(self, scenario_name: str, key: str) -> ResultRecord | None:
        """Load one record by cache key, or None when absent or unreadable.

        A torn or truncated file is a cache miss: the point runs again and
        ``put`` replaces the file.
        """
        path = self._path(scenario_name, key)
        if not path.is_file():
            return None
        try:
            return ResultRecord.from_json(path.read_text())
        except (ValueError, TypeError) as exc:
            logger.warning("unreadable record %s (%s); treating it as a cache miss", path, exc)
            return None

    def put(self, record: ResultRecord) -> Path:
        """Persist a record atomically; returns the file it landed in."""
        path = self._path(record.scenario, record.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, record.to_json())
        return path

    def iter_records(self, scenario_name: str | None = None) -> Iterator[ResultRecord]:
        """Yield stored records in deterministic (scenario, key) order,
        optionally restricted to one scenario.  A missing root or scenario
        directory yields nothing -- an empty store is not an error -- and an
        unreadable file is skipped with a warning."""
        if not self.root.is_dir():
            return
        dirs = (
            [self.root / scenario_name]
            if scenario_name is not None
            else sorted(p for p in self.root.iterdir() if p.is_dir())
        )
        for directory in dirs:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                try:
                    record = ResultRecord.from_json(path.read_text())
                except (ValueError, TypeError) as exc:
                    logger.warning("skipping unreadable record %s (%s)", path, exc)
                    continue
                yield record
