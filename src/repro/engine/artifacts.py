"""Memory-mapped on-disk artifact store for shape indexes.

Without a store the shape index dies with the process: every restart
repays the O(n²)-per-trendline pyramid build before the first
``index=True`` query can prune anything.  This module gives the packed
index form (:meth:`~repro.engine.shape_index.ShapeIndex.pack` — the
same flat float32 block + layout manifest the shm transport publishes
and the bound kernel reads: per level, each trendline's upper-triangle
buckets, their atan endpoints rounded outward) a durable home on disk,
so a cold process serves indexed queries at ``np.memmap`` cost instead
of build cost.

**Layout on disk** — one subdirectory per index key under the store
root (``store=`` on the session/engine, or ``REPRO_ARTIFACT_DIR``),
named by the SHA-1 of the key's canonical repr:

* ``block.f32`` — the raw packed float32 block, memory-mapped on load;
  ``8 · C · Σ W(W+1)/2`` bytes for a class of ``C`` trendlines.
* ``layout.pkl`` — pickled ``(layout, witnesses)``: the per-entry shape
  manifest plus each entry's content witness, so a loaded index keeps
  the :meth:`~repro.engine.shape_index.ShapeIndex.extended`
  extend-don't-rebuild contract across restarts.
* ``manifest.json`` — format version, the table content fingerprint the
  index was built from, and SHA-1 digests of both payload files.

**Fallback semantics** — :func:`load_index` returns the index or
``None``, never a wrong index: missing/unreadable files, a format
version skew, a fingerprint mismatch (the table changed), a truncated
block, corrupted payload bytes (digest mismatch), or a block its layout
does not describe exactly all miss, and the
caller rebuilds exactly as if no artifact existed.  Writes go through
temp files + ``os.replace`` so a torn save can never satisfy the
manifest it describes.

**Mapping lifecycle** (reprolint REP071): every mapping opened by
:func:`_open_block` must reach an owner — returned inside the loaded
index (which holds the mapping as its packed block) or closed by the
idempotent :func:`_close_block` on a verification failure — with no
unguarded raise between open and ownership transfer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
# reprolint: disable=REP014 -- artifact GC compares file mtimes to a wall clock on eviction paths, never inside scoring
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.engine.shape_index import BLOCK_DTYPE, ShapeIndex
from repro.errors import ExecutionError

#: On-disk format version: bump on any layout/manifest change so stale
#: artifacts from older code miss cleanly instead of mis-parsing.
#: 1: entry-major block.  2: level-major, one dense ``(C, W, W)`` tile
#: per group level and side.  3: level-major, each level its row-major
#: upper triangle ``(C, W(W+1)/2)`` — 0.52× of format 2 at 32/16/8/4
#: super-bins.  4: format 3 in float32, each bucket's atan interval
#: rounded outward (``block.f32``) — 0.5× of format 3.
ARTIFACT_FORMAT = 4

_BLOCK_FILE = "block.f32"
#: The block file of formats 1–3: a format-4 save over an older entry
#: removes it, so an upgraded store does not keep both blocks on disk.
_OLD_BLOCK_FILE = "block.f64"
_LAYOUT_FILE = "layout.pkl"
_MANIFEST_FILE = "manifest.json"


def artifact_name(key) -> str:
    """Stable directory name for one index key.

    ``key`` is the engine's index key — ``(params, normalize_y,
    plan_fingerprint, precision)`` — whose components are dataclasses
    and scalars with deterministic reprs, so two processes over the
    same query shape agree on the name.  The table fingerprint is *not*
    part of the name: one artifact per key, verified (and overwritten)
    against the current table's fingerprint.
    """
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()


def artifact_dir(root, key) -> Path:
    """The directory one index key persists under."""
    return Path(root) / artifact_name(key)


def _replace_bytes(path: Path, payload: bytes) -> None:
    """Write-then-rename so readers never observe a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def save_index(root, key, index: ShapeIndex, fingerprint: str) -> Path:
    """Persist ``index`` under ``key``; returns the artifact directory.

    Saves the packed form plus entry witnesses.  After ``append_rows``
    the engine saves the *extended* index here — unchanged entries were
    reused bit for bit in memory, and their persisted witnesses let the
    next process extend again instead of rebuilding, so the disk tier
    follows the same delta discipline as the in-memory lineage.
    Payload files land before the manifest that vouches for them, each
    via temp-file + ``os.replace``.
    """
    values, layout = index.pack()
    witnesses = index.witnesses()
    directory = artifact_dir(root, key)
    directory.mkdir(parents=True, exist_ok=True)
    block = np.ascontiguousarray(values)
    payload = block.tobytes()
    layout_bytes = pickle.dumps(
        (layout, witnesses), protocol=pickle.HIGHEST_PROTOCOL
    )
    manifest = {
        "format": ARTIFACT_FORMAT,
        "fingerprint": fingerprint,
        "count": len(witnesses),
        "values_len": int(block.size),
        "block_sha1": hashlib.sha1(payload).hexdigest(),
        "layout_sha1": hashlib.sha1(layout_bytes).hexdigest(),
    }
    _replace_bytes(directory / _BLOCK_FILE, payload)
    _replace_bytes(directory / _LAYOUT_FILE, layout_bytes)
    _replace_bytes(
        directory / _MANIFEST_FILE,
        json.dumps(manifest, indent=2, sort_keys=True).encode("ascii"),
    )
    (directory / _OLD_BLOCK_FILE).unlink(missing_ok=True)
    return directory


def _open_block(path: Path, values_len: int) -> np.ndarray:
    """Map the packed block read-only (REP071 source).

    A zero-length block needs no mapping (``mmap`` refuses empty files);
    a file shorter than the manifest's element count makes ``np.memmap``
    raise, so truncation is caught structurally before any verification.
    """
    if values_len == 0:
        return np.zeros(0, dtype=BLOCK_DTYPE)
    return np.memmap(path, dtype=BLOCK_DTYPE, mode="r", shape=(values_len,))


def _close_block(block: np.ndarray) -> None:
    """Idempotent release of a mapped block (REP071 ownership sink)."""
    mapping = getattr(block, "_mmap", None)
    if mapping is not None:
        mapping.close()


def load_index(root, key, fingerprint: str) -> Optional[ShapeIndex]:
    """The persisted index for ``key``, or ``None`` — never a wrong index.

    Verification order: manifest readable and well-formed, format
    version current, fingerprint equal to the *current* table's content
    fingerprint, layout bytes digest-clean, block mappable at the
    manifest's length (truncation fails here), digest-clean, and
    exactly the length its layout describes.  Any
    miss returns ``None`` so the caller rebuilds; a block that was
    mapped before the miss is closed first.  On success the mapping
    *is* the returned index's packed block — near-zero cold start, one
    sequential read for the digest check.
    """
    directory = artifact_dir(root, key)
    try:
        manifest = json.loads((directory / _MANIFEST_FILE).read_text("ascii"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    if manifest.get("format") != ARTIFACT_FORMAT:
        return None
    if manifest.get("fingerprint") != fingerprint:
        return None
    try:
        values_len = int(manifest["values_len"])
        count = int(manifest["count"])
        block_sha1 = manifest["block_sha1"]
        layout_sha1 = manifest["layout_sha1"]
    except (KeyError, TypeError, ValueError):
        return None
    try:
        layout_bytes = (directory / _LAYOUT_FILE).read_bytes()
    except OSError:
        return None
    if hashlib.sha1(layout_bytes).hexdigest() != layout_sha1:
        return None
    try:
        layout, witnesses = pickle.loads(layout_bytes)
    except Exception:
        return None
    if not isinstance(layout, tuple) or len(layout) != 2 or layout[0] != count:
        return None
    if not isinstance(witnesses, list) or len(witnesses) != count:
        return None
    try:
        block = _open_block(directory / _BLOCK_FILE, values_len)
    except (OSError, ValueError):
        return None
    try:
        digest = hashlib.sha1()
        digest.update(block)
        if digest.hexdigest() != block_sha1:
            _close_block(block)
            return None
        index = ShapeIndex.from_packed(block, layout, witnesses=witnesses)
    except Exception:
        _close_block(block)
        return None
    return index


# ---------------------------------------------------------------------------
# Store garbage collection
# ---------------------------------------------------------------------------

#: Environment knob for the store's byte budget: when set,
#: :func:`artifact_budget` parses it and the serving layer prunes the
#: store to this size on every table eviction.  Unset/empty: no budget.
ARTIFACT_BUDGET_ENV = "REPRO_ARTIFACT_BUDGET"


def artifact_budget() -> Optional[int]:
    """The ``REPRO_ARTIFACT_BUDGET`` byte budget, or None when unset.

    Malformed values raise :class:`~repro.errors.ExecutionError` loudly —
    a typo'd budget silently pruning nothing, or everything, is worse
    than failing.
    """
    configured = os.environ.get(ARTIFACT_BUDGET_ENV, "")
    if not configured:
        return None
    try:
        budget = int(configured)
    except ValueError:
        raise ExecutionError(
            "{} must be an integer byte budget, got {!r}".format(
                ARTIFACT_BUDGET_ENV, configured
            )
        )
    if budget < 0:
        raise ExecutionError(
            "{} must be >= 0, got {}".format(ARTIFACT_BUDGET_ENV, budget)
        )
    return budget


@dataclass
class PruneReport:
    """What one :func:`prune` pass did (inspected by tests and /v1/stats)."""

    #: Artifact directories examined (well-formed entries only).
    examined: int = 0
    #: Directories removed, oldest-first.
    removed: int = 0
    #: Bytes freed by the removals.
    freed_bytes: int = 0
    #: Bytes still resident after the pass.
    kept_bytes: int = 0
    #: Directory names removed (artifact_name hashes, for logging).
    removed_names: List[str] = field(default_factory=list)


def _entry_size(directory: Path) -> int:
    total = 0
    try:
        for item in directory.iterdir():
            try:
                total += item.stat().st_size
            except OSError:
                continue
    except OSError:
        return 0
    return total


def _entry_mtime(directory: Path) -> float:
    """Recency of one artifact entry: its manifest's mtime.

    ``save_index`` writes the manifest last, so the manifest mtime is the
    entry's last-written time; a directory without a readable manifest
    (torn save, foreign debris) reports 0.0 and is first in line to go.
    """
    try:
        return (directory / _MANIFEST_FILE).stat().st_mtime
    except OSError:
        return 0.0


def prune(
    root,
    max_bytes: Optional[int] = None,
    max_age_s: Optional[float] = None,
) -> PruneReport:
    """Evict cold artifact entries: LRU by mtime, bounded by bytes and age.

    The store grows one entry per distinct (params, normalize_y, plan,
    precision) key and nothing ever removed them before this.  A prune
    pass walks the store root, drops every entry older than
    ``max_age_s`` (by manifest mtime), then removes oldest-first until
    the resident total fits ``max_bytes``.  Both limits optional; with
    neither, the pass only measures.  Removal is best-effort per entry
    (a concurrently-held memmap on another platform, or a permission
    error, skips that entry rather than failing the pass) and never
    touches files outside well-formed artifact directories.

    The serving layer calls this from its table-eviction hook with the
    :data:`ARTIFACT_BUDGET_ENV` budget; deployments can also run it from
    cron over a shared store.
    """
    report = PruneReport()
    store = Path(root)
    try:
        candidates = [entry for entry in store.iterdir() if entry.is_dir()]
    except OSError:
        return report
    entries = []
    for directory in candidates:
        if not (directory / _MANIFEST_FILE).exists() and not (
            directory / _BLOCK_FILE
        ).exists():
            continue  # not ours: never delete foreign directories
        entries.append((_entry_mtime(directory), _entry_size(directory), directory))
    entries.sort(key=lambda item: (item[0], item[2].name))
    report.examined = len(entries)
    total = sum(size for _mtime, size, _directory in entries)
    now = time.time()
    survivors = []
    for mtime, size, directory in entries:
        expired = max_age_s is not None and (now - mtime) > max_age_s
        if expired:
            if _remove_entry(directory):
                report.removed += 1
                report.freed_bytes += size
                report.removed_names.append(directory.name)
                total -= size
                continue
        survivors.append((mtime, size, directory))
    if max_bytes is not None:
        for mtime, size, directory in survivors:
            if total <= max_bytes:
                break
            if _remove_entry(directory):
                report.removed += 1
                report.freed_bytes += size
                report.removed_names.append(directory.name)
                total -= size
    report.kept_bytes = total
    return report


def _remove_entry(directory: Path) -> bool:
    """Remove one artifact directory; False when the OS refuses."""
    try:
        shutil.rmtree(directory)
        return True
    except OSError:
        return False
