"""Shared-memory transport for the ``workers>1`` process pool (zero-copy shards).

Pickling whole :class:`~repro.engine.trendline.Trendline` chunks into
every task lets serialization dominate, so multi-core scaling never
materializes.  This module moves the data to the workers instead of
moving it with every task, the way the paper's pattern-at-a-time engine
executes over in-memory columns (§6) and SlopeSeeker precomputes its trend
collections once and queries them repeatedly:

* :func:`publish_trendlines` packs a whole candidate collection — raw
  points, bins, and the cumulative :class:`~repro.engine.statistics.PrefixStats`
  arrays — into **one** ``multiprocessing.shared_memory`` segment, once per
  session.  The returned :class:`CollectionHandle` is a few hundred bytes
  of manifest (keys, scalars, array lengths), so a shard task now travels
  as ``(handle, positions)`` instead of pickled objects — a ``range`` for
  a full scan, a slice of the surviving positions after IndexPrune.
* :func:`resolve_collection` is the worker-side entry point: on first use
  it attaches the segment and reconstructs a **read-only, worker-resident**
  trendline collection as zero-copy numpy views over the shared buffer,
  memoized for the worker's lifetime.  In the publishing process itself
  (``workers=1`` inline execution) resolution short-circuits to the
  original objects.
* :func:`publish_query` / :func:`resolve_query` do the same for a compiled
  query: the query is pickled into shared memory once and each worker
  unpickles it once per session instead of once per shard.
* :func:`publish_table` / :func:`attach_table` export a
  :class:`~repro.data.table.Table`'s columns for the streaming tail,
  keyed by the existing content fingerprint so a reattached table hits
  the same cache entries as the publisher's original; appends travel as
  delta segments (:meth:`ShmSession.acquire_append`).

:class:`ShmSession` owns every segment a session publishes and releases
them on :meth:`~ShmSession.close` (idempotent); a module-level ``atexit``
hook closes any session the owner forgot, so interpreter exit never leaks
``/dev/shm`` segments.  Unlinking while workers still hold attachments is
safe on POSIX — the memory persists until the last mapping closes.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.table import Table
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline
from repro.errors import ExecutionError

try:  # stdlib since 3.8; gated so the rest of the engine imports without it
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: The per-trendline arrays packed into the archive, in manifest order:
#: raw points, per-bin representatives, normalized bins, then the five
#: cumulative prefix-statistics arrays of Theorem 5.1.
_ARRAYS_PER_TRENDLINE = 10

#: Sentinel dtype marker for pickled object columns in a table manifest.
_OBJECT_COLUMN_DTYPE = "object"


def _require_shared_memory():
    if _shared_memory is None:  # pragma: no cover
        raise ExecutionError(
            "multiprocessing.shared_memory is unavailable on this platform; "
            "use workers=1"
        )
    return _shared_memory


_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str):
    """Attach an existing segment without resource-tracker registration.

    Before Python 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with the resource tracker, so a spawn-started worker's
    tracker would unlink memory the publishing process still owns on
    worker exit, while under fork (shared tracker) any attempt to
    unregister afterwards clobbers the *publisher's* registration.  The
    publisher is the sole owner here; attachments must never be tracked —
    exactly 3.13's ``track=False``, emulated below by suppressing
    ``register`` for the duration of the attach.

    A segment unlinked before this attach raises
    :class:`~repro.errors.ExecutionError` naming it; the dispatching
    session then forgets the handle (:meth:`ShmSession.forget_vanished`).
    """
    shared = _require_shared_memory()
    try:
        try:
            return shared.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13
            pass
        from multiprocessing import resource_tracker

        with _ATTACH_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
    except FileNotFoundError as exc:
        raise ExecutionError(
            "shared-memory segment {!r} is gone: it was unlinked before this "
            "process attached it".format(name)
        ) from exc


def _segment_exists(name: str) -> bool:
    """Can a process still attach the segment ``name``?"""
    try:
        segment = _attach_segment(name)
    except ExecutionError:
        return False
    segment.close()
    return True


# --------------------------------------------------------------------------
# Handles: what travels in a task instead of the data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CollectionHandle:
    """Reference to one published trendline collection.

    Deliberately O(1) in the collection size — the per-trendline manifest
    (keys, scalars, array lengths) lives *inside* the segment, after the
    float64 payload — because a handle is pickled into every range task:
    ``total`` is the payload's element count, ``count`` the number of
    trendlines, ``manifest_nbytes`` the pickled manifest's size.
    """

    token: str
    name: str
    total: int
    count: int
    manifest_nbytes: int

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class QueryHandle:
    """A compiled query published once: workers unpickle it once per session."""

    token: str
    name: str
    nbytes: int


@dataclass(frozen=True)
class TableHandle:
    """Manifest of one published table: per-column name, dtype and extent.

    ``token`` keys the segment, the pins and the worker store: it is the
    content fingerprint for a full-table export, or fingerprint plus a
    column-subset digest when only the query's columns were published.
    """

    fingerprint: str
    token: str
    name: str
    columns: Tuple[Tuple[str, str, int, int], ...]  # (name, dtype.str, offset, nbytes)


@dataclass(frozen=True)
class TableDeltaHandle:
    """Manifest of an *appended row range* published over a base table.

    The streaming transport: instead of republishing the whole table
    after ``append_rows``, only rows ``[base_rows:]`` of each column
    travel as a new (small) segment, and the handle chains to the base
    table's handle — which may itself be a delta, so a run of appends
    forms a chain back to one full export.  Workers resolve the base
    recursively (hitting their resident store for everything already
    attached), concatenate the delta onto the resident columns, and
    memoize the extended table under this handle's ``token`` — an append
    to existing arrays plus a fingerprint swap, with only the delta
    bytes crossing process boundaries.

    ``columns`` describes the delta segment's layout exactly like
    :class:`TableHandle.columns` describes a full export's.
    """

    fingerprint: str
    token: str
    name: str
    columns: Tuple[Tuple[str, str, int, int], ...]  # (name, dtype.str, offset, nbytes)
    base: object  # TableHandle | TableDeltaHandle
    base_rows: int


def delta_chain_tokens(handle) -> List[str]:
    """Every token along a handle's delta chain, newest first.

    For a plain :class:`TableHandle` this is just ``[handle.token]``.
    Dispatch pins the whole chain: a worker may attach any link while
    the shards run, so none of the chained segments may be unlinked.
    """
    tokens: List[str] = []
    while isinstance(handle, TableDeltaHandle):
        tokens.append(handle.token)
        handle = handle.base
    tokens.append(handle.token)
    return tokens


def _delta_depth(handle) -> int:
    """Chain links between ``handle`` and its underlying full export."""
    depth = 0
    while isinstance(handle, TableDeltaHandle):
        depth += 1
        handle = handle.base
    return depth


def table_token(fingerprint: str, columns: Optional[Sequence[str]] = None) -> str:
    """The publish/store key for one table + column subset."""
    if columns is None:
        return fingerprint
    import hashlib

    # repr(tuple) is an unambiguous encoding: a column literally named
    # "a,b" cannot alias the subset ("a", "b") the way a bare join would.
    digest = hashlib.sha1(repr(tuple(columns)).encode("utf-8")).hexdigest()[:12]
    return "{}:{}".format(fingerprint, digest)


# --------------------------------------------------------------------------
# Publishing (runs in the session's process)
# --------------------------------------------------------------------------

def _trendline_arrays(trendline: Trendline) -> List[np.ndarray]:
    prefix = trendline.prefix
    return [
        np.ascontiguousarray(array, dtype=np.float64)
        for array in (
            trendline.x,
            trendline.y,
            trendline.bin_x,
            trendline.bin_y,
            trendline.norm_bin_y,
            prefix.count,
            prefix.sx,
            prefix.sy,
            prefix.sxy,
            prefix.sxx,
        )
    ]


def publish_trendlines(
    trendlines: Sequence[Trendline], token: Optional[str] = None
) -> Tuple[CollectionHandle, "object"]:
    """Pack a collection into one shared-memory segment.

    Returns ``(handle, segment)``; the caller owns the segment (normally a
    :class:`ShmSession`, which closes and unlinks it on ``close()``).
    """
    shared = _require_shared_memory()
    entries = []
    arrays: List[np.ndarray] = []
    total = 0
    for trendline in trendlines:
        packed = _trendline_arrays(trendline)
        lengths = tuple(len(array) for array in packed)
        entries.append(
            (trendline.key, trendline.y_mean, trendline.y_std, trendline.offset, lengths)
        )
        arrays.extend(packed)
        total += sum(lengths)
    manifest = pickle.dumps(tuple(entries), protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared.SharedMemory(create=True, size=max(8, total * 8 + len(manifest)))
    view = np.ndarray((total,), dtype=np.float64, buffer=segment.buf)
    position = 0
    for array in arrays:
        view[position : position + len(array)] = array
        position += len(array)
    segment.buf[total * 8 : total * 8 + len(manifest)] = manifest
    handle = CollectionHandle(
        token=token or uuid.uuid4().hex,
        name=segment.name,
        total=total,
        count=len(entries),
        manifest_nbytes=len(manifest),
    )
    return handle, segment


def publish_query(query, token: Optional[str] = None) -> Tuple[QueryHandle, "object"]:
    """Pickle a compiled query into a shared-memory segment, once."""
    shared = _require_shared_memory()
    payload = pickle.dumps(query, protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared.SharedMemory(create=True, size=max(1, len(payload)))
    segment.buf[: len(payload)] = payload
    handle = QueryHandle(
        token=token or uuid.uuid4().hex, name=segment.name, nbytes=len(payload)
    )
    return handle, segment


def _write_columns(columns) -> Tuple[Tuple[Tuple[str, str, int, int], ...], "object"]:
    """Encode ``(name, values)`` columns into one new segment.

    The one encoding :func:`publish_table` and
    :func:`publish_table_delta` share: numeric columns as raw bytes,
    object columns pickled, each payload 16-byte aligned.  Returns the
    ``(name, dtype, offset, nbytes)`` manifest and the segment.
    """
    shared = _require_shared_memory()
    encoded: List[Tuple[str, str, bytes]] = []
    for name, values in columns:
        if values.dtype == object:
            payload = pickle.dumps(values.tolist(), protocol=pickle.HIGHEST_PROTOCOL)
            encoded.append((name, _OBJECT_COLUMN_DTYPE, payload))
        else:
            values = np.ascontiguousarray(values)
            encoded.append((name, values.dtype.str, values.tobytes()))
    manifest = []
    offset = 0
    for name, dtype_str, payload in encoded:
        offset = (offset + 15) & ~15  # 16-byte alignment for any dtype
        manifest.append((name, dtype_str, offset, len(payload)))
        offset += len(payload)
    segment = shared.SharedMemory(create=True, size=max(1, offset))
    for (name, dtype_str, payload), (_, _, start, nbytes) in zip(encoded, manifest):
        segment.buf[start : start + nbytes] = payload
    return tuple(manifest), segment


def publish_table(
    table: Table,
    token: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> Tuple[TableHandle, "object"]:
    """Export a table's columns, keyed by its existing content fingerprint.

    ``columns`` restricts the export to the named subset (the execute
    path publishes only the columns the query's visual parameters and
    filters reference — unrelated columns are neither copied into shared
    memory nor required to be picklable).  Numeric columns are shared as
    raw bytes (zero-copy on reattach); object columns (group keys) are
    pickled, so reattached values — and therefore group identities,
    counts and result keys — are the *same objects* parent-side
    generation would group by, not a stringified approximation (``1``
    and ``"1"`` must stay two groups).  The fingerprint is computed
    *before* export and pre-seeded on reattached tables, so both sides
    key the same cache entries.
    """
    from repro.engine.cache import table_fingerprint

    fingerprint = table_fingerprint(table)
    if token is None:
        token = table_token(fingerprint, columns)
    names = table.column_names if columns is None else list(columns)
    manifest, segment = _write_columns((name, table.column(name)) for name in names)
    handle = TableHandle(
        fingerprint=fingerprint, token=token, name=segment.name, columns=manifest
    )
    return handle, segment


def publish_table_delta(
    table: Table,
    base_handle,
    base_rows: int,
    token: str,
) -> Tuple[TableDeltaHandle, "object"]:
    """Export only rows ``[base_rows:]`` of the columns ``base_handle`` has.

    The caller (``ShmSession.acquire_append``) guarantees the precondition
    that makes the chain sound: ``table``'s first ``base_rows`` rows are
    bitwise the base's published rows with unchanged dtypes.  Encoding
    matches :func:`publish_table` exactly — numeric raw bytes, object
    columns pickled — so the worker-side concatenation reproduces the
    columns a full export would have shipped.
    """
    from repro.engine.cache import table_fingerprint

    fingerprint = table_fingerprint(table)
    manifest, segment = _write_columns(
        (name, table.column(name)[base_rows:])
        for name, _dtype, _offset, _nbytes in base_handle.columns
    )
    handle = TableDeltaHandle(
        fingerprint=fingerprint,
        token=token,
        name=segment.name,
        columns=manifest,
        base=base_handle,
        base_rows=base_rows,
    )
    return handle, segment


# --------------------------------------------------------------------------
# Attaching (runs in the workers; memoized per process)
# --------------------------------------------------------------------------

class _Attachment:
    """A resolved handle: the value plus the mapping that keeps it alive."""

    __slots__ = ("value", "segment")

    def __init__(self, value, segment):
        self.value = value
        self.segment = segment


#: Worker-resident store: token -> _Attachment, LRU-bounded.  Eviction
#: only drops the store's reference — any live views keep the mapping
#: alive until garbage collection, so in-flight results stay valid while
#: a worker cycling through many collections does not accumulate every
#: mapping it ever attached.
_WORKER_STORE: "OrderedDict[str, _Attachment]" = OrderedDict()
#: Reentrant: resolving a TableDeltaHandle recursively resolves its base
#: chain from inside the attach callback, re-entering _resolve.
_WORKER_LOCK = threading.RLock()
_MAX_WORKER_ENTRIES = 8


def _store_put(token: str, attachment: _Attachment) -> None:
    _WORKER_STORE[token] = attachment
    while len(_WORKER_STORE) > _MAX_WORKER_ENTRIES:
        _WORKER_STORE.popitem(last=False)

#: Publisher-side registry: token -> (pid, original object).  Lets the
#: publishing process (and only it — fork copies this dict, hence the pid
#: check) resolve handles without re-attaching its own segments.
_LOCAL: Dict[str, Tuple[int, object]] = {}


def attach_collection(handle: CollectionHandle) -> Tuple[List[Trendline], "object"]:
    """Reconstruct a read-only collection as views over the shared buffer."""
    segment = _attach_segment(handle.name)
    try:
        base = np.ndarray((handle.total,), dtype=np.float64, buffer=segment.buf)
        base.flags.writeable = False
        manifest_start = handle.total * 8
        entries = pickle.loads(
            bytes(segment.buf[manifest_start : manifest_start + handle.manifest_nbytes])
        )
        trendlines: List[Trendline] = []
        position = 0
        for key, y_mean, y_std, bin_offset, lengths in entries:
            if len(lengths) != _ARRAYS_PER_TRENDLINE:
                raise ExecutionError(
                    "shm manifest layout mismatch: expected {} arrays per "
                    "trendline, got {} (publisher/worker version skew?)".format(
                        _ARRAYS_PER_TRENDLINE, len(lengths)
                    )
                )
            parts = []
            for length in lengths:
                parts.append(base[position : position + length])
                position += length
            x, y, bin_x, bin_y, norm_bin_y, count, sx, sy, sxy, sxx = parts
            # The five prefix arrays are equal-length and packed
            # consecutively (see _trendline_arrays), so the payload
            # already holds a (5, bins+1) stacked block — reshape it
            # zero-copy so the attached PrefixStats keeps the fused
            # _slopes gather the publisher's original had.
            prefix_start = position - 5 * len(count)
            stacked = base[prefix_start:position].reshape(5, len(count))
            trendlines.append(
                Trendline(
                    key=key,
                    x=x,
                    y=y,
                    bin_x=bin_x,
                    bin_y=bin_y,
                    norm_bin_y=norm_bin_y,
                    prefix=PrefixStats.from_cumulative(
                        count, sx, sy, sxy, sxx, stacked=stacked
                    ),
                    y_mean=y_mean,
                    y_std=y_std,
                    offset=bin_offset,
                )
            )
    except BaseException:
        # On success the open segment is returned (the _Attachment pins
        # it); on any failure nobody else holds it, so close here or the
        # mapping leaks for the worker's lifetime.  Every view over the
        # buffer must be dropped first or close() refuses to release the
        # exported memoryview.
        base = parts = trendlines = stacked = None  # noqa: F841
        segment.close()
        raise
    return trendlines, segment


def attach_table(handle: TableHandle) -> Tuple[Table, "object"]:
    """Reconstruct a read-only table from a published handle.

    Numeric columns come back as zero-copy views over the shared buffer;
    object columns are unpickled (a worker-local copy, but with the
    publisher's exact values — group keys keep their types).
    """
    segment = _attach_segment(handle.name)
    try:
        columns: Dict[str, np.ndarray] = {}
        for name, dtype_str, offset, nbytes in handle.columns:
            if dtype_str == _OBJECT_COLUMN_DTYPE:
                values = pickle.loads(bytes(segment.buf[offset : offset + nbytes]))
                # Element-wise fill, not np.array(values): sequence-valued
                # cells (tuple/list group keys) must stay single objects in a
                # 1-D column, not be broadcast into extra dimensions.
                column = np.empty(len(values), dtype=object)
                for index, value in enumerate(values):
                    column[index] = value
                column.setflags(write=False)
                columns[name] = column
                continue
            dtype = np.dtype(dtype_str)
            count = nbytes // dtype.itemsize if dtype.itemsize else 0
            view = np.ndarray((count,), dtype=dtype, buffer=segment.buf, offset=offset)
            view.flags.writeable = False
            columns[name] = view
    except BaseException:
        # A corrupt pickle or a bad dtype string must not leak the
        # mapping: on success the segment is returned (and pinned by the
        # _Attachment), on failure we are its only owner.  Views built so
        # far must go before close() can release the buffer.
        columns = view = None  # noqa: F841
        segment.close()
        raise
    # Seed the cache-key digest with the handle *token* (fingerprint for
    # full exports, fingerprint+subset for column-restricted ones), so
    # two different subsets of one table can never alias cache entries.
    table = Table.from_shared(columns, fingerprint=handle.token)
    return table, segment


def _resolve(token: str, attach):
    """Shared resolution: publisher short-circuit, then the worker store.

    ``attach`` is called on a store miss and must return an
    :class:`_Attachment`; the result is memoized (LRU) for the process
    lifetime so each handle attaches at most once per worker.
    """
    local = _LOCAL.get(token)
    if local is not None and local[0] == os.getpid():
        return local[1]
    with _WORKER_LOCK:
        attachment = _WORKER_STORE.get(token)
        if attachment is None:
            attachment = attach()
            _store_put(token, attachment)
        else:
            _WORKER_STORE.move_to_end(token)
        return attachment.value


def resolve_collection(handle: CollectionHandle) -> Sequence[Trendline]:
    """The worker-resident collection for ``handle`` (attach on first use)."""
    return _resolve(handle.token, lambda: _Attachment(*attach_collection(handle)))


def resolve_query(query):
    """Resolve a :class:`QueryHandle` (or pass a compiled query through)."""
    if not isinstance(query, QueryHandle):
        return query

    def attach():
        segment = _attach_segment(query.name)
        try:
            # The pickle is copied out (bytes(...)), so the segment is
            # closed on every path — a corrupt payload must not leak it.
            value = pickle.loads(bytes(segment.buf[: query.nbytes]))
        finally:
            segment.close()
        return _Attachment(value, None)

    return _resolve(query.token, attach)


def attach_table_delta(handle: TableDeltaHandle) -> Tuple[Table, None]:
    """Extend the (resident) base table with a published delta segment.

    Resolves the base recursively — hitting the worker store for every
    link already attached — then concatenates the delta rows onto each
    base column and adopts the result under the delta's token.  The
    concatenation copies, so the small delta segment is closed right
    here rather than kept mapped; the base's own mappings stay owned by
    its store entry.
    """
    base = resolve_table(handle.base)
    segment = _attach_segment(handle.name)
    try:
        columns: Dict[str, np.ndarray] = {}
        for name, dtype_str, offset, nbytes in handle.columns:
            base_column = base.column(name)
            if dtype_str == _OBJECT_COLUMN_DTYPE:
                values = pickle.loads(bytes(segment.buf[offset : offset + nbytes]))
                column = np.empty(len(base_column) + len(values), dtype=object)
                column[: len(base_column)] = base_column
                for index, value in enumerate(values):
                    column[len(base_column) + index] = value
            else:
                dtype = np.dtype(dtype_str)
                count = nbytes // dtype.itemsize if dtype.itemsize else 0
                view = np.ndarray((count,), dtype=dtype, buffer=segment.buf, offset=offset)
                column = np.concatenate([base_column, view])
            column.setflags(write=False)
            columns[name] = column
    finally:
        segment.close()
    table = Table.from_shared(columns, fingerprint=handle.token)
    # The resident base already encoded its group column: extend that by
    # the delta rows instead of re-walking the whole column per append.
    table.extend_encodings(base)
    return table, None


def resolve_table(handle) -> Table:
    """The worker-resident table for ``handle`` (attach on first use).

    Accepts both a full-export :class:`TableHandle` and a chained
    :class:`TableDeltaHandle`; either memoizes under its own token.
    """
    if isinstance(handle, TableDeltaHandle):
        return _resolve(handle.token, lambda: _Attachment(*attach_table_delta(handle)))
    return _resolve(handle.token, lambda: _Attachment(*attach_table(handle)))


def worker_init() -> None:
    """Process-pool initializer (``WorkerPool(initializer=...)``).

    Fork copies the publisher's ``_LOCAL`` registry into the child; left
    in place it would satisfy every resolve from copy-on-write memory and
    silently bypass the shared segments.  Dropping it (and any stale
    attachment store) makes workers persistent shm residents: every
    handle resolves through shared memory exactly once per worker.
    """
    _LOCAL.clear()
    _WORKER_STORE.clear()


# --------------------------------------------------------------------------
# Session lifecycle
# --------------------------------------------------------------------------

_SESSIONS: "weakref.WeakSet[ShmSession]" = weakref.WeakSet()


class ShmSession:
    """Owns the segments one engine/session published; closes them once.

    Publishing is memoized — the same collection object, compiled query,
    or table (by fingerprint) is exported exactly once per session — and
    the collection/query memos are LRU-bounded, so an engine run *without*
    a trendline cache (fresh collection per ``run``) recycles old
    segments instead of accumulating one per query.  :meth:`pin` defers
    any release of a handle's segment while shards referencing it are in
    flight.  :meth:`close` is idempotent, also running via ``atexit`` so
    that interpreter exit never leaks shared-memory segments.
    """

    #: Retained collection segments (each a full data copy): bounded so
    #: cacheless sessions stay bounded too.
    MAX_COLLECTIONS = 8
    #: Retained query segments (small, but each costs a /dev/shm inode).
    MAX_QUERIES = 128
    #: Retained table segments (full data copies, keyed by content
    #: fingerprint): bounded so streaming/append workloads — which churn
    #: fingerprints every batch — recycle segments instead of filling
    #: /dev/shm.  Evictions defer to the dispatch pins below.
    MAX_TABLES = 8
    #: Longest delta chain :meth:`acquire_append` will extend before
    #: forcing a fresh full publish: bounds the pickled handle size, the
    #: per-dispatch pin count, and the worker-side resolve depth, and
    #: keeps a chain (root + links) comfortably inside MAX_TABLES.
    MAX_DELTA_CHAIN = 4

    def __init__(self):
        self._lock = threading.Lock()
        self._segments: Dict[str, object] = {}  # token -> SharedMemory
        self._collections: "OrderedDict[int, CollectionHandle]" = OrderedDict()
        self._queries: "OrderedDict[int, QueryHandle]" = OrderedDict()
        self._tables: "OrderedDict[str, TableHandle]" = OrderedDict()
        self._refs: Dict[int, object] = {}  # keeps memo ids stable
        self._witness: Dict[int, tuple] = {}  # element identities at publish
        self._pins: Dict[str, int] = {}  # token -> in-flight dispatch count
        #: token -> [segments] released while pinned.  A *list* per
        #: token: with the LRU-bounded table memo a content fingerprint
        #: can be evicted, republished and evicted again while earlier
        #: dispatches still pin it — every parked generation must be
        #: unlinked at the final unpin, not just the latest.
        self._deferred: Dict[str, List[object]] = {}
        self._closed = False
        _SESSIONS.add(self)

    # -- publishing --------------------------------------------------------
    def collection_handle(self, trendlines: Sequence[Trendline]) -> CollectionHandle:
        """Publish a collection once; later calls reuse the segment."""
        stale: list = []
        with self._lock:
            self._check_open()
            handle = self._collection_locked(trendlines, stale)
        _destroy_all(stale)
        return handle

    def query_handle(self, compiled) -> QueryHandle:
        """Publish a compiled query once; later calls reuse the segment."""
        stale: list = []
        with self._lock:
            self._check_open()
            handle = self._query_locked(compiled, stale)
        _destroy_all(stale)
        return handle

    def acquire(self, trendlines: Sequence[Trendline], compiled) -> Tuple[CollectionHandle, QueryHandle]:
        """Publish-or-reuse both handles *and* pin them, atomically.

        This is the dispatch entry point: taking the pins under the same
        lock as the lookup closes the window in which a concurrent
        eviction could unlink a segment between handing out its handle
        and :meth:`pin` taking effect.  Pair with :meth:`unpin`.
        """
        stale: list = []
        with self._lock:
            self._check_open()
            handle = self._collection_locked(trendlines, stale)
            query_ref = self._query_locked(compiled, stale)
            for token in (handle.token, query_ref.token):
                self._pins[token] = self._pins.get(token, 0) + 1
        _destroy_all(stale)
        return handle, query_ref

    def acquire_append(
        self,
        table: Table,
        base: Optional[Table],
        compiled,
        columns: Optional[Sequence[str]] = None,
    ) -> Tuple[object, QueryHandle, Tuple[str, ...]]:
        """Publish ``table`` as a delta over ``base`` when possible, and pin.

        The streaming-tail dispatch entry point.  Returns
        ``(table_handle, query_handle, pinned_tokens)``; the table handle
        is a :class:`TableDeltaHandle` chained to ``base``'s live
        segment when the delta preconditions hold, otherwise a plain
        full export — correctness never depends on the delta path being
        taken.  Every token along the delta chain is pinned (workers may
        attach any link mid-dispatch); pass ``pinned_tokens`` back to
        :meth:`unpin` when the dispatch completes.
        """
        stale: list = []
        with self._lock:
            self._check_open()
            handle = self._append_locked(table, base, stale, columns=columns)
            query_ref = self._query_locked(compiled, stale)
            tokens = tuple(delta_chain_tokens(handle)) + (query_ref.token,)
            for token in tokens:
                self._pins[token] = self._pins.get(token, 0) + 1
        _destroy_all(stale)
        return handle, query_ref, tokens

    def _append_locked(
        self,
        table: Table,
        base: Optional[Table],
        stale: list,
        columns: Optional[Sequence[str]] = None,
    ):
        """Publish-or-reuse ``table``, preferring a delta chained to ``base``.

        Falls back to a full :meth:`_table_locked` publish whenever the
        delta would be unsound or unprofitable: no base, base segment
        (or any link of its chain) already evicted, an append that
        widened a column dtype (the delta bytes would not concatenate
        onto the resident views), or a chain already
        :data:`MAX_DELTA_CHAIN` links deep — bounding both the pickled
        handle size and the number of pins a dispatch must hold.
        """
        from repro.engine.cache import table_fingerprint

        token = table_token(table_fingerprint(table), columns)
        handle = self._tables.get(token)
        if handle is not None:
            if self._chain_intact_locked(handle):
                for chain_token in reversed(delta_chain_tokens(handle)):
                    if chain_token in self._tables:
                        self._tables.move_to_end(chain_token)
                return handle
            self._tables.pop(token, None)
            stale.append(self._drop_locked(token, token))
        base_handle = None
        if base is not None and 0 < len(base) < len(table):
            base_token = table_token(table_fingerprint(base), columns)
            candidate = self._tables.get(base_token)
            if (
                candidate is not None
                and self._chain_intact_locked(candidate)
                and _delta_depth(candidate) < self.MAX_DELTA_CHAIN
                and _dtypes_preserved(base, table, candidate)
            ):
                base_handle = candidate
        if base_handle is None:
            return self._table_locked(table, stale, columns=columns)
        handle, segment = publish_table_delta(table, base_handle, len(base), token)
        self._tables[token] = handle
        self._segments[token] = segment
        _LOCAL[token] = (os.getpid(), table)
        # Refresh the whole chain in the LRU (root first, newest last) so
        # the eviction below can only shed entries outside this chain —
        # evicting a link would break the handle we are about to dispatch.
        for chain_token in reversed(delta_chain_tokens(handle)):
            if chain_token in self._tables:
                self._tables.move_to_end(chain_token)
        while len(self._tables) > self.MAX_TABLES:
            old_token, old = self._tables.popitem(last=False)
            stale.append(self._drop_locked(old_token, old.token))
        return handle

    def _chain_intact_locked(self, handle) -> bool:
        """True when every segment along a handle's delta chain is live.

        A link whose segment was evicted (even if parked in
        ``_deferred`` under an older pin) cannot host *new* dispatches —
        its ``/dev/shm`` name may vanish at any unpin — so a broken
        chain forces a fresh full publish.
        """
        for token in delta_chain_tokens(handle):
            if token not in self._segments:
                return False
        return True

    def _collection_locked(self, trendlines, stale: list) -> CollectionHandle:
        key = id(trendlines)
        handle = self._collections.get(key)
        # Lists are not immutable the way Table is: guard the id-based
        # memo with a per-element identity witness so replacing, appending
        # or reordering trendlines re-publishes instead of silently
        # serving the stale segment.  (In-place mutation of a trendline's
        # own arrays remains the caller's contract, as everywhere else.)
        witness = tuple(map(id, trendlines))
        if handle is not None and self._witness.get(key) != witness:
            self._collections.pop(key, None)
            stale.append(self._drop_locked(key, handle.token))
            handle = None
        if handle is None:
            handle, segment = publish_trendlines(trendlines)
            self._collections[key] = handle
            self._witness[key] = witness
            self._refs[key] = trendlines
            self._segments[handle.token] = segment
            _LOCAL[handle.token] = (os.getpid(), trendlines)
            while len(self._collections) > self.MAX_COLLECTIONS:
                old_key, old = self._collections.popitem(last=False)
                stale.append(self._drop_locked(old_key, old.token))
        else:
            self._collections.move_to_end(key)
        return handle

    def _query_locked(self, compiled, stale: list) -> QueryHandle:
        key = id(compiled)
        handle = self._queries.get(key)
        if handle is None:
            handle, segment = publish_query(compiled)
            self._queries[key] = handle
            self._refs[key] = compiled
            self._segments[handle.token] = segment
            _LOCAL[handle.token] = (os.getpid(), compiled)
            while len(self._queries) > self.MAX_QUERIES:
                old_key, old = self._queries.popitem(last=False)
                stale.append(self._drop_locked(old_key, old.token))
        else:
            self._queries.move_to_end(key)
        return handle

    def _table_locked(
        self, table: Table, stale: list, columns: Optional[Sequence[str]] = None
    ) -> TableHandle:
        from repro.engine.cache import table_fingerprint

        token = table_token(table_fingerprint(table), columns)
        handle = self._tables.get(token)
        if handle is None:
            handle, segment = publish_table(table, token=token, columns=columns)
            self._tables[token] = handle
            self._segments[token] = segment
            _LOCAL[token] = (os.getpid(), table)
            while len(self._tables) > self.MAX_TABLES:
                _old_token, old = self._tables.popitem(last=False)
                stale.append(self._drop_locked(_old_token, old.token))
        else:
            self._tables.move_to_end(token)
        return handle

    # -- in-flight pinning -------------------------------------------------
    def pin(self, *handles) -> None:
        """Guard handles during dispatch: their segments outlive releases.

        A concurrent cache eviction (or the session's own LRU bound) may
        release a collection while another thread's shards are still being
        dispatched; pinned segments have their unlink deferred until the
        matching :meth:`unpin`, so late-attaching workers never see a
        vanished ``/dev/shm`` name.
        """
        with self._lock:
            for handle in handles:
                token = _pin_token(handle)
                if token is not None:
                    self._pins[token] = self._pins.get(token, 0) + 1

    def unpin(self, *handles) -> None:
        """Drop dispatch pins, performing any release deferred meanwhile."""
        stale = []
        with self._lock:
            for handle in handles:
                token = _pin_token(handle)
                if token is None:
                    continue
                remaining = self._pins.get(token, 0) - 1
                if remaining > 0:
                    self._pins[token] = remaining
                else:
                    self._pins.pop(token, None)
                    deferred = self._deferred.pop(token, None)
                    if deferred is not None:
                        stale.extend(deferred)
        for segment in stale:
            _destroy(segment)

    # -- release -----------------------------------------------------------
    def forget_vanished(self, *handles) -> None:
        """Drop the memo entry of every handle whose segment is gone.

        Called by a dispatch that failed: a segment unlinked underneath
        the session (by another process, or by hand) makes every worker
        that has not attached it yet raise
        :class:`~repro.errors.ExecutionError`.  Forgetting the handle
        makes the next run publish afresh instead of failing the same way.
        Handles whose segment still exists are kept.  Like :meth:`unpin`,
        it takes handles or the pinned-token tuple of
        :meth:`acquire_append`.
        """
        tokens = {_pin_token(handle) for handle in handles}
        stale = []
        with self._lock:
            for memo in (self._collections, self._queries, self._tables):
                for key, handle in list(memo.items()):
                    if handle.token in tokens and not _segment_exists(handle.name):
                        del memo[key]
                        stale.append(self._drop_locked(key, handle.token))
        _destroy_all(stale)

    def release_collection(self, trendlines) -> None:
        """Unlink one collection's segment (trendline-cache eviction hook).

        Workers that already attached keep their mapping — POSIX keeps the
        memory alive until the last map closes — but no new publisher-side
        reuse can occur, and the ``/dev/shm`` name is freed (deferred while
        the handle is pinned by an in-flight dispatch).
        """
        key = id(trendlines)
        with self._lock:
            handle = self._collections.pop(key, None)
            if handle is None:
                return
            segment = self._drop_locked(key, handle.token)
        if segment is not None:
            _destroy(segment)

    def _drop_locked(self, key: int, token: str):
        """Forget one published entry; return its segment to destroy.

        Caller holds the lock.  Returns ``None`` when the segment is
        pinned (parked in ``_deferred`` for :meth:`unpin`) or already gone.
        """
        self._refs.pop(key, None)
        self._witness.pop(key, None)
        _LOCAL.pop(token, None)
        segment = self._segments.pop(token, None)
        if segment is None:
            return None
        if self._pins.get(token):
            self._deferred.setdefault(token, []).append(segment)
            return None
        return segment

    def close(self) -> None:
        """Close and unlink every published segment (safe to call twice)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments.values()) + [
                segment for parked in self._deferred.values() for segment in parked
            ]
            tokens = list(self._segments.keys()) + list(self._deferred.keys())
            self._segments.clear()
            self._deferred.clear()
            self._pins.clear()
            self._collections.clear()
            self._queries.clear()
            self._tables.clear()
            self._refs.clear()
            self._witness.clear()
        for token in tokens:
            _LOCAL.pop(token, None)
        for segment in segments:
            _destroy(segment)

    def _check_open(self):
        if self._closed:
            raise ExecutionError("ShmSession is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShmSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _pin_token(handle) -> Optional[str]:
    """The pin/segment key of any handle kind (every handle carries one).

    Raw token strings pass through so callers holding the pinned-token
    tuple of :meth:`ShmSession.acquire_append` can unpin it directly.
    """
    if isinstance(handle, str):
        return handle
    return getattr(handle, "token", None)


def _dtypes_preserved(base: Table, table: Table, base_handle) -> bool:
    """True when the appended table kept every published column's dtype.

    A widened dtype (float appended to an int column) means the delta's
    raw bytes would not concatenate onto the resident base views — the
    append must republish in full.
    """
    for name, _dtype_str, _offset, _nbytes in base_handle.columns:
        if table.column(name).dtype != base.column(name).dtype:
            return False
    return True


def _destroy_all(segments) -> None:
    for segment in segments:
        if segment is not None:
            _destroy(segment)


def _destroy(segment) -> None:
    try:
        segment.close()
    except Exception:  # pragma: no cover
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # already unlinked (e.g. concurrent close)
        pass
    except Exception:  # pragma: no cover
        pass


def release_evicted(value) -> None:
    """LRU-eviction hook for caches that may hold published collections.

    One module-level function (registered once per cache — listener
    deduplication is by identity) rather than a closure per engine, so a
    long-lived shared cache never accumulates stale listeners.  Only the
    session that published ``value`` has it memoized; for every other
    session — and for values that were never published — this is a no-op.
    """
    for session in list(_SESSIONS):
        if not session.closed:
            session.release_collection(value)


@atexit.register
def _close_all_sessions() -> None:  # pragma: no cover - exercised at exit
    for session in list(_SESSIONS):
        session.close()
